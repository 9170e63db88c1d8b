"""Unit tests for the column-batch container and the batched pull protocol."""

import pytest

from repro.engine.batch import (
    DEFAULT_BATCH_SIZE,
    Batch,
    batches_from_rows,
    rows_from_batches,
)
from repro.engine.physical import PScan
from repro.engine.table import Catalog
from repro.errors import ExecutionError
from repro.lang.parser import parse
from repro.model.values import Tup


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_rows("R", [Tup(a=i, b=Tup(c=i * 10)) for i in range(5)])
    return cat


class TestBatch:
    def test_dense_live_and_indices(self):
        batch = Batch({"x": [1, 2, 3]}, 3)
        assert batch.live == 3
        assert list(batch.indices()) == [0, 1, 2]
        assert batch.sel is None

    def test_selection_vector_narrows(self):
        batch = Batch({"x": [1, 2, 3, 4]}, 4, [1, 3])
        assert batch.live == 2
        assert list(batch.indices()) == [1, 3]
        assert [t["x"] for t in batch.to_tups()] == [2, 4]

    def test_compact_gathers_live_rows(self):
        batch = Batch({"x": [1, 2, 3, 4], "y": list("abcd")}, 4, [0, 2])
        dense = batch.compact()
        assert dense.sel is None
        assert dense.n == 2
        assert dense.columns == {"x": [1, 3], "y": ["a", "c"]}

    def test_compact_is_identity_when_dense(self):
        batch = Batch({"x": [1, 2]}, 2)
        assert batch.compact() is batch

    def test_round_trip_rows(self):
        rows = [Tup(a=i, b=i % 2) for i in range(10)]
        batches = list(batches_from_rows(iter(rows), 3))
        assert [b.n for b in batches] == [3, 3, 3, 1]
        assert list(rows_from_batches(iter(batches))) == rows

    def test_getter_attr_chain(self, catalog):
        batch = Batch({"r": list(catalog["R"].rows)}, 5)
        get = batch.getter(parse("r.b.c"), catalog)
        assert [get(i) for i in range(5)] == [0, 10, 20, 30, 40]

    def test_getter_attr_on_non_tuple_raises(self):
        batch = Batch({"r": [Tup(a=1), 7]}, 2)
        get = batch.getter(parse("r.a"), {})
        assert get(0) == 1
        with pytest.raises(ExecutionError):
            get(1)

    def test_getter_missing_attribute_raises(self):
        batch = Batch({"r": [Tup(a=1)]}, 1)
        get = batch.getter(parse("r.nope"), {})
        with pytest.raises(ExecutionError):
            get(0)

    def test_getter_general_expression(self, catalog):
        batch = Batch({"r": list(catalog["R"].rows)}, 5)
        get = batch.getter(parse("r.a + 1"), catalog)
        assert [get(i) for i in range(5)] == [1, 2, 3, 4, 5]


class TestProtocol:
    def test_scan_batches_respect_batch_size(self, catalog):
        batches = list(PScan("R", "r").run_batches(catalog, batch_size=2))
        assert [b.n for b in batches] == [2, 2, 1]
        assert all(set(b.columns) == {"r"} for b in batches)

    def test_default_batch_size_is_sane(self):
        assert DEFAULT_BATCH_SIZE >= 64
