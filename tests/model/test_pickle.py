"""Pickle round-trips for the value model and its containers.

Each of these has a pickle hazard the default protocol trips over:

* ``Tup``/``Variant`` — immutable ``__setattr__`` breaks slot-state
  restore (and ``Tup.__getattr__`` recurses while ``_fields`` is unset);
* ``Table`` — holds an ``RLock`` plus process-local derived caches.

These tests pin the fixes: round-trip through every pickle protocol and
check both equality and *behaviour* (the restored object must still
index / evaluate).
"""

import pickle

import pytest

from repro.engine.batch import Batch
from repro.engine.table import Table
from repro.model.values import NULL, Tup, Variant, make_value

PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


def roundtrip(obj, protocol):
    return pickle.loads(pickle.dumps(obj, protocol))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tup_roundtrip(protocol):
    t = Tup(a=1, b=frozenset({2, 3}), c=Tup(d="x"))
    back = roundtrip(t, protocol)
    assert back == t
    assert hash(back) == hash(t)
    assert back.b == frozenset({2, 3})
    assert back.c.d == "x"
    # Still immutable after the round trip.
    with pytest.raises(Exception):
        back.a = 2


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_nested_value_roundtrip(protocol):
    v = make_value(
        {
            "xs": [{"a": 1}, {"a": 2}],
            "s": {1, 2, 3},
            "v": Variant("some", 7),
            "n": NULL,
        }
    )
    back = roundtrip(v, protocol)
    assert back == v
    assert back.n is NULL  # the singleton survives


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_variant_roundtrip(protocol):
    v = Variant("tag", frozenset({Tup(a=1)}))
    back = roundtrip(v, protocol)
    assert back == v
    assert hash(back) == hash(v)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_batch_roundtrip(protocol):
    batch = Batch({"x": [1, 2, 3], "y": [Tup(a=1), Tup(a=2), Tup(a=3)]}, 3, sel=[0, 2])
    back = roundtrip(batch, protocol)
    assert back.n == batch.n
    assert back.sel == batch.sel
    assert list(back.to_tups()) == list(batch.to_tups())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_table_roundtrip(protocol):
    table = Table("R", [Tup(a=i, b=i % 3) for i in range(10)])
    # Populate the process-local derived state that must NOT be shipped.
    table.hash_index(("a",))
    back = roundtrip(table, protocol)
    assert back.name == table.name
    assert back.rows == table.rows
    assert back.version == table.version
    # A fresh uid in the receiving process: a copy must never alias
    # another table's build-cache entries.
    assert back.uid != table.uid
    # Derived state rebuilds lazily and behaves.
    assert back.hash_index(("a",))[(3,)] == table.hash_index(("a",))[(3,)]
    back.bump_version()
    assert back.version == table.version + 1
