"""Unit tests for tables and the catalog."""

import pytest

from repro.engine.table import Catalog, Table
from repro.errors import CatalogError, ValidationError
from repro.model.schema import company_schema
from repro.model.types import ANY, INT, STRING, TupleType
from repro.model.values import Tup


class TestTable:
    def test_infers_row_type(self):
        t = Table("T", [Tup(a=1, b="x")])
        assert t.row_type == TupleType({"a": INT, "b": STRING})

    def test_empty_table_row_type_is_any(self):
        assert Table("T", []).row_type == ANY

    def test_incompatible_rows_rejected(self):
        with pytest.raises(CatalogError):
            Table("T", [Tup(a=1), Tup(b="x")])

    def test_non_tup_rows_rejected(self):
        with pytest.raises(CatalogError):
            Table("T", [{"a": 1}])

    def test_validate_against_declared_type(self):
        with pytest.raises(ValidationError):
            Table("T", [Tup(a="not int")], TupleType({"a": INT}), validate=True)

    def test_key_uniqueness_checked(self):
        with pytest.raises(CatalogError, match="duplicate key"):
            Table("T", [Tup(a=1, b=1), Tup(a=1, b=2)], key=("a",), validate=True)

    def test_as_set_dedupes_and_caches(self):
        t = Table("T", [Tup(a=1), Tup(a=1)])
        assert t.as_set() == frozenset({Tup(a=1)})
        assert t.as_set() is t.as_set()

    def test_len_iter(self):
        t = Table("T", [Tup(a=1), Tup(a=2)])
        assert len(t) == 2
        assert list(t) == [Tup(a=1), Tup(a=2)]


class TestVersioning:
    def test_fresh_table_starts_at_one(self):
        assert Table("T", [Tup(a=1)]).version == 1

    def test_uids_are_process_unique(self):
        assert Table("T", []).uid != Table("T", []).uid

    def test_insert_bumps_and_appends(self):
        t = Table("T", [Tup(a=1)])
        v = t.insert([Tup(a=2)])
        assert v == 2 and t.version == 2 and len(t) == 2

    def test_delete_bumps_only_on_removal(self):
        t = Table("T", [Tup(a=1), Tup(a=2)])
        assert t.delete(lambda row: row.a == 99) == 1  # no match: unchanged
        assert t.delete(lambda row: row.a == 1) == 2
        assert list(t) == [Tup(a=2)]

    def test_replace_rows_bumps(self):
        t = Table("T", [Tup(a=1)])
        t.replace_rows([Tup(a=7), Tup(a=8)])
        assert t.version == 2 and len(t) == 2

    def test_insert_validates_when_asked(self):
        t = Table("T", [Tup(a=1)])
        with pytest.raises(ValidationError):
            t.insert([Tup(a="not int")], validate=True)

    def test_insert_rechecks_declared_key(self):
        t = Table("T", [Tup(a=1)], key=("a",), validate=True)
        with pytest.raises(CatalogError, match="duplicate key"):
            t.insert([Tup(a=1)])

    def test_mutation_drops_derived_artifacts(self):
        t = Table("T", [Tup(a=1)])
        cached_set = t.as_set()
        index = t.hash_index(("a",))
        t.insert([Tup(a=2)])
        assert t.as_set() is not cached_set
        assert t.as_set() == frozenset({Tup(a=1), Tup(a=2)})
        assert t.hash_index(("a",)) is not index
        assert (2,) in t.hash_index(("a",))

    def test_small_writes_patch_built_indexes(self):
        t = Table("T", [Tup(a=i % 3, b=i) for i in range(10)])
        t.hash_index(("a",))
        t.hash_index(("a", "b"))
        t.insert([Tup(a=1, b=10), Tup(a=5, b=11)])
        t.delete(lambda row: row.b in (0, 4, 11))
        for attrs in (("a",), ("a", "b")):
            assert attrs in t._indexes  # carried over, not left to the next reader
            assert t.hash_index(attrs) == Table("U", t.rows).hash_index(attrs)

    def test_a_patch_leaves_the_old_index_untouched(self):
        t = Table("T", [Tup(a=1, b=0), Tup(a=1, b=1)])
        old = t.hash_index(("a",))
        snapshot = {key: list(bucket) for key, bucket in old.items()}
        t.insert([Tup(a=1, b=2)])
        t.delete(lambda row: row.b == 0)
        assert old == snapshot  # a reader still holding it sees one version
        assert t.hash_index(("a",)) == {(1,): [Tup(a=1, b=1), Tup(a=1, b=2)]}

    def test_large_writes_drop_indexes(self):
        t = Table("T", [Tup(a=i) for i in range(200)])
        t.hash_index(("a",))
        t.delete(lambda row: row.a < 100)
        assert not t._indexes
        assert t.hash_index(("a",)) == {(i,): [Tup(a=i)] for i in range(100, 200)}

    def test_deleting_one_copy_of_a_twice_stored_row_rebuilds(self):
        row = Tup(a=1)
        t = Table("T", [row, Tup(a=2), row])
        t.hash_index(("a",))
        first = []
        t.delete(lambda r: r is row and not first and not first.append(r))
        assert t.rows == [Tup(a=2), row]
        assert not t._indexes  # identity cannot say which copy went
        assert t.hash_index(("a",)) == {(2,): [Tup(a=2)], (1,): [row]}

    def test_changed_rows_names_the_small_writes_since_a_version(self):
        t = Table("T", [Tup(a=1)])
        start = t.version
        new = Tup(a=2)
        t.insert([new])
        t.hash_index(("a",))  # a delete is logged only when indexes need it
        t.delete(lambda row: row.a == 1)
        assert t.changed_rows(start) == [new, Tup(a=1)]
        assert t.changed_rows(start + 1) == [Tup(a=1)]
        assert t.changed_rows(t.version) == []

    def test_changed_rows_gives_up_past_other_writes(self):
        t = Table("T", [Tup(a=1)])
        start = t.version
        t.insert([Tup(a=2)])
        t.bump_version()  # a change it cannot name
        assert t.changed_rows(start) is None
        t.insert([Tup(a=3)])
        assert t.changed_rows(start) is None
        assert t.changed_rows(t.version - 1) == [Tup(a=3)]
        t.replace_rows([Tup(a=4)])
        assert t.changed_rows(t.version - 1) is None

    def test_changed_rows_looks_back_a_bounded_number_of_writes(self):
        t = Table("T", [])
        start = t.version
        for i in range(20):
            t.insert([Tup(a=i)])
        assert t.changed_rows(start) is None
        assert len(t.changed_rows(t.version - 8)) == 8

    def test_catalog_version_sums_tables_and_structure(self):
        cat = Catalog()
        v0 = cat.version
        cat.add_rows("T", [Tup(a=1)])
        v1 = cat.version
        assert v1 > v0
        cat["T"].insert([Tup(a=2)])
        assert cat.version > v1

    def test_catalog_version_monotonic_across_drop(self):
        cat = Catalog()
        cat.add_rows("T", [Tup(a=1)])
        cat["T"].insert([Tup(a=2)])
        before = cat.version
        cat.drop("T")
        assert cat.version > before

    def test_schema_fingerprint_tracks_shape_not_data(self):
        cat = Catalog()
        cat.add_rows("T", [Tup(a=1)])
        fp = cat.schema_fingerprint()
        cat["T"].insert([Tup(a=2)])
        assert cat.schema_fingerprint() == fp
        cat.add_rows("U", [Tup(b="x")])
        assert cat.schema_fingerprint() != fp

    def test_schema_fingerprint_is_memoised_per_structure_version(self):
        cat = Catalog()
        cat.add_rows("T", [Tup(a=1)])
        fp = cat.schema_fingerprint()
        assert cat.schema_fingerprint() is fp  # no re-sort on a repeat call
        cat["T"].insert([Tup(a=2)])
        assert cat.schema_fingerprint() is fp

    def test_add_invalidates_the_fingerprint_memo(self):
        cat = Catalog()
        cat.add_rows("T", [Tup(a=1)])
        before = cat.schema_fingerprint()
        cat.add_rows("U", [Tup(b="x")])
        after = cat.schema_fingerprint()
        assert after != before
        assert [name for name, _type in after] == ["T", "U"]

    def test_drop_invalidates_the_fingerprint_memo(self):
        cat = Catalog()
        cat.add_rows("T", [Tup(a=1)])
        cat.add_rows("U", [Tup(b="x")])
        before = cat.schema_fingerprint()
        cat.drop("U")
        after = cat.schema_fingerprint()
        assert [name for name, _type in after] == ["T"]
        # Re-adding a table of another shape under the old name is seen too.
        cat.add_rows("U", [Tup(b=1)])
        assert cat.schema_fingerprint() not in (before, after)


class TestCatalog:
    def test_add_and_lookup(self):
        cat = Catalog()
        cat.add_rows("T", [Tup(a=1)])
        assert cat.table("T").name == "T"
        assert cat["T"] is cat.table("T")
        assert "T" in cat and len(cat) == 1

    def test_duplicate_table_rejected(self):
        cat = Catalog()
        cat.add_rows("T", [])
        with pytest.raises(CatalogError):
            cat.add_rows("T", [])

    def test_unknown_table(self):
        with pytest.raises(CatalogError, match="unknown table"):
            Catalog().table("NOPE")

    def test_row_types_mapping(self):
        cat = Catalog()
        cat.add_rows("T", [Tup(a=1)])
        assert cat.row_types() == {"T": TupleType({"a": INT})}

    def test_schema_validation_on_add(self):
        cat = Catalog(company_schema())
        with pytest.raises(ValidationError):
            cat.add_rows("EMP", [Tup(name="x")])  # missing attributes

    def test_schema_declares_row_type(self):
        cat = Catalog(company_schema())
        addr = Tup(street="s", nr="1", city="c")
        emp = Tup(name="e", address=addr, sal=1000, children=frozenset())
        cat.add_rows("EMP", [emp])
        assert "children" in cat["EMP"].row_type.fields

    def test_works_as_eval_table_mapping(self):
        from repro.lang.eval import evaluate
        from repro.lang.parser import parse

        cat = Catalog()
        cat.add_rows("T", [Tup(a=1), Tup(a=2)])
        assert evaluate(parse("SELECT t.a FROM T t"), tables=cat) == frozenset({1, 2})
