"""Request shapes and parameter binding.

Parameters are values of the language, bound per execution: nothing is
ever spliced into the query text.
"""

import pytest

from repro import Catalog, Tup, prepared, run_query
from repro.core.pipeline import clear_plan_cache
from repro.errors import NameError_, ValueModelError
from repro.lang.params import bind_values
from repro.server.request import QueryRequest, QueryResponse


@pytest.fixture
def catalog():
    clear_plan_cache()
    cat = Catalog()
    cat.add_rows("R", [Tup(a=i, n=f"n{i}") for i in range(10)])
    cat.add_rows("E", [Tup(name="pay $usd", k=1), Tup(name="o'clock", k=3)])
    cat.add_rows("N", [Tup(n="$k", a=3), Tup(n="3", a=3)])
    return cat


class TestBindParams:
    def test_no_params_passthrough(self, catalog):
        assert bind_values(None) == {}
        text = "SELECT r FROM R r WHERE r.a < 3"
        assert prepared(text, catalog).execute(catalog) == run_query(text, catalog).value

    def test_substitution(self, catalog):
        value = run_query("SELECT r FROM R r WHERE r.a = $key", catalog, params={"key": 7}).value
        assert value == run_query("SELECT r FROM R r WHERE r.a = 7", catalog).value
        assert len(value) == 1

    def test_multiple_and_repeated(self, catalog):
        text = "SELECT $a + $b + $a FROM R r WHERE r.a = 0"
        assert run_query(text, catalog, params={"a": 1, "b": 2}).value == frozenset({4})

    def test_unbound_raises(self, catalog):
        with pytest.raises(NameError_, match=r"unbound query parameter \$key"):
            run_query("SELECT r FROM R r WHERE r.a = $key", catalog, params={})
        with pytest.raises(NameError_, match="unbound"):
            prepared("SELECT r FROM R r WHERE r.a = $key", catalog)

    def test_unused_params_ignored(self, catalog):
        text = "SELECT r FROM R r"
        assert run_query(text, catalog, params={"x": 1}).value == run_query(text, catalog).value

    def test_string_param_round_trips_through_parser(self, catalog):
        text = "SELECT e.k FROM E e WHERE e.name = $n"
        assert run_query(text, catalog, params={"n": "o'clock"}).value == frozenset({3})

    def test_values_are_coerced_to_model_values(self):
        assert bind_values({"s": {1, 2}, "l": [1], "t": {"a": 1}}) == {
            "s": frozenset({1, 2}),
            "l": (1,),
            "t": Tup(a=1),
        }
        with pytest.raises(ValueModelError):
            bind_values({"x": object()})


class TestDollarInsideLiterals:
    """``$word`` inside a string literal is plain text, not a parameter."""

    def test_literal_dollar_needs_no_binding(self, catalog):
        text = "SELECT e.k FROM E e WHERE e.name = 'pay $usd'"
        assert run_query(text, catalog).value == frozenset({1})
        assert prepared(text, catalog).execute(catalog) == frozenset({1})

    def test_literal_dollar_is_not_substituted(self, catalog):
        # Textual binding turned '$k' into '3' and matched the row named "3";
        # only the parameter binds.
        text = "SELECT r.n FROM N r WHERE r.n = '$k' AND r.a = $k"
        for engine in ("interpret", "logical", "physical"):
            value = run_query(text, catalog, engine=engine, params={"k": 3}).value
            assert value == frozenset({"$k"}), engine


class TestShapes:
    def test_request_ids_unique(self):
        a, b = QueryRequest("SELECT r FROM R r"), QueryRequest("SELECT r FROM R r")
        assert a.request_id != b.request_id

    def test_response_ok_and_dict(self):
        response = QueryResponse("q1", "ok", value=frozenset({1}), catalog_version=9)
        assert response.ok
        d = response.to_dict()
        assert d["rows"] == 1
        assert d["catalog_version"] == 9
        assert not QueryResponse("q2", "timeout").ok
