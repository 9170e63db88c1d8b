"""Unit tests for the static type checker."""

import pytest

from repro.errors import TypeCheckError
from repro.lang.parser import parse
from repro.lang.typing import TypeEnv, type_of
from repro.model.types import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    ListType,
    SetType,
    TupleType,
)


X_ROW = TupleType({"a": INT, "b": STRING, "s": SetType(INT)})
Y_ROW = TupleType({"a": INT, "c": FLOAT})


@pytest.fixture
def env():
    return TypeEnv.with_tables({"X": X_ROW, "Y": Y_ROW})


def t(src, env):
    return type_of(parse(src), env)


class TestLiteralsAndVars:
    def test_constants(self, env):
        assert t("1", env) == INT
        assert t("1.5", env) == FLOAT
        assert t("'s'", env) == STRING
        assert t("TRUE", env) == BOOL

    def test_table_reference_is_a_set_of_rows(self, env):
        assert t("X", env) == SetType(X_ROW)

    def test_unbound_variable(self, env):
        with pytest.raises(TypeCheckError, match="unbound"):
            t("ghost", env)

    def test_set_literal_unifies_elements(self, env):
        assert t("{1, 2.5}", env) == SetType(FLOAT)

    def test_heterogeneous_set_rejected(self, env):
        with pytest.raises(TypeCheckError):
            t("{1, 's'}", env)

    def test_tuple_and_list(self, env):
        assert t("(a = 1, b = 's')", env) == TupleType({"a": INT, "b": STRING})
        assert t("[1, 2]", env) == ListType(INT)


class TestAttributes:
    def test_attribute_path(self, env):
        env2 = env.bind("x", X_ROW)
        assert t("x.a", env2) == INT
        assert t("x.s", env2) == SetType(INT)

    def test_missing_attribute(self, env):
        env2 = env.bind("x", X_ROW)
        with pytest.raises(TypeCheckError, match="no field"):
            t("x.zzz", env2)

    def test_attribute_on_scalar(self, env):
        with pytest.raises(TypeCheckError, match="non-tuple"):
            t("(1 + 2).a", env)


class TestPredicates:
    def test_comparison_types(self, env):
        env2 = env.bind("x", X_ROW).bind("y", Y_ROW)
        assert t("x.a = y.a", env2) == BOOL
        assert t("x.a < y.c", env2) == BOOL  # INT vs FLOAT fine

    def test_incompatible_equality(self, env):
        env2 = env.bind("x", X_ROW)
        with pytest.raises(TypeCheckError):
            t("x.a = x.b", env2)

    def test_ordering_requires_order(self, env):
        env2 = env.bind("x", X_ROW)
        with pytest.raises(TypeCheckError):
            t("x.s < x.s", env2)

    def test_membership(self, env):
        env2 = env.bind("x", X_ROW)
        assert t("x.a IN x.s", env2) == BOOL
        with pytest.raises(TypeCheckError):
            t("x.b IN x.s", env2)

    def test_inclusion_over_sets_only(self, env):
        env2 = env.bind("x", X_ROW)
        assert t("x.s SUBSETEQ x.s", env2) == BOOL
        with pytest.raises(TypeCheckError):
            t("x.a SUBSETEQ x.s", env2)

    def test_boolean_connectives_demand_booleans(self, env):
        with pytest.raises(TypeCheckError):
            t("1 AND 2 = 2", env)


class TestAggregatesAndQuantifiers:
    def test_count_is_int(self, env):
        assert t("COUNT(X)", env) == INT

    def test_sum_preserves_numeric(self, env):
        env2 = env.bind("x", X_ROW)
        assert t("SUM(x.s)", env2) == INT
        assert t("AVG(x.s)", env2) == FLOAT

    def test_sum_over_strings_rejected(self, env):
        with pytest.raises(TypeCheckError):
            t("SUM({'a'})", env)

    def test_min_over_strings_allowed(self, env):
        assert t("MIN({'a', 'b'})", env) == STRING

    def test_quantifier_binds_element(self, env):
        assert t("EXISTS x IN X (x.a = 1)", env) == BOOL

    def test_quantifier_pred_must_be_boolean(self, env):
        with pytest.raises(TypeCheckError):
            t("EXISTS x IN X (x.a)", env)

    def test_quantifier_domain_must_be_collection(self, env):
        with pytest.raises(TypeCheckError):
            t("EXISTS v IN 1 (TRUE)", env)


class TestSFWTyping:
    def test_result_type_is_set_of_select(self, env):
        assert t("SELECT x.a FROM X x", env) == SetType(INT)

    def test_nested_select_clause(self, env):
        q = "SELECT (a = x.a, ys = (SELECT y.c FROM Y y WHERE y.a = x.a)) FROM X x"
        assert t(q, env) == SetType(
            TupleType({"a": INT, "ys": SetType(FLOAT)})
        )

    def test_where_must_be_boolean(self, env):
        with pytest.raises(TypeCheckError):
            t("SELECT x FROM X x WHERE x.a + 1", env)

    def test_from_over_set_valued_attribute(self, env):
        assert t("SELECT v FROM x.s v", env.bind("x", X_ROW)) == SetType(INT)

    def test_unnest_collapses_one_level(self, env):
        q = "UNNEST(SELECT (SELECT y.a FROM Y y WHERE y.a = x.a) FROM X x)"
        assert t(q, env) == SetType(INT)

    def test_unnest_needs_set_of_sets(self, env):
        with pytest.raises(TypeCheckError):
            t("UNNEST(X)", env)

    def test_arith_result_types(self, env):
        assert t("1 + 2", env) == INT
        assert t("1 + 2.0", env) == FLOAT
        assert t("4 / 2", env) == FLOAT
        assert t("'a' + 'b'", env) == STRING


class TestParameters:
    def test_a_parameter_has_the_type_of_its_binding(self):
        env = TypeEnv.with_tables({"X": X_ROW}, params={"k": INT, "s": STRING})
        assert t("$k + 1", env) == INT
        assert t("SELECT x FROM X x WHERE x.a = $k AND x.b = $s", env) == SetType(X_ROW)
        # The binding reaches nested scopes too.
        assert t("SELECT (SELECT $s FROM X y) FROM X x", env) == SetType(SetType(STRING))

    def test_mistyped_binding_is_a_type_error(self):
        env = TypeEnv.with_tables({"X": X_ROW}, params={"k": STRING})
        with pytest.raises(TypeCheckError):
            t("SELECT x FROM X x WHERE x.a = $k", env)

    def test_unbound_parameter(self, env):
        from repro.errors import NameError_

        with pytest.raises(NameError_, match=r"unbound query parameter \$k"):
            t("SELECT x FROM X x WHERE x.a = $k", env)
