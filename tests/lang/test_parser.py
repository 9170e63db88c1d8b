"""Unit tests for the recursive-descent parser."""

import pytest

from repro.errors import ParseError
from repro.lang.ast import (
    SFW,
    Agg,
    AggFunc,
    And,
    Arith,
    ArithOp,
    Attr,
    Cmp,
    CmpOp,
    Const,
    ListExpr,
    Neg,
    Not,
    Or,
    Quant,
    QuantKind,
    SetExpr,
    SetOp,
    SetOpKind,
    TupleExpr,
    UnnestExpr,
    Var,
)
from repro.lang.parser import parse, parse_query
from repro.model.values import NULL


def attr(*path):
    expr = Var(path[0])
    for label in path[1:]:
        expr = Attr(expr, label)
    return expr


class TestLiterals:
    def test_numbers_and_strings(self):
        assert parse("42") == Const(42)
        assert parse("3.5") == Const(3.5)
        assert parse("'hi'") == Const("hi")

    def test_parameters(self):
        from repro.lang.ast import Param, param_names

        assert parse("$key") == Param("key")
        expr = parse("x.a = $k AND $j < x.b AND x.n = '$s' AND x.c = $k")
        assert param_names(expr) == ("j", "k")

    def test_booleans_and_null(self):
        assert parse("TRUE") == Const(True)
        assert parse("false") == Const(False)
        assert parse("NULL") == Const(NULL)

    def test_set_and_list_literals(self):
        assert parse("{1, 2}") == SetExpr((Const(1), Const(2)))
        assert parse("{}") == SetExpr(())
        assert parse("[1, 2]") == ListExpr((Const(1), Const(2)))
        assert parse("[]") == ListExpr(())

    def test_tuple_constructor(self):
        assert parse("(a = 1, b = x.c)") == TupleExpr(
            (("a", Const(1)), ("b", attr("x", "c")))
        )


class TestOperators:
    def test_attribute_paths(self):
        assert parse("d.address.city") == attr("d", "address", "city")

    def test_comparisons(self):
        assert parse("x.a = 1") == Cmp(CmpOp.EQ, attr("x", "a"), Const(1))
        assert parse("x.a <> 1") == Cmp(CmpOp.NE, attr("x", "a"), Const(1))
        assert parse("x.a != 1") == Cmp(CmpOp.NE, attr("x", "a"), Const(1))
        assert parse("x.a <= y.b") == Cmp(CmpOp.LE, attr("x", "a"), attr("y", "b"))

    def test_membership(self):
        assert parse("x.a IN z") == Cmp(CmpOp.IN, attr("x", "a"), Var("z"))
        assert parse("x.a NOT IN z") == Cmp(CmpOp.NOT_IN, attr("x", "a"), Var("z"))

    def test_set_inclusion_keywords(self):
        assert parse("x.a SUBSETEQ z") == Cmp(CmpOp.SUBSETEQ, attr("x", "a"), Var("z"))
        assert parse("x.a SUPSET z") == Cmp(CmpOp.SUPSET, attr("x", "a"), Var("z"))

    def test_boolean_precedence(self):
        e = parse("a.p OR b.q AND NOT c.r")
        assert e == Or((attr("a", "p"), And((attr("b", "q"), Not(attr("c", "r"))))))

    def test_arithmetic_precedence(self):
        e = parse("1 + 2 * 3")
        assert e == Arith(ArithOp.ADD, Const(1), Arith(ArithOp.MUL, Const(2), Const(3)))

    def test_unary_minus(self):
        assert parse("-x.a") == Neg(attr("x", "a"))

    def test_set_operators(self):
        assert parse("a UNION b") == SetOp(SetOpKind.UNION, Var("a"), Var("b"))
        assert parse("a INTERSECT b") == SetOp(SetOpKind.INTERSECT, Var("a"), Var("b"))
        assert parse("a DIFF b") == SetOp(SetOpKind.DIFF, Var("a"), Var("b"))

    def test_intersect_binds_tighter_than_union(self):
        e = parse("a UNION b INTERSECT c")
        assert e == SetOp(
            SetOpKind.UNION, Var("a"), SetOp(SetOpKind.INTERSECT, Var("b"), Var("c"))
        )

    def test_aggregates(self):
        assert parse("COUNT(z)") == Agg(AggFunc.COUNT, Var("z"))
        assert parse("SUM(x.a)") == Agg(AggFunc.SUM, attr("x", "a"))

    def test_unnest(self):
        assert parse("UNNEST(z)") == UnnestExpr(Var("z"))

    def test_variant_constructor(self):
        from repro.lang.ast import VariantExpr

        assert parse("<ok: 1>") == VariantExpr("ok", Const(1))
        assert parse("<err: x.a + 1>") == VariantExpr(
            "err", Arith(ArithOp.ADD, attr("x", "a"), Const(1))
        )
        assert parse("<ok: (x.a = 1)>") == VariantExpr(
            "ok", Cmp(CmpOp.EQ, attr("x", "a"), Const(1))
        )

    def test_variant_does_not_clash_with_less_than(self):
        assert parse("x.a < b") == Cmp(CmpOp.LT, attr("x", "a"), Var("b"))
        assert parse("x.a < b.c") == Cmp(CmpOp.LT, attr("x", "a"), attr("b", "c"))


class TestQuantifiers:
    def test_exists(self):
        e = parse("EXISTS v IN z (v = x.a)")
        assert e == Quant(
            QuantKind.EXISTS, "v", Var("z"), Cmp(CmpOp.EQ, Var("v"), attr("x", "a"))
        )

    def test_forall(self):
        e = parse("FORALL w IN x.a (w IN z)")
        assert e == Quant(
            QuantKind.FORALL, "w", attr("x", "a"), Cmp(CmpOp.IN, Var("w"), Var("z"))
        )


class TestSFW:
    def test_basic(self):
        e = parse_query("SELECT x FROM X x WHERE x.a = 1")
        assert e == SFW(Var("x"), "x", Var("X"), Cmp(CmpOp.EQ, attr("x", "a"), Const(1)))

    def test_no_where(self):
        e = parse_query("SELECT x.a FROM X x")
        assert e.where is None

    def test_nested_in_where(self):
        e = parse_query(
            "SELECT x FROM X x WHERE x.b IN (SELECT y.d FROM Y y WHERE x.c = y.c)"
        )
        assert isinstance(e.where, Cmp)
        assert isinstance(e.where.right, SFW)

    def test_nested_in_select(self):
        e = parse_query(
            "SELECT (dname = d.name, emps = (SELECT e FROM EMP e WHERE e.c = d.c)) FROM DEPT d"
        )
        assert isinstance(e.select, TupleExpr)
        assert isinstance(e.select.fields[1][1], SFW)

    def test_with_clause_is_substituted(self):
        e = parse_query(
            "SELECT x FROM X x WHERE x.a SUBSETEQ z "
            "WITH z = SELECT y.a FROM Y y WHERE x.b = y.b"
        )
        assert isinstance(e.where, Cmp)
        assert e.where.op == CmpOp.SUBSETEQ
        assert isinstance(e.where.right, SFW)

    def test_with_clause_multiple_bindings_chain(self):
        e = parse_query(
            "SELECT x FROM X x WHERE COUNT(z2) = 1 "
            "WITH z1 = (SELECT y FROM Y y WHERE y.a = x.a), z2 = z1"
        )
        assert isinstance(e.where.left.operand, SFW)

    def test_from_over_attribute_path(self):
        e = parse_query("SELECT e.name FROM d.emps e")
        assert e.source == attr("d", "emps")

    def test_paper_query_q1(self):
        text = """
            SELECT d FROM DEPT d
            WHERE (s = d.address.street, c = d.address.city)
                  IN (SELECT (s = e.address.street, c = e.address.city) FROM d.emps e)
        """
        e = parse_query(text)
        assert isinstance(e.where, Cmp) and e.where.op == CmpOp.IN
        assert isinstance(e.where.left, TupleExpr)
        assert isinstance(e.where.right, SFW)


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT FROM X x",
            "SELECT x FROM X",
            "1 +",
            "x.a IN",
            "(a = 1",
            "{1, }",
            "SELECT x FROM X x WHERE",
            "EXISTS v z (true)",
            "1 2",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_parse_query_requires_sfw(self):
        with pytest.raises(ParseError):
            parse_query("1 + 2")

    def test_error_carries_location(self):
        try:
            parse("1 +")
        except ParseError as exc:
            assert exc.line >= 1
        else:  # pragma: no cover
            pytest.fail("expected ParseError")

    @pytest.mark.parametrize("bad", ["1 '+' 2", "x $union y", "x.a 'in' y", "2 '*' 3", "1 \"=\" 1"])
    def test_operator_text_in_a_literal_is_no_operator(self, bad):
        # A string or parameter can spell an operator; only the kind tells.
        with pytest.raises(ParseError, match="trailing input"):
            parse(bad)
