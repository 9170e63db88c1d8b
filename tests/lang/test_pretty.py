"""Round-trip tests for the unparser: parse(pretty(e)) == e."""

import pytest

from repro.lang.parser import parse
from repro.lang.pretty import pretty

ROUND_TRIP_SOURCES = [
    "1",
    "1.5",
    "'a string'",
    "TRUE",
    "FALSE",
    "NULL",
    "{}",
    "{1, 2}",
    "[1, 2]",
    "(a = 1, b = x.c)",
    "x.a",
    "d.address.city",
    "x.a = 1",
    "x.a <> y.b",
    "x.a <= y.b AND x.c > 0",
    "a.p OR b.q AND NOT c.r",
    "1 + 2 * 3",
    "-(x.a)",
    "x.a IN z",
    "x.a NOT IN z",
    "x.s SUBSETEQ z",
    "x.s SUPSET z",
    "a UNION b INTERSECT c",
    "a DIFF b",
    "COUNT(z)",
    "SUM(x.s) + MIN(x.s)",
    "AVG({1, 2})",
    "EXISTS v IN z (v = x.a)",
    "FORALL w IN x.a (w IN z)",
    "NOT (EXISTS v IN z (TRUE))",
    "SELECT x FROM X x",
    "SELECT x.a FROM X x WHERE x.b = 1",
    "SELECT x FROM X x WHERE x.b IN (SELECT y.d FROM Y y WHERE x.c = y.c)",
    "SELECT (a = x.a, ys = (SELECT y FROM Y y WHERE y.a = x.a)) FROM X x",
    "UNNEST(SELECT (SELECT y.b FROM Y y WHERE x.b = y.a) FROM X x)",
    "x.b = COUNT(SELECT s FROM S s WHERE r.c = s.c)",
    "<ok: 1>",
    "<err: x.a + 1>",
    "<ok: (x.a = 1)>",
    "$key",
    "x.a = $key AND 'pay $usd' = x.n",
    "COUNT(SELECT s FROM S s WHERE r.c = s.c) = $n",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip(src):
    e = parse(src)
    assert parse(pretty(e)) == e


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_pretty_is_stable(src):
    e = parse(src)
    assert pretty(parse(pretty(e))) == pretty(e)


def test_parameter_prints_as_dollar_name():
    assert pretty(parse("x.a=$key")) == "x.a = $key"


def test_string_escaping_round_trips():
    e = parse("'it\\'s'")
    assert parse(pretty(e)) == e


def test_const_set_rendering_is_sorted():
    assert pretty(parse("{3, 1, 2}")) == "{3, 1, 2}"  # literal order kept for SetExpr
    from repro.lang.ast import Const

    assert pretty(Const(frozenset({3, 1, 2}))) == "{1, 2, 3}"  # constants sorted
