"""Every specialisation of the closure compiler against the interpreter.

The compiler decides once per expression what the interpreter decides per
row (the attribute walk, the tuple construction path, a quantifier's
invariant side, the operator and its error text). Each decision must leave
the observable behaviour alone: the same value, or the same exception type
with the same message, raised in the same order. Random expressions built
from leaves that succeed, fail, hold NULL or NaN, or are not model values at
all check that; the named cases below pin the corners one by one.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import Batch
from repro.lang.ast import (
    Agg,
    AggFunc,
    Arith,
    ArithOp,
    Attr,
    Cmp,
    CmpOp,
    Quant,
    QuantKind,
    SetOp,
    SetOpKind,
    TupleExpr,
)
from repro.lang.compile import compile_expr
from repro.lang.eval import Env, evaluate
from repro.lang.parser import parse
from repro.model.values import NULL, Tup, value_repr

NAN = float("nan")
TABLES = {"T": frozenset({Tup(f=1), Tup(f=2)})}


def outcome(run):
    """``("value", type, value)`` or ``("error", type, message)``."""
    try:
        value = run()
    except Exception as exc:  # every exception type is part of the contract
        return ("error", type(exc), str(exc))
    return ("value", type(value), value)


def same(a, b) -> bool:
    if a[:2] != b[:2]:
        return False
    if a[0] == "error":
        return a[2] == b[2]
    # NaN is unequal to itself; a NaN answer must still be a NaN answer.
    return a[2] == b[2] or value_repr(a[2]) == value_repr(b[2])


def assert_parity(expr, env):
    expected = outcome(lambda: evaluate(expr, Env(env), TABLES))
    actual = outcome(lambda: compile_expr(expr)(dict(env), TABLES))
    assert same(actual, expected), (expr, expected, actual)
    return expected


def env_with(f=1, g=2):
    return {
        "x": Tup(f=f, g=g),
        "s": frozenset({1, 2, 3}),
        "ts": frozenset({Tup(f=1), Tup(f=2), Tup(f=NAN)}),
        "l": (1, 2, 2),
        "n": NULL,
        "nan": NAN,
        "bad": [1, 2],  # not a model value
    }


# -- random expressions --------------------------------------------------------

LEAVES = [
    parse(src)
    for src in (
        "x.f", "x.g", "x.missing", "x.f.g", "x", "v", "v.f", "v.missing",
        "NULL", "n", "nan", "1", "2.5", "'s'", "1 / 0", "s", "ts", "l", "{}",
        "bad", "unbound", "T",
    )
]
DOMAINS = [parse(src) for src in ("s", "ts", "l", "{}", "1", "x.f", "T", "x.missing")]
FIELD_VALUES = st.sampled_from([1, 2.5, NAN, NULL, "s", frozenset({1}), Tup(f=1)])


def _compose(children):
    pair = st.tuples(children, children)
    return st.one_of(
        st.builds(lambda op, lr: Cmp(op, *lr), st.sampled_from(list(CmpOp)), pair),
        st.builds(Agg, st.sampled_from(list(AggFunc)), children),
        st.builds(lambda op, lr: Arith(op, *lr), st.sampled_from(list(ArithOp)), pair),
        st.builds(lambda op, lr: SetOp(op, *lr), st.sampled_from(list(SetOpKind)), pair),
        st.builds(Attr, children, st.sampled_from(["f", "g"])),
        st.lists(children, min_size=1, max_size=3).map(
            lambda items: TupleExpr(tuple(zip("abc", items)))
        ),
        # The hoisting shape (R without v) and its non-hoisted mirror both
        # come up: the leaves mention v about one time in five.
        st.builds(
            lambda kind, domain, lr: Quant(kind, "v", domain, Cmp(CmpOp.EQ, *lr)),
            st.sampled_from(list(QuantKind)),
            st.sampled_from(DOMAINS),
            pair,
        ),
        st.builds(
            lambda kind, domain, pred: Quant(kind, "v", domain, pred),
            st.sampled_from(list(QuantKind)),
            st.sampled_from(DOMAINS),
            children,
        ),
    )


EXPRS = st.recursive(st.sampled_from(LEAVES), _compose, max_leaves=8)


@settings(max_examples=600, deadline=None)
@given(expr=EXPRS, f=FIELD_VALUES, g=FIELD_VALUES)
def test_random_expressions_match_the_interpreter(expr, f, g):
    assert_parity(expr, env_with(f, g))


# -- the named corners ---------------------------------------------------------

HOISTED = [
    # empty domain: neither side is evaluated, so a raising R raises nothing
    ("EXISTS v IN {} (v.f = 1 / 0)", ("value", False)),
    ("FORALL v IN {} (v.f = x.missing)", ("value", True)),
    # L raises on the first member, before R is ever evaluated
    ("EXISTS v IN ts (v.missing = 1 / 0)", ("error", "tuple has no attribute 'missing'; has ['f']")),
    # R raises right after the first L
    ("EXISTS v IN ts (v.f = 1 / 0)", ("error", "division by zero")),
    ("FORALL v IN ts (v.f = x.missing)", ("error", "tuple has no attribute 'missing'; has ['f', 'g']")),
    # R evaluated once still answers for every member
    ("EXISTS v IN ts (v.f = x.f)", ("value", True)),
    ("FORALL v IN s (v = x.f)", ("value", False)),
    ("FORALL v IN {1} (v = x.f)", ("value", True)),
    # NULL = NULL holds, also hoisted
    ("EXISTS v IN {NULL, 3} (v = NULL)", ("value", True)),
    ("FORALL v IN s (NULL = n)", ("value", True)),
    ("EXISTS v IN s (v = n)", ("value", False)),
    # a list domain, duplicates and all
    ("FORALL v IN l (v = 2)", ("value", False)),
]


@pytest.mark.parametrize("src,expected", HOISTED, ids=[src for src, _ in HOISTED])
def test_hoisted_quantifier_side(src, expected):
    got = assert_parity(parse(src), env_with())
    assert got[0] == expected[0]
    assert got[2] == expected[1]


def test_nan_field_compares_by_identity_like_dict_equality():
    # dict.__eq__ treats an object as equal to itself, NaN included; so two
    # tuples built from the same NaN field are equal, in both evaluators.
    env = env_with(f=NAN)
    for src in (
        "(a = x.f) = (a = x.f)",
        "(a = x.f, b = x.g) = (a = x.f, b = x.g)",
        "(a = x.f) <> (a = x.f)",
        "EXISTS v IN {x} ((a = v.f) = (a = x.f))",
        "x.f = x.f",
        "x.f = nan",
    ):
        assert_parity(parse(src), env)
    assert evaluate(parse("(a = x.f) = (a = x.f)"), Env(env)) is True
    assert evaluate(parse("x.f = x.f"), Env(env)) is False


@pytest.mark.parametrize(
    "src,expected",
    [
        ("COUNT(s)", ("value", 3)),
        ("COUNT(l)", ("value", 3)),
        ("COUNT({})", ("value", 0)),
        ("COUNT(x.f)", ("error", "count operand is not a collection: 1")),
        ("COUNT(bad)", ("error", "count operand is not a collection: [1, 2]")),
        ("SUM(l)", ("value", 5)),
        ("MIN(x.f)", ("error", "min operand is not a collection: 1")),
        ("MAX({})", ("error", "max of an empty collection is undefined")),
    ],
)
def test_aggregates(src, expected):
    got = assert_parity(parse(src), env_with())
    assert (got[0], got[2]) == expected


@pytest.mark.parametrize(
    "src,message",
    [
        ("x.f SUBSETEQ s", "subseteq operand requires a set, got 1"),
        ("s SUBSETEQ x.f", "subseteq operand requires a set, got 1"),
        ("l SUPSET s", "supset operand requires a set, got (1, 2, 2)"),
        # both sides are evaluated before either is checked
        ("x.f SUBSET x.missing", "tuple has no attribute 'missing'; has ['f', 'g']"),
        # set operations check the left side before evaluating the right
        ("x.f UNION x.missing", "set operation requires a set, got 1"),
        ("1 < 'a'", "cannot order 1 against 'a'"),
        ("1 < s", "ordering comparison requires numbers or strings, got 1 and frozenset({1, 2, 3})"),
    ],
)
def test_inclusion_and_ordering_on_the_wrong_kinds(src, message):
    got = assert_parity(parse(src), env_with())
    assert got[0] == "error" and got[2] == message


@pytest.mark.parametrize(
    "src",
    ["(a = bad)", "(a = 1, b = bad)", "(a = bad, b = x.missing)", "(a = 1, b = 2, c = bad)"],
)
def test_non_model_value_in_a_tuple_constructor(src):
    got = assert_parity(parse(src), env_with())
    assert got[0] == "error"


def test_three_evaluators_raise_one_attribute_message():
    tables: dict = {}
    for src, value, message in [
        ("x.q", Tup(a=1), "tuple has no attribute 'q'; has ['a']"),
        ("x.a.q", Tup(a=Tup(b=1)), "tuple has no attribute 'q'; has ['b']"),
        ("x.q", 3, "attribute access .q on non-tuple 3"),
        ("x.a.q", Tup(a=frozenset()), "attribute access .q on non-tuple frozenset()"),
    ]:
        expr = parse(src)
        raised = [
            outcome(lambda: evaluate(expr, Env({"x": value}), tables)),
            outcome(lambda: compile_expr(expr)({"x": value}, tables)),
            outcome(lambda: Batch({"x": [value]}, 1).getter(expr, tables)(0)),
        ]
        assert {r[2] for r in raised} == {message}, (src, raised)
        assert {r[1].__name__ for r in raised} == {"ExecutionError"}


def test_attribute_of_a_computed_base_keeps_the_generic_walk():
    # ``(a = x).a.f`` is not rooted at a variable: the step-by-step
    # attribute closure handles it, with the same errors.
    env = env_with()
    for src in ("(a = x).a.f", "(a = x).b", "(a = 1).a.f"):
        assert_parity(parse(src), env)


def test_tables_and_unbound_names():
    env = env_with()
    for src in ("COUNT(T)", "EXISTS v IN T (v.f = x.f)", "unbound.f", "T.f"):
        assert_parity(parse(src), env)
    assert math.isnan(compile_expr(parse("nan"))(env, TABLES))
