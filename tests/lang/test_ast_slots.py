"""Every node class names its child slots, and they are all its sub-expressions.

``children``, ``walk``, ``transform`` and ``substitute`` visit only the slots
a class records when the module loads. A field holding expressions that is
missing from them would be skipped without a sound, so the slots are checked
here against the dataclass fields' resolved types, and the traversal against
a reflection over the field values.
"""

import dataclasses
import typing

import pytest

import repro  # noqa: F401  (load every module that might define a node)
from repro.lang import ast
from repro.lang.ast import Expr, Var, children, transform, walk


def node_classes(base=Expr):
    for cls in base.__subclasses__():
        yield cls
        yield from node_classes(cls)


def holds_expressions(hint) -> bool:
    """Whether a field of type *hint* can hold an ``Expr``, at any depth."""
    if isinstance(hint, type):
        return issubclass(hint, Expr)
    return any(holds_expressions(arg) for arg in typing.get_args(hint) if arg is not Ellipsis)


CLASSES = sorted(node_classes(), key=lambda cls: cls.__name__)


def test_every_node_class_is_covered():
    assert {cls.__name__ for cls in CLASSES} >= {"Const", "Cmp", "SFW", "TupleExpr", "Quant"}
    assert set(SAMPLES) == set(CLASSES), "add a sample for each new node class"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_child_slots_are_exactly_the_expression_fields(cls):
    hints = typing.get_type_hints(cls, vars(ast))
    fields = dataclasses.fields(cls)
    assert cls._field_names == tuple(f.name for f in fields)
    expected = [(i, f.name) for i, f in enumerate(fields) if holds_expressions(hints[f.name])]
    assert [(i, name) for i, name, _kind in cls._child_slots] == expected


def reflected_children(expr):
    """Sub-expressions found by looking at every field value."""
    out = []
    for f in dataclasses.fields(expr):
        value = getattr(expr, f.name)
        if isinstance(value, Expr):
            out.append(value)
        elif isinstance(value, tuple):
            for item in value:
                out.extend(x for x in (item if isinstance(item, tuple) else (item,)) if isinstance(x, Expr))
    return tuple(out)


def v(name):
    return Var(name)


SAMPLES = {
    ast.Const: ast.Const(1),
    ast.Param: ast.Param("p"),
    ast.Var: v("a"),
    ast.Attr: ast.Attr(v("a"), "l"),
    ast.TupleExpr: ast.TupleExpr((("x", v("a")), ("y", v("b")))),
    ast.SetExpr: ast.SetExpr((v("a"), v("b"))),
    ast.ListExpr: ast.ListExpr((v("a"), v("b"))),
    ast.VariantExpr: ast.VariantExpr("ok", v("a")),
    ast.Not: ast.Not(v("a")),
    ast.And: ast.And((v("a"), v("b"))),
    ast.Or: ast.Or((v("a"), v("b"))),
    ast.Cmp: ast.Cmp(ast.CmpOp.EQ, v("a"), v("b")),
    ast.Arith: ast.Arith(ast.ArithOp.ADD, v("a"), v("b")),
    ast.Neg: ast.Neg(v("a")),
    ast.SetOp: ast.SetOp(ast.SetOpKind.UNION, v("a"), v("b")),
    ast.Agg: ast.Agg(ast.AggFunc.COUNT, v("a")),
    ast.Quant: ast.Quant(ast.QuantKind.EXISTS, "q", v("a"), v("b")),
    ast.SFW: ast.SFW(v("a"), "s", v("b"), v("c")),
    ast.UnnestExpr: ast.UnnestExpr(v("a")),
    ast.TagOf: ast.TagOf(v("a")),
    ast.PayloadOf: ast.PayloadOf(v("a")),
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_traversal_reaches_every_sub_expression(cls):
    node = SAMPLES[cls]
    kids = reflected_children(node)
    assert children(node) == kids
    assert list(walk(node)) == [node, *kids]
    renamed = transform(node, lambda e: Var(e.name + "'") if isinstance(e, Var) else e)
    if kids:
        assert children(renamed) == tuple(Var(k.name + "'") for k in kids)
        assert type(renamed) is cls


def test_optional_where_is_skipped_when_absent():
    block = ast.SFW(v("a"), "s", v("b"))
    assert children(block) == (v("a"), v("b"))
    assert transform(block, lambda e: e) is block
