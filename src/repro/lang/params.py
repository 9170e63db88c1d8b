"""Query parameters: the values bound to ``$name`` for one execution.

A parameter is part of the language (:class:`repro.lang.ast.Param`), not a
text substitution: a parameterised text parses, plans and compiles once,
and every execution reads its values from the binding installed here.
The binding travels the way the cancel token does
(:mod:`repro.engine.cancel`): a thread-local scope, so no operator
signature carries it and concurrent service workers each see their own.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Mapping

from repro.errors import NameError_
from repro.model.types import Type, type_of_value
from repro.model.values import make_value

__all__ = ["bind_values", "param_scope", "param_value", "param_signature"]

_local = threading.local()


def bind_values(params: Mapping[str, object] | None) -> dict[str, Any]:
    """*params* as model values (plain dicts, lists and sets are coerced)."""
    if not params:
        return {}
    return {name: make_value(value) for name, value in params.items()}


@contextmanager
def param_scope(params: Mapping[str, Any]):
    """Install bound *params* for the current thread for the block.

    Scopes nest: the previous binding (if any) is restored on exit.
    """
    previous = getattr(_local, "params", None)
    _local.params = params
    try:
        yield params
    finally:
        _local.params = previous


def param_value(name: str) -> Any:
    """The value bound to ``$name`` in this thread's scope."""
    try:
        return _local.params[name]
    except (AttributeError, KeyError, TypeError):
        raise NameError_(f"unbound query parameter ${name}") from None


def param_signature(names: tuple[str, ...], params: Mapping[str, Any] | None) -> tuple[Type, ...]:
    """The types bound to *names*, in order; raises for an unbound name."""
    params = params or {}
    for name in names:
        if name not in params:
            raise NameError_(f"unbound query parameter ${name}")
    return tuple(type_of_value(params[name]) for name in names)
