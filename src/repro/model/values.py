"""The TM value model: immutable complex-object values.

TM values are built from four constructors over basic values (booleans,
integers, floats, strings):

* **tuples** — labelled records, represented by :class:`Tup`;
* **sets** — duplicate-free collections, represented by ``frozenset``;
* **lists** — ordered collections, represented by Python ``tuple``;
* **variants** — tagged values, represented by :class:`Variant`.

Everything is immutable and hashable, which is what makes *sets of tuples
with set-valued attributes* — the shape at the heart of the paper — well
defined: a ``frozenset`` of :class:`Tup` whose fields may themselves hold
``frozenset`` values.

The relational baselines (Kim's algorithm, the Ganski–Wong outerjoin fix)
additionally need a NULL marker for padding dangling tuples; :data:`NULL` is
that marker. The TM side of the library never produces NULLs — as the paper
stresses, in a complex object model the empty set represents "no matches"
directly.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ExecutionError, ValueModelError

__all__ = [
    "Tup",
    "Variant",
    "Null",
    "NULL",
    "VALUE_TYPES",
    "attr_of",
    "walk_path",
    "tup_of",
    "require_bool",
    "require_collection",
    "require_set",
    "require_number",
    "require_ordered",
    "make_value",
    "is_value",
    "value_repr",
]


class Null:
    """Singleton NULL marker used only by the relational baselines.

    Unlike SQL's three-valued logic, ``NULL == NULL`` holds here: the
    baselines only need NULL as a *pad value* for dangling tuples, and the
    simpler semantics keeps the demonstrations (COUNT bug and its fixes)
    easy to follow. NULL equals NULL and nothing else, so Python's ``==``
    on model values is the language's ``=`` as it stands.
    """

    _instance: "Null | None" = None

    def __new__(cls) -> "Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __hash__(self) -> int:
        return hash("repro.model.NULL")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null)

    def __reduce__(self):
        return (Null, ())


NULL = Null()


class Tup:
    """An immutable labelled tuple (record) value.

    Fields are label → value; equality and hashing are independent of field
    order, matching TM's tuple type semantics. Values must already be
    immutable model values (see :func:`make_value` for coercion from plain
    Python data).

    >>> t = Tup(a=1, b=frozenset({2, 3}))
    >>> t["a"]
    1
    >>> t.b == frozenset({2, 3})
    True
    >>> Tup(a=1, b=2) == Tup(b=2, a=1)
    True
    """

    __slots__ = ("_fields", "_hash")

    def __init__(self, _fields: Mapping[str, Any] | None = None, **kwargs: Any):
        fields: dict[str, Any] = {}
        if _fields is not None:
            fields.update(_fields)
        for label, value in kwargs.items():
            if label in fields:
                raise ValueModelError(f"duplicate tuple label {label!r}")
            fields[label] = value
        for label, value in fields.items():
            if not isinstance(label, str) or not label:
                raise ValueModelError(f"tuple labels must be non-empty strings, got {label!r}")
            if not is_value(value):
                raise ValueModelError(
                    f"field {label!r} holds a non-model value of type {type(value).__name__}; "
                    "use make_value() to coerce plain Python data"
                )
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_validated(cls, fields: dict) -> "Tup":
        """Construct from labels/values that are already known to be valid.

        The internal fast path for the engine's hot loops (scans, join
        tuple concatenation, projections): every field either comes from an
        existing ``Tup`` or was checked by the caller, so re-running the
        per-field label/value validation of ``__init__`` would only burn
        time. Takes ownership of *fields* — callers must pass a fresh dict.
        """
        t = object.__new__(cls)
        object.__setattr__(t, "_fields", fields)
        object.__setattr__(t, "_hash", None)
        return t

    # -- mapping protocol -------------------------------------------------
    def __getitem__(self, label: str) -> Any:
        try:
            return self._fields[label]
        except KeyError:
            raise KeyError(f"tuple has no attribute {label!r}; has {sorted(self._fields)}") from None

    def __getattr__(self, label: str) -> Any:
        # __getattr__ is only called when normal lookup fails, so _fields
        # and methods are never shadowed.
        try:
            return self._fields[label]
        except KeyError:
            raise AttributeError(f"tuple has no attribute {label!r}; has {sorted(self._fields)}") from None

    def __setattr__(self, label: str, value: Any) -> None:
        raise ValueModelError("Tup is immutable")

    def __contains__(self, label: str) -> bool:
        return label in self._fields

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def labels(self) -> tuple[str, ...]:
        """Field labels in insertion order."""
        return tuple(self._fields)

    def values(self) -> tuple[Any, ...]:
        """Field values in insertion order."""
        return tuple(self._fields.values())

    def items(self) -> tuple[tuple[str, Any], ...]:
        """(label, value) pairs in insertion order."""
        return tuple(self._fields.items())

    def get(self, label: str, default: Any = None) -> Any:
        return self._fields.get(label, default)

    def as_dict(self) -> dict[str, Any]:
        """A fresh plain dict copy of the fields."""
        return dict(self._fields)

    def as_env(self) -> dict[str, Any]:
        """The internal field dict, for read-only use as an environment.

        Hot paths (compiled predicate evaluation) use this to avoid a copy
        per tuple; callers must not mutate the returned dict.
        """
        return self._fields

    # -- functional updates -----------------------------------------------
    def extend(self, **kwargs: Any) -> "Tup":
        """Concatenation ``x ++ (a = v, ...)`` from the paper.

        Raises :class:`ValueModelError` if a new label collides with an
        existing one (the paper requires the nest-join label to be fresh).
        Only the *new* fields are validated; existing fields were already
        checked when this tuple was built.
        """
        fields = self._fields
        for label, value in kwargs.items():
            if label in fields:
                raise ValueModelError(f"label {label!r} already present; concatenation requires fresh labels")
            if not is_value(value):
                raise ValueModelError(
                    f"field {label!r} holds a non-model value of type {type(value).__name__}; "
                    "use make_value() to coerce plain Python data"
                )
        return Tup._from_validated({**fields, **kwargs})

    def concat(self, other: "Tup") -> "Tup":
        """Tuple concatenation ``self ++ other`` with disjoint labels.

        Both operands are already-validated tuples, so this only checks
        label disjointness — the hot path of every join's tuple merge.
        """
        sf = self._fields
        of = other._fields
        merged = {**sf, **of}
        if len(merged) != len(sf) + len(of):
            clash = sorted(set(sf) & set(of))
            raise ValueModelError(
                f"label {clash[0]!r} already present; concatenation requires fresh labels"
            )
        return Tup._from_validated(merged)

    def project(self, labels: Iterable[str]) -> "Tup":
        """Keep only the given labels (in the given order)."""
        return Tup._from_validated({label: self[label] for label in labels})

    def drop(self, *labels: str) -> "Tup":
        """Remove the given labels."""
        dropped = set(labels)
        return Tup._from_validated(
            {k: v for k, v in self._fields.items() if k not in dropped}
        )

    def replace(self, **kwargs: Any) -> "Tup":
        """Return a copy with existing fields replaced."""
        for label, value in kwargs.items():
            if label not in self._fields:
                raise ValueModelError(f"cannot replace missing label {label!r}")
            if not is_value(value):
                raise ValueModelError(
                    f"field {label!r} holds a non-model value of type {type(value).__name__}; "
                    "use make_value() to coerce plain Python data"
                )
        merged = dict(self._fields)
        merged.update(kwargs)
        return Tup._from_validated(merged)

    # -- equality / hashing -------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tup):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._fields.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={value_repr(v)}" for k, v in self._fields.items())
        return f"({inner})"

    def __reduce__(self):
        # Default pickling is unusable here: the slot-state restore path
        # goes through the raising __setattr__, and __getattr__ recurses
        # while _fields is still unset. Rebuild through the validated
        # fast path instead (fields came out of a valid tuple).
        return (_unpickle_tup, (dict(self._fields),))


def _unpickle_tup(fields: dict) -> "Tup":
    return Tup._from_validated(fields)


def attr_of(value: Any, label: str) -> Any:
    """``value.label``: the one attribute access of every evaluator.

    The interpreter, the closure compiler and the batch getters all read
    attributes through here, or through a direct ``_fields`` read that
    falls back here on any failure, so a missing label and a non-tuple
    base raise the same :class:`ExecutionError` text everywhere.
    """
    if isinstance(value, Tup):
        fields = value._fields
        if label in fields:
            return fields[label]
        raise ExecutionError(f"tuple has no attribute {label!r}; has {sorted(fields)}")
    raise ExecutionError(f"attribute access .{label} on non-tuple {value!r}")


def walk_path(value: Any, labels: Iterable[str]) -> Any:
    """``value.l1.l2…`` for *labels*, with :func:`attr_of`'s errors."""
    for label in labels:
        try:
            value = value._fields[label]
        except (AttributeError, KeyError, TypeError):
            value = attr_of(value, label)
    return value


def tup_of(fields: dict) -> "Tup":
    """A tuple over a fresh *fields* dict whose labels are already known valid.

    One ``isinstance`` per value instead of the constructor's full check;
    a non-model value raises the constructor's :class:`ValueModelError`.
    Takes ownership of *fields*, as :meth:`Tup._from_validated` does.
    """
    for v in fields.values():
        if not isinstance(v, VALUE_TYPES):
            return Tup(fields)  # raises
    return Tup._from_validated(fields)


# -- runtime checks of the expression language ------------------------------
# The interpreter and the closure compiler both check operand types through
# these, so a type error reads the same from either. Equality needs no
# helper: ``==`` is the language's equality (see :class:`Null`).


def require_bool(value: Any) -> bool:
    """*value* if it is a boolean, else :class:`ExecutionError`."""
    if not isinstance(value, bool):
        raise ExecutionError(f"expected boolean, got {value!r}")
    return value


def require_collection(value: Any, what: str) -> "frozenset | tuple":
    """*value* if it is a set or a list (the operand described by *what*)."""
    if isinstance(value, (frozenset, tuple)):
        return value
    raise ExecutionError(f"{what} is not a collection: {value!r}")


def require_set(value: Any, what: str) -> frozenset:
    """*value* if it is a set (the operand described by *what*)."""
    if isinstance(value, frozenset):
        return value
    raise ExecutionError(f"{what} requires a set, got {value!r}")


def require_number(value: Any, what: str) -> Any:
    """*value* if it is an int or a float — not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"{what} requires a number, got {value!r}")
    return value


def require_ordered(a: Any, b: Any) -> None:
    """Check that ``a`` and ``b`` are both numbers or both strings."""
    ok = (int, float, str)
    a_ok = isinstance(a, ok) and not isinstance(a, bool)
    b_ok = isinstance(b, ok) and not isinstance(b, bool)
    if not (a_ok and b_ok):
        raise ExecutionError(f"ordering comparison requires numbers or strings, got {a!r} and {b!r}")
    if isinstance(a, str) != isinstance(b, str):
        raise ExecutionError(f"cannot order {a!r} against {b!r}")


class Variant:
    """A tagged (variant/union) value: ``tag`` selects a case, ``value`` is its payload."""

    __slots__ = ("tag", "value")

    def __init__(self, tag: str, value: Any):
        if not isinstance(tag, str) or not tag:
            raise ValueModelError(f"variant tags must be non-empty strings, got {tag!r}")
        if not is_value(value):
            raise ValueModelError(f"variant payload is a non-model value of type {type(value).__name__}")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "value", value)

    def __setattr__(self, label: str, value: Any) -> None:
        raise ValueModelError("Variant is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Variant):
            return NotImplemented
        return self.tag == other.tag and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.tag, self.value))

    def __repr__(self) -> str:
        return f"<{self.tag}: {value_repr(self.value)}>"

    def __reduce__(self):
        # Same story as Tup: the immutable __setattr__ breaks the default
        # slot-state restore, so rebuild through the constructor.
        return (Variant, (self.tag, self.value))


_BASIC_TYPES = (bool, int, float, str)

#: The Python types of model values: :func:`is_value` is one ``isinstance``
#: against this tuple.
VALUE_TYPES = (Tup, Variant, Null, frozenset, tuple) + _BASIC_TYPES


def is_value(v: Any) -> bool:
    """True iff *v* is a well-formed model value.

    Checks only the outermost layer for collections built from model values;
    constructors (:class:`Tup`, :func:`make_value`) guarantee the invariant
    holds recursively.
    """
    return isinstance(v, VALUE_TYPES)


def make_value(v: Any) -> Any:
    """Coerce plain Python data into the model's immutable representation.

    * ``dict`` → :class:`Tup`
    * ``set`` / ``frozenset`` → ``frozenset`` (members coerced)
    * ``list`` / ``tuple`` → ``tuple`` (members coerced)
    * basic values and already-coerced values pass through.

    >>> make_value({"a": [1, 2], "b": {3}})
    (a=[1, 2], b={3})
    """
    if isinstance(v, (Tup, Variant, Null)):
        return v
    if isinstance(v, _BASIC_TYPES):
        return v
    if isinstance(v, dict):
        return Tup({k: make_value(x) for k, x in v.items()})
    if isinstance(v, (set, frozenset)):
        return frozenset(make_value(x) for x in v)
    if isinstance(v, (list, tuple)):
        return tuple(make_value(x) for x in v)
    raise ValueModelError(f"cannot represent {type(v).__name__} as a model value")


def value_repr(v: Any) -> str:
    """A compact, deterministic rendering of a model value.

    Set members are printed in total order (see :mod:`repro.model.compare`)
    so reprs are stable across runs — useful for golden tests and the
    benchmark harness.
    """
    # Imported here to avoid a circular import at module load time.
    from repro.model.compare import sort_key

    if isinstance(v, frozenset):
        members = sorted(v, key=sort_key)
        return "{" + ", ".join(value_repr(m) for m in members) + "}"
    if isinstance(v, tuple):
        return "[" + ", ".join(value_repr(m) for m in v) + "]"
    if isinstance(v, (Tup, Variant, Null)):
        return repr(v)
    if isinstance(v, str):
        return repr(v)
    return repr(v)
