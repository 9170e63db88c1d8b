"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class. Sub-classes partition failures by pipeline
stage (parsing, type checking, planning, execution) which mirrors the
architecture described in DESIGN.md.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValueModelError(ReproError):
    """An ill-formed value was constructed (e.g. unhashable set member)."""


class TypeModelError(ReproError):
    """An ill-formed type was constructed (e.g. duplicate tuple labels)."""


class SchemaError(ReproError):
    """A schema/class/sort definition is inconsistent."""


class ValidationError(ReproError):
    """A value does not conform to its declared type."""


class LexError(ReproError):
    """The query text contains an unrecognised token."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.position = position
        self.line = line
        self.column = column


class ParseError(ReproError):
    """The query text is syntactically invalid."""

    def __init__(self, message: str, position: int = -1, line: int = -1, column: int = -1):
        location = f" at line {line}, column {column}" if line >= 0 else ""
        super().__init__(f"{message}{location}")
        self.position = position
        self.line = line
        self.column = column


class NameError_(ReproError):
    """A variable, table, or attribute name could not be resolved."""


class TypeCheckError(ReproError):
    """An expression is ill-typed."""


class PlanError(ReproError):
    """A logical or physical plan is ill-formed."""


class UnsupportedQueryError(ReproError):
    """The query shape falls outside what the translator supports.

    The paper restricts itself to linear nested queries (one subquery per
    WHERE clause) and acyclic correlation; shapes outside this class are
    reported with this error rather than silently mis-translated.
    """


class ExecutionError(ReproError):
    """A runtime failure while evaluating an expression or plan."""


class CancelledError(ReproError):
    """Cooperative cancellation fired: a deadline expired or an explicit
    cancel was requested while a physical plan was executing (see
    :mod:`repro.engine.cancel`)."""


class RejectedError(ReproError):
    """The query service shed a request: the admission queue was at
    capacity, or the service has been stopped (see :mod:`repro.server`)."""


class CatalogError(ReproError):
    """A catalog lookup failed or a table definition is inconsistent."""
