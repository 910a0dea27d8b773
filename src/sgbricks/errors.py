"""Exception types shared across the package, and the integer check.

Every validation failure derives from DomainError so callers (notably the
CLI) can separate bad mathematical input from usage and I/O problems.  Each
class carries a stable machine-readable ``code``.
"""

from __future__ import annotations

from typing import Iterable


class DomainError(ValueError):
    """Input that is syntactically fine but mathematically inadmissible."""

    code = "domain"


class EmptyInputError(DomainError):
    """A generator list that must be non-empty was empty."""

    code = "empty-input"


class InvalidInputError(DomainError):
    """A value outside the documented domain (non-integer, non-positive, ...)."""

    code = "invalid-input"


class NonCoprimeError(DomainError):
    """Generators with gcd > 1: the complement would be infinite."""

    code = "non-coprime"


class IntegerOverflowError(DomainError, OverflowError):
    """A derived quantity would exceed the signed 64-bit range."""

    code = "overflow"


class ParentMismatchError(DomainError):
    """Two ideals (or an ideal and a semigroup) with different parents."""

    code = "parent-mismatch"


class WrongArityError(DomainError):
    """A quadruple operation received a number of values other than four."""

    code = "wrong-arity"


class NotUnitaryError(DomainError):
    """An operation defined only for unitary profiles got a non-unitary one."""

    code = "not-unitary"


class NotTwoByTwoError(DomainError):
    """A lift was requested for a pair that is not a 2x2 brick."""

    code = "not-two-by-two"


class ZeroNotGeneratorError(DomainError):
    """A lift was requested for an ideal whose least generator is not 0."""

    code = "zero-not-generator"


class ResourceLimitError(DomainError):
    """An input whose tables or bitsets would exceed a documented budget."""

    code = "resource-limit"


def require_ints(values: Iterable[object], what: str) -> list[int]:
    """The values as a list, after checking that each is exactly an int.

    bool is refused although it subclasses int.  Callers check before they
    sort or deduplicate, so a value of another type raises InvalidInputError
    here instead of a TypeError from a comparison.
    """
    values = list(values)
    for x in values:
        if type(x) is not int:
            raise InvalidInputError(f"{what} {x!r} is not an integer")
    return values
