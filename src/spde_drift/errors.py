"""Exception hierarchy and warnings shared across the package, and the one
check of a numeric spec field's or computed constant's domain."""

import math
import numbers
from dataclasses import MISSING, field, fields


class SpdeDriftError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SpdeDriftError):
    """Invalid or inconsistent specification (unsupported operator kind,
    dealiasing violation, size mismatch, bad config file key)."""


class DomainError(SpdeDriftError):
    """A mathematical admissibility condition is violated (e.g. beta <= 0,
    V <= 0, contrast parameter below the required threshold)."""


#: each numeric domain: the type a value is stored as, the test that the
#: finite stored value passes, and what "must be" asks for when it fails
DOMAINS = {
    "finite": (float, lambda x: True, "finite"),
    "positive": (float, lambda x: x > 0, "positive"),
    "nonnegative": (float, lambda x: x >= 0, "nonnegative"),
    "unit": (float, lambda x: 0 < x < 1, "in (0, 1)"),
    "count": (int, lambda x: x >= 1, "an integer >= 1"),
    "seed": (int, lambda x: 0 <= x < 2**64, "an integer in [0, 2**64)"),
}


def checked(name: str, value, domain, error=ConfigurationError):
    """``value`` as ``domain``, a key of DOMAINS, stores it, or a tuple of
    entries so stored when ``domain`` is a one-entry tuple.  ``error``, whose
    message starts "<name> must be", rejects a bool, a string, nan, inf, a
    value outside the domain and a non-integral value in an integer domain."""
    if isinstance(domain, tuple):
        try:
            items = tuple(value)
        except TypeError:
            raise error(f"{name} must be a sequence of numbers, got {value!r}") from None
        return tuple(checked(name, item, domain[0], error) for item in items)
    kind, test, words = DOMAINS[domain]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = kind(value)
        finite = kind is int or math.isfinite(number)
    except (OverflowError, ValueError):  # int(inf), int(nan), float(10**400)
        finite = False
    if not finite:
        raise error(f"{name} must be finite, got {value!r}")
    if (kind is int and number != value) or not test(number):
        raise error(f"{name} must be {words}, got {value!r}")
    return number


def checked_result(name: str, compute, domain="finite", error=DomainError):
    """``compute()`` as ``checked`` returns it, where an overflow or a
    division by an underflowed zero reads as inf."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    return checked(name, value, domain, error)


def spec_field(domain, default=MISSING):
    """A dataclass field whose values ``check_fields`` holds to ``domain``."""
    return field(default=default, metadata={"domain": domain})


def check_fields(spec) -> None:
    """Store each ``spec_field`` of the dataclass ``spec`` as ``checked``
    returns it, in field order; a field whose default is None may be None."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if "domain" in f.metadata and not (value is None and f.default is None):
            object.__setattr__(spec, f.name, checked(f.name, value, f.metadata["domain"]))


class BlowUpError(SpdeDriftError):
    """NaN/Inf detected while stepping a trajectory."""

    def __init__(self, step: int, mode: int, message: str | None = None):
        self.step = step
        self.mode = mode
        super().__init__(
            message or f"trajectory blew up at step {step}, mode {mode}"
        )


class DegenerateTrajectoryError(SpdeDriftError):
    """The observed-information denominator is (numerically) zero."""


class StudyError(SpdeDriftError):
    """Too many trial failures to produce a trustworthy Monte Carlo report."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class AdmissibilityWarning(UserWarning):
    """The contrast parameter alpha is at or below the admissibility
    threshold alpha > gamma - (1 + 1/beta)/8; asymptotic guarantees for the
    estimators no longer apply."""
