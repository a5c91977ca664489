"""Exception hierarchy.

Two broad families matter to callers (and to the CLI exit codes):
input problems (ValidationError and its config subtypes) and numerical
failures (NumericalError and friends). Everything derives from
ThzPatchError so library users can catch one base.
"""

from __future__ import annotations

import math


class ThzPatchError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ThzPatchError):
    """An input value is outside its accepted domain.

    field names the input that failed, when there is one; the message then
    reads "<field> <reason>", and reason alone lets a caller re-attach the
    problem to wherever the value came from (a config key and its line).
    """

    def __init__(self, reason: str, field: str | None = None):
        super().__init__(f"{field} {reason}" if field else reason)
        self.reason = reason
        self.field = field


def require_finite(obj: object, *fields: str) -> None:
    """Reject nan and +-inf in the named numeric fields of obj."""
    for name in fields:
        if not math.isfinite(getattr(obj, name)):
            raise ValidationError("must be finite", field=name)


class InfeasibleDesignError(ValidationError):
    """The requested design has no physical solution (e.g. patch length <= 0)."""


class ConfigError(ValidationError):
    """Config file problem; messages name the offending key and line."""


class UnitError(ConfigError):
    """A quantity is missing its unit suffix or carries an unknown one."""


class NumericalError(ThzPatchError):
    """A solver failed to produce a trustworthy result."""


class ConvergenceError(NumericalError):
    """Iteration budget exhausted before reaching the residual target."""

    def __init__(self, message: str, last_residual: float | None = None):
        super().__init__(message)
        self.last_residual = last_residual


class NoBoundModeError(NumericalError):
    """The sheet does not bind a surface mode at this frequency."""


class BracketError(NumericalError):
    """A bisection bracket does not contain the requested root."""


class InstabilityError(NumericalError):
    """A time-domain run diverged (field magnitude beyond the guard)."""
