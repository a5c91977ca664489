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


# Below about 1e-300 Hz the free-space wavenumber 2 pi f / c is subnormal,
# and below 2.4e-316 Hz it is 0, which the SPP solvers divide by.
MIN_FREQUENCY = 1e-290
MAX_BAND_FREQUENCY = 1e300     # np.linspace overflows on nearly 2e308 Hz


def require_frequency(value: float, field: str) -> None:
    """Reject a frequency (Hz or rad/s) unless it is finite and at least
    MIN_FREQUENCY."""
    if not (0 < value < math.inf):
        raise ValidationError("must be finite and > 0", field=field)
    if value < MIN_FREQUENCY:
        raise ValidationError(f"must be >= {MIN_FREQUENCY:g}", field=field)


# Samples per spectrum. fdtd-check costs most per sample, and at this cap
# its slowest first run stays near a second (README).
MAX_POINTS = 1000


def require_grid(band: tuple[float, float], points: int) -> None:
    """Reject a sample grid unless 2 <= points <= MAX_POINTS and the band is
    finite with 0 < f_lo < f_hi and wide enough for `points` distinct samples.

    np.linspace forms sample k as k * step + f_lo: two roundings, each within
    half an ulp of f_hi, and a step that carries its own relative rounding.
    A step of more than 2 ulp(f_hi) therefore keeps consecutive samples
    apart; the check asks for twice that.
    """
    if not 2 <= points <= MAX_POINTS:
        raise ValidationError(f"must be >= 2 and <= {MAX_POINTS}",
                              field="points")
    f_lo, f_hi = band
    if not (0 < f_lo < f_hi and math.isfinite(f_hi)):
        raise ValidationError("must satisfy 0 < f_lo < f_hi", field="band")
    if f_hi > MAX_BAND_FREQUENCY:
        raise ValidationError(f"must end at or below {MAX_BAND_FREQUENCY:g} "
                              "Hz", field="band")
    if not (f_hi - f_lo) / (points - 1) > 4 * math.ulp(f_hi):
        raise ValidationError(f"must be wide enough for {points} distinct "
                              "samples", field="band")


class InfeasibleDesignError(ValidationError):
    """The requested design has no physical solution (e.g. patch length <= 0)."""


class ConfigError(ValidationError):
    """Config file problem; messages name the offending key and line."""


class UnitError(ConfigError):
    """A quantity is missing its unit suffix or carries an unknown one."""


class NumericalError(ThzPatchError):
    """A solver failed to produce a trustworthy result."""


class ConvergenceError(NumericalError):
    """A solved root misses its residual target by last_residual."""

    def __init__(self, message: str, last_residual: float | None = None):
        super().__init__(message)
        self.last_residual = last_residual


class NoBoundModeError(NumericalError):
    """The sheet does not bind a surface mode at this frequency."""


class BracketError(NumericalError):
    """The solution lies outside the interval the solver accepts."""


class InstabilityError(NumericalError):
    """A time-domain run diverged (field magnitude beyond the guard)."""
