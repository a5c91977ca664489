"""TM surface-plasmon dispersion of a conductive 2-D sheet.

A sheet with inductive surface conductivity bound between two dielectric
half-spaces supports a TM surface wave whose in-plane wavenumber q exceeds
the free-space wavenumber, i.e. the wave is shorter than in free space.
Two solvers are provided:

* a closed form for the symmetric environment (same permittivity both
  sides), q = k0 sqrt(eps) sqrt(1 - (2 sqrt(eps) / (eta0 sigma))^2);
* a damped complex Newton iteration for the general asymmetric relation

      eps_a / kappa_a + eps_b / kappa_b = -i sigma / (w eps0),

  with kappa_i = sqrt(q^2 - eps_i k0^2) on the Re >= 0 branch.

Both report the wavenumber together with derived confinement and loss
metrics. A sheet that is too conductive or too lossy to bind a mode raises
NoBoundModeError; sweeps record that per cell instead of aborting.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

from .constants import CODATA2018
from .errors import (ConvergenceError, NoBoundModeError, ValidationError,
                     require_finite)
from .materials import GrapheneSheet, SheetConductivity, kubo_sigma

NEWTON_MAX_ITER = 100
NEWTON_REL_RESIDUAL = 1e-10


@dataclass(frozen=True)
class DielectricHalfspaces:
    """Relative permittivities above and below the sheet."""

    eps_above: float
    eps_below: float

    def __post_init__(self) -> None:
        require_finite(self, "eps_above", "eps_below")
        for name in ("eps_above", "eps_below"):
            if getattr(self, name) < 1:
                raise ValidationError("must be >= 1", field=name)


@dataclass(frozen=True)
class SppSolution:
    """A bound-mode wavenumber and its derived metrics.

    confinement_ratio = Re q / k0 (how much shorter the surface wave is
    than free space), spp_wavelength = 2 pi / Re q, propagation_length =
    1/(2 Im q) (1/e power decay distance).
    """

    wavenumber: complex
    free_space_wavenumber: float
    confinement_ratio: float
    spp_wavelength: float
    propagation_length: float


def _solution_from_q(q: complex, k0: float) -> SppSolution:
    re_q = q.real
    im_q = q.imag
    return SppSolution(
        wavenumber=q,
        free_space_wavenumber=k0,
        confinement_ratio=re_q / k0,
        spp_wavelength=2 * cmath.pi / re_q,
        propagation_length=(1.0 / (2 * im_q)) if im_q > 0 else float("inf"),
    )


def _symmetric_q(sigma: complex, eps: float,
                 angular_frequency: float) -> complex:
    k0 = angular_frequency / CODATA2018.light_speed
    ratio = 2 * cmath.sqrt(eps) / (CODATA2018.free_space_impedance * sigma)
    q = k0 * cmath.sqrt(eps) * cmath.sqrt(1 - ratio * ratio)
    if q.imag < 0:
        q = -q
    return q


def spp_wavenumber_symmetric(sigma: SheetConductivity, eps: float,
                             angular_frequency: float) -> SppSolution:
    """Closed-form TM mode of a sheet embedded in a uniform dielectric.

    The square-root branch is fixed by Im q >= 0 (decay along propagation).
    Raises NoBoundModeError when Re q does not exceed the light line of the
    surrounding medium.
    """
    if not (cmath.isfinite(eps) and eps >= 1.0):
        raise ValidationError("eps must be finite and >= 1")
    if angular_frequency <= 0:
        raise ValidationError("angular_frequency must be > 0")
    k0 = angular_frequency / CODATA2018.light_speed
    q = _symmetric_q(sigma.value, eps, angular_frequency)
    light_line = k0 * cmath.sqrt(eps).real
    if q.real < light_line:
        raise NoBoundModeError(
            f"Re q = {q.real:.6g} rad/m does not exceed k0*sqrt(eps) = "
            f"{light_line:.6g} rad/m; sheet does not bind a TM mode here")
    return _solution_from_q(q, k0)


def spp_wavenumber_asymmetric(sigma: SheetConductivity,
                              halfspaces: DielectricHalfspaces,
                              angular_frequency: float) -> SppSolution:
    """TM mode of a sheet between two different dielectrics.

    Solves eps_a/kappa_a + eps_b/kappa_b = -i sigma/(w eps0) by damped
    Newton iteration, seeded from the symmetric closed form at the mean
    permittivity. Residuals are measured relative to the driving term
    |sigma/(w eps0)|; convergence target 1e-10.
    """
    if angular_frequency <= 0:
        raise ValidationError("angular_frequency must be > 0")
    w = angular_frequency
    k0 = w / CODATA2018.light_speed
    ea, eb = halfspaces.eps_above, halfspaces.eps_below
    rhs = -1j * sigma.value / (w * CODATA2018.vacuum_permittivity)
    scale = abs(rhs)

    def residual_and_derivative(q: complex) -> tuple[complex, complex]:
        ka = cmath.sqrt(q * q - ea * k0 * k0)
        kb = cmath.sqrt(q * q - eb * k0 * k0)
        f = ea / ka + eb / kb - rhs
        df = -q * (ea / ka**3 + eb / kb**3)
        return f, df

    q = _symmetric_q(sigma.value, 0.5 * (ea + eb), w)
    f, df = residual_and_derivative(q)
    for _ in range(NEWTON_MAX_ITER):
        if abs(f) / scale < NEWTON_REL_RESIDUAL:
            break
        step = -f / df
        # Halve the step while it does not reduce the residual.
        for _ in range(30):
            f_new, df_new = residual_and_derivative(q + step)
            if abs(f_new) < abs(f):
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "Newton step stalled; last relative residual "
                f"{abs(f) / scale:.3e}", last_residual=abs(f) / scale)
        q = q + step
        f, df = f_new, df_new
    else:
        raise ConvergenceError(
            f"no convergence in {NEWTON_MAX_ITER} iterations; last relative "
            f"residual {abs(f) / scale:.3e}", last_residual=abs(f) / scale)

    # kappa depends on q^2 only, so q and -q are both roots; report the
    # decaying one.
    if q.imag < 0 or (q.imag == 0 and q.real < 0):
        q = -q
    light_line = k0 * min(ea, eb) ** 0.5
    if q.real < light_line:
        raise NoBoundModeError(
            f"Re q = {q.real:.6g} rad/m below the lighter half-space light "
            f"line {light_line:.6g} rad/m; no bound TM mode")
    return _solution_from_q(q, k0)


@dataclass(frozen=True)
class ConfinementCell:
    """One (sheet, frequency) cell of a confinement sweep."""

    sheet: GrapheneSheet
    frequency: float
    solution: SppSolution | None
    error: str | None


def confinement_sweep(sheets: Sequence[GrapheneSheet],
                      frequencies: Sequence[float],
                      eps: float = 1.0) -> list[ConfinementCell]:
    """Symmetric-environment dispersion over a sheet x frequency grid.

    Returns cells in row-major order (sheets outer, frequencies inner).
    Cells that fail (no bound mode, validation) carry the error text
    instead of a solution; the sweep itself never raises for a cell.
    """
    if not sheets or not frequencies:
        raise ValidationError("sweep grids must be non-empty")
    cells: list[ConfinementCell] = []
    for sheet in sheets:
        for f in frequencies:
            try:
                w = 2 * cmath.pi * f
                sigma = kubo_sigma(sheet, w)
                sol = spp_wavenumber_symmetric(sigma, eps, w)
                cells.append(ConfinementCell(sheet, f, sol, None))
            except (NoBoundModeError, ValidationError) as exc:
                cells.append(ConfinementCell(sheet, f, None, str(exc)))
    return cells
