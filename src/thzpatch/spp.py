"""TM surface-plasmon dispersion of a conductive 2-D sheet.

A sheet with inductive surface conductivity bound between two dielectric
half-spaces supports a TM surface wave whose in-plane wavenumber q exceeds
the free-space wavenumber, i.e. the wave is shorter than in free space.
Two solvers are provided:

* a closed form for the symmetric environment (same permittivity both
  sides), q = k0 sqrt(eps) sqrt(1 - (2 sqrt(eps) / (eta0 sigma))^2);
* every mode of the general asymmetric relation

      eps_a / kappa_a + eps_b / kappa_b = -i sigma / (w eps0),

  with kappa_i = sqrt(q^2 - eps_i k0^2) on the Re >= 0 branch. It is the
  same with the half-spaces swapped, so the solver names the denser one a
  and works in u = kappa_a/k0 alone: the quartic that squaring the
  relation gives, the polish of its root and the light-line test are all
  in u, and q = k0 sqrt(u^2 + eps_a) is formed last.

A mode is bound only if it decays on both sides and lies above the light
line of the denser half-space, where u = 0; below it the wave leaks into
that half-space (Hanson, J. Appl. Phys. 103, 064302, 2008). A sheet with
gain (Re sigma < 0), or one too conductive or too lossy to bind a mode,
raises NoBoundModeError; sweeps record that per cell instead of aborting.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .constants import CODATA2018
from .errors import (ConvergenceError, NoBoundModeError, NumericalError,
                     ValidationError, require_finite, require_frequency)
from .materials import GrapheneSheet, SheetConductivity, kubo_sigma

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


def _bound_mode(modes: Iterable[tuple[complex, complex]], k0: float,
                eps: float) -> tuple[complex, complex]:
    """The first (q, u) above the light line k0 sqrt(eps) whose decay
    constant u = kappa/k0 into that half-space has Re u > 0.

    Near the line Re q carries more rounding than its distance from it, so
    the mode counts as bound only if Re q/k0 exceeds sqrt(eps) and so does
    sqrt(eps) plus the excess Re(u^2/(q/k0 + sqrt(eps))), found without
    that cancellation: a smaller excess leaves no trace in q.
    """
    line = math.sqrt(eps)
    for q, u in modes:
        excess = (u * u / (q / k0 + line)).real
        if u.real > 0 and q.real / k0 > line and line + excess > line:
            return q, u
    raise NoBoundModeError(f"no Re q exceeds k0*sqrt(eps) = {k0 * line:.6g} "
                           "rad/m; sheet does not bind a TM mode here")


def _free_space_wavenumber(sigma: SheetConductivity,
                           angular_frequency: float) -> float:
    """k0, for a sheet that can bind a mode: one of zero conductivity binds
    none, and one with gain (Re sigma < 0) none that decays."""
    require_frequency(angular_frequency, "angular_frequency")
    if sigma.real_part < 0 or sigma.value == 0:
        raise NoBoundModeError(f"sigma = {sigma.value:.3g} S binds no mode: "
                               "it is zero or has gain (Re sigma < 0)")
    return angular_frequency / CODATA2018.light_speed


def _solution_from_q(q: complex, k0: float) -> SppSolution:
    return SppSolution(q, k0, q.real / k0, 2 * math.pi / q.real,
                       1 / (2 * q.imag) if q.imag > 0 else math.inf)


def spp_wavenumber_symmetric(sigma: SheetConductivity, eps: float,
                             angular_frequency: float) -> SppSolution:
    """Closed-form TM mode of a sheet embedded in a uniform dielectric.

    Its decay constant is kappa/k0 = i sqrt(eps) ratio, ratio = 2
    sqrt(eps)/(eta0 sigma), whose Re > 0 says the sheet is inductive.
    Raises NoBoundModeError for a capacitive sheet, one with gain, or a
    Re q on or under the light line of the surrounding medium.
    """
    if not (cmath.isfinite(eps) and eps >= 1.0):
        raise ValidationError("eps must be finite and >= 1")
    k0 = _free_space_wavenumber(sigma, angular_frequency)
    root = cmath.sqrt(eps)
    ratio = 2 * root / (CODATA2018.free_space_impedance * sigma.value)
    q = k0 * root * cmath.sqrt(1 - ratio * ratio)
    q, _ = _bound_mode([(q, 1j * root * ratio)], k0, eps)
    return _solution_from_q(q, k0)


def spp_wavenumber_asymmetric(sigma: SheetConductivity,
                              halfspaces: DielectricHalfspaces,
                              angular_frequency: float) -> SppSolution:
    """TM mode of a sheet between two different dielectrics.

    With eps_a the denser permittivity, u = kappa_a/k0 and r = -i sigma
    k0/(w eps0) = -i sigma/(c eps0), the relation reads eps_a/u + eps_b/v =
    r, where v = kappa_b/k0 = sqrt(u^2 + eps_a - eps_b), the root of a sum,
    keeps its digits as u goes to 0. With v = eps_b u/(r u - eps_a) from
    the relation it becomes the quartic (u^2 + eps_a - eps_b)(r u - eps_a)^2
    = eps_b^2 u^2. Its roots with Re v > 0 are the modes; the bound one gets
    two Newton steps in u, and a relative residual left at
    NEWTON_REL_RESIDUAL or above raises ConvergenceError.
    """
    # Imported here so that importing this module does not load numpy.
    import numpy as np

    k0 = _free_space_wavenumber(sigma, angular_frequency)
    eb, ea = sorted((halfspaces.eps_above, halfspaces.eps_below))
    r = -1j * sigma.value / (CODATA2018.light_speed
                             * CODATA2018.vacuum_permittivity)
    d = ea - eb
    coeffs = [r * r, -2 * r * ea, ea * ea + d * r * r - eb * eb,
              -2 * r * ea * d, d * ea * ea]
    if not 0 < abs(coeffs[0]) < math.inf:  # r^2 out of double range
        raise NoBoundModeError(f"sigma = {sigma.value:.3g} S binds no mode")
    row = [-c / coeffs[0] for c in coeffs[1:]]
    if not all(map(cmath.isfinite, row)):
        raise NumericalError(f"the mode equation of sigma = {sigma.value:.3g}"
                             f" S between eps {halfspaces.eps_above:g} and "
                             f"{halfspaces.eps_below:g} leaves double range")
    # As np.roots does it (companion matrix eigenvalues), minus its overhead.
    companion = np.eye(4, k=-1, dtype=complex)
    companion[0] = row
    _, u = _bound_mode([(k0 * cmath.sqrt(u * u + ea), u)
                        for u in np.linalg.eigvals(companion).tolist()
                        if r * u != ea  # else v is unknown: not a mode
                        and (eb * u / (r * u - ea)).real > 0], k0, ea)
    for _ in range(2):
        v = cmath.sqrt(u * u + d)
        # Products, not **3: complex ** raises OverflowError where * gives inf.
        slope = ea / (u * u) + eb * u / (v * v * v)
        if slope == 0:  # both terms left double range; the residual tells
            break
        u += (ea / u + eb / v - r) / slope
    residual = abs(ea / u + eb / cmath.sqrt(u * u + d) - r) / abs(r)
    if not residual < NEWTON_REL_RESIDUAL:
        raise ConvergenceError(f"polished mode has relative residual "
                               f"{residual:.3e}", last_residual=residual)
    return _solution_from_q(k0 * cmath.sqrt(u * u + ea), k0)


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
