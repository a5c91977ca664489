"""TM surface-plasmon dispersion of a conductive 2-D sheet.

A sheet with inductive surface conductivity bound between two dielectric
half-spaces supports a TM surface wave whose in-plane wavenumber q exceeds
the free-space wavenumber, i.e. the wave is shorter than in free space.
Two solvers are provided:

* a closed form for the symmetric environment (same permittivity both
  sides), q = k0 sqrt(eps) sqrt(1 - (2 sqrt(eps) / (eta0 sigma))^2);
* every mode of the general asymmetric relation

      eps_a / kappa_a + eps_b / kappa_b = -i sigma / (w eps0),

  with kappa_i = sqrt(q^2 - eps_i k0^2) on the Re >= 0 branch, from the
  four roots of the quartic that squaring it gives.

A mode is bound only above the light line of the denser half-space; below
it the wave leaks into that half-space (Hanson, J. Appl. Phys. 103, 064302,
2008). A sheet that is too conductive or too lossy to bind a mode raises
NoBoundModeError; sweeps record that per cell instead of aborting.
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
                eps: float) -> complex:
    """The first q, taken with Im q >= 0, that lies above k0 sqrt(eps).

    Each mode comes with (kappa/k0)^2 = (q/k0)^2 - eps on the line's side,
    found without that cancelling difference. Near the line Re q carries
    more rounding than its distance from it, so the side is read from the
    excess Re q/k0 - sqrt(eps) = Re((kappa/k0)^2 / (q/k0 + sqrt(eps))),
    and the mode counts as bound only if the excess survives being added
    to sqrt(eps), and Re q/k0 exceeds sqrt(eps) too. A smaller excess
    leaves no trace in q: such a mode cannot be told from the line.
    """
    line = math.sqrt(eps)
    for q, decay_sq in modes:
        q = q if q.imag >= 0 else -q
        n = q / k0
        if n.real > line and line + (decay_sq / (n + line)).real > line:
            return q
    raise NoBoundModeError(f"no Re q exceeds k0*sqrt(eps) = {k0 * line:.6g} "
                           "rad/m; sheet does not bind a TM mode here")


def _solution_from_q(q: complex, k0: float) -> SppSolution:
    return SppSolution(q, k0, q.real / k0, 2 * math.pi / q.real,
                       1 / (2 * q.imag) if q.imag > 0 else math.inf)


def spp_wavenumber_symmetric(sigma: SheetConductivity, eps: float,
                             angular_frequency: float) -> SppSolution:
    """Closed-form TM mode of a sheet embedded in a uniform dielectric.

    The square-root branch is fixed by Im q >= 0 (decay along propagation).
    Raises NoBoundModeError when Re q does not exceed the light line of the
    surrounding medium.
    """
    if not (cmath.isfinite(eps) and eps >= 1.0):
        raise ValidationError("eps must be finite and >= 1")
    require_frequency(angular_frequency, "angular_frequency")
    if sigma.value == 0:
        raise NoBoundModeError("a sheet of zero conductivity binds no mode")
    k0 = angular_frequency / CODATA2018.light_speed
    ratio = 2 * cmath.sqrt(eps) / (CODATA2018.free_space_impedance
                                   * sigma.value)
    q = k0 * cmath.sqrt(eps) * cmath.sqrt(1 - ratio * ratio)
    return _solution_from_q(_bound_mode([(q, -eps * ratio * ratio)], k0,
                                        eps), k0)


def _relation(q: complex, k0: float, ea: float,
              eb: float) -> tuple[complex, complex]:
    """eps_a/kappa_a + eps_b/kappa_b at q, and its derivative in q."""
    ka = cmath.sqrt(q * q - ea * k0 * k0)
    kb = cmath.sqrt(q * q - eb * k0 * k0)
    # Products, not **3: complex ** raises OverflowError where * gives inf.
    return (ea / ka + eb / kb,
            -q * (ea / (ka * ka * ka) + eb / (kb * kb * kb)))


def spp_wavenumber_asymmetric(sigma: SheetConductivity,
                              halfspaces: DielectricHalfspaces,
                              angular_frequency: float) -> SppSolution:
    """TM mode of a sheet between two different dielectrics.

    In u = kappa_a/k0 and r = -i sigma k0/(w eps0) = -i sigma/(c eps0) the
    relation reads eps_a/u + eps_b/v = r, so v = kappa_b/k0 =
    eps_b u/(r u - eps_a); with v^2 = u^2 + eps_a - eps_b it becomes the
    quartic (u^2 + eps_a - eps_b)(r u - eps_a)^2 = eps_b^2 u^2. Its roots
    with Re u > 0 and Re v > 0 are the modes; the bound one gets two
    Newton steps in q, and a relative residual left at NEWTON_REL_RESIDUAL
    or above raises ConvergenceError. Near the denser light line v is
    small, and v from the relation keeps the digits that u^2 + eps_a -
    eps_b cancels away, so that v decides which side of the line the mode
    is on (u when the denser half-space is above).
    """
    # Imported here so that importing this module does not load numpy.
    import numpy as np

    require_frequency(angular_frequency, "angular_frequency")
    k0 = angular_frequency / CODATA2018.light_speed
    ea, eb = halfspaces.eps_above, halfspaces.eps_below
    r = -1j * sigma.value / (CODATA2018.light_speed
                             * CODATA2018.vacuum_permittivity)
    rhs, d = r / k0, ea - eb
    coeffs = [r * r, -2 * r * ea, ea * ea + d * r * r - eb * eb,
              -2 * r * ea * d, d * ea * ea]
    if not 0 < abs(coeffs[0]) < math.inf:  # sigma = 0, or r^2 out of range
        raise NoBoundModeError(f"sigma = {sigma.value:.3g} S binds no mode")
    row = [-c / coeffs[0] for c in coeffs[1:]]
    if not all(map(cmath.isfinite, row)):
        raise NumericalError(f"the mode equation of sigma = "
                             f"{sigma.value:.3g} S between eps {ea:g} and "
                             f"{eb:g} leaves double range")
    # As np.roots does it (companion matrix eigenvalues), minus its overhead.
    companion = np.eye(4, k=-1, dtype=complex)
    companion[0] = row
    modes = []
    for u in np.linalg.eigvals(companion).tolist():
        v = eb * u / (r * u - ea)
        if u.real > 0 and v.real > 0:
            dense = v if eb >= ea else u
            modes.append((k0 * cmath.sqrt(u * u + ea), dense * dense))
    q = _bound_mode(modes, k0, max(ea, eb))
    for _ in range(2):
        lhs, slope = _relation(q, k0, ea, eb)
        if slope == 0:  # both kappa^3 overflowed; the residual tells
            break
        q -= (lhs - rhs) / slope
    residual = abs(_relation(q, k0, ea, eb)[0] - rhs) / abs(rhs)
    if not residual < NEWTON_REL_RESIDUAL:
        raise ConvergenceError(f"polished mode has relative residual "
                               f"{residual:.3e}", last_residual=residual)
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
