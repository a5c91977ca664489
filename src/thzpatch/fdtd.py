"""1-D FDTD check of the sheet-conductivity material model.

A Yee grid (Ez, Hy) with the graphene sheet collapsed onto a single
electric-field node as a surface current J. The Drude current equation
dJ/dt + J/tau = A E is advanced with the exact exponential decay factor per
step and trapezoidal coupling to the field, which keeps the update stable
for arbitrarily strong sheets:

    (1 + g/4) E_new = E_old + curl - dt/(2 eps0 dx) (1 + exp(-dt/tau)) J
    J_new = exp(-dt/tau) J + A tau (1 - exp(-dt/tau)) (E_old + E_new)/2

A broadband differentiated-Gaussian pulse is launched from a soft source,
first-order one-way (Mur) boundaries terminate the line, and reflection /
transmission spectra are formed by discrete Fourier transform against a
sheet-free reference run. The reflected-wave probe sits between source and
sheet, so its spectrum is phase-shifted back to the sheet plane using the
grid's numerical dispersion relation k = (2/dx) asin(sin(pi f dt) / S).

Absorption is measured independently as the Joule spectrum of the sheet,
eta0 Re(E J*) / |E_ref|^2, which makes the energy balance
|r|^2 + |t|^2 + A = 1 a genuine cross-check of the scheme rather than an
arithmetic identity.

The analytic target for a free-standing thin sheet at normal incidence is
r = -s/(1+s), t = 1/(1+s) with s = eta0 sigma / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import CODATA2018, PhysicalConstants
from .errors import InstabilityError, ValidationError
from .materials import GrapheneSheet, drude_weight, kubo_sigma

DESIGN_F_MAX = 325e9            # the invariant cell_size <= lambda/100 uses this
SOURCE_CENTER_HZ = 272.5e9
SOURCE_PEAK = math.exp(-0.5)    # max of t exp(-t^2/2)
INSTABILITY_FACTOR = 1e6
RINGDOWN_TAUS = 16.0
RINGDOWN_WIDTHS = 8.0
BASE_RESOLUTION = 100
BASE_PAD_CELLS = 45


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with the sheet at one interior node.

    Distances are laid out so the source, the reflection probe, the sheet,
    and the transmission probe split the line into equal segments;
    refinement keeps those physical distances fixed (segment cell counts
    scale with resolution), so error measured on a refined grid is a pure
    discretization effect.
    """

    cell_size: float
    cell_count: int
    time_step: float
    sheet_index: int
    courant_number: float

    def __post_init__(self) -> None:
        if self.cell_size <= 0 or self.cell_count < 8:
            raise ValidationError("grid must have positive cells, count >= 8")
        lam_min = CODATA2018.light_speed / DESIGN_F_MAX
        if self.cell_size > lam_min / 100 * (1 + 1e-12):
            raise ValidationError(
                f"cell_size {self.cell_size:.4g} m exceeds lambda/100 at "
                f"{DESIGN_F_MAX / 1e9:.0f} GHz ({lam_min / 100:.4g} m)")
        if not (0 < self.courant_number <= 1):
            raise ValidationError("courant_number must be in (0, 1]")
        expected_dt = self.courant_number * self.cell_size / CODATA2018.light_speed
        if abs(self.time_step - expected_dt) > 1e-9 * expected_dt:
            raise ValidationError(
                "time_step inconsistent with courant_number * cell_size / c")
        if not (2 <= self.sheet_index <= self.cell_count - 3):
            raise ValidationError(
                "sheet_index must be strictly inside the grid, clear of the "
                "absorbing boundary cells")

    @classmethod
    def for_resolution(cls, resolution: int, courant: float = 0.99) -> "Grid1D":
        """Standard layout with `resolution` cells per wavelength at 325 GHz."""
        if resolution < BASE_RESOLUTION:
            raise ValidationError(
                f"resolution must be >= {BASE_RESOLUTION} cells per wavelength")
        dx = (CODATA2018.light_speed / DESIGN_F_MAX) / resolution
        pad = round(BASE_PAD_CELLS * resolution / BASE_RESOLUTION)
        return cls(
            cell_size=dx,
            cell_count=5 * pad + 1,
            time_step=courant * dx / CODATA2018.light_speed,
            sheet_index=3 * pad,
            courant_number=courant,
        )


@dataclass(frozen=True)
class SheetScatteringResult:
    """Complex r/t spectra plus the independently measured absorption."""

    frequencies: np.ndarray
    reflection: np.ndarray
    transmission: np.ndarray
    absorption: np.ndarray


def _layout(grid: Grid1D) -> tuple[int, int, int]:
    """(source, reflection probe, transmission probe) node indices."""
    pad = grid.sheet_index // 3
    src = pad
    probe_r = 2 * pad
    probe_t = grid.sheet_index + (grid.cell_count - 1 - grid.sheet_index) // 2
    if not (0 < src < probe_r < grid.sheet_index < probe_t < grid.cell_count - 1):
        raise ValidationError("grid too small to place source and probes")
    return src, probe_r, probe_t


def _validate_band(band: tuple[float, float]) -> None:
    f_lo, f_hi = band
    if not (0 < f_lo < f_hi):
        raise ValidationError("band must satisfy 0 < f_lo < f_hi")
    for f in (f_lo, f_hi):
        x = f / SOURCE_CENTER_HZ
        # Spectrum of the differentiated Gaussian relative to its peak.
        if x * math.exp((1 - x * x) / 2) < 0.1:
            raise ValidationError(
                f"{f / 1e9:.1f} GHz is outside the source's -20 dB support")


def _march(grid: Grid1D, drude_a: float, tau: float, n_steps: int,
           t_w: float, t0: float, with_sheet: bool,
           constants: PhysicalConstants) -> np.ndarray:
    """Advance the grid; rows: E at probe_r, probe_t, sheet, and J."""
    eps0 = constants.vacuum_permittivity
    mu0 = constants.vacuum_permeability
    c = constants.light_speed
    dx, dt = grid.cell_size, grid.time_step
    n_sh = grid.sheet_index
    src, probe_r, probe_t = _layout(grid)

    ez = np.zeros(grid.cell_count)
    hy = np.zeros(grid.cell_count - 1)
    js = 0.0
    ch = dt / (mu0 * dx)
    ce = dt / (eps0 * dx)
    beta = (c * dt - dx) / (c * dt + dx)
    exp_fac = math.exp(-dt / tau)
    drive_fac = drude_a * tau * (1 - exp_fac)
    g = drive_fac * dt / (eps0 * dx)
    guard = INSTABILITY_FACTOR * SOURCE_PEAK

    rec = np.empty((4, n_steps))
    for n in range(n_steps):
        hy += ch * (ez[1:] - ez[:-1])
        ez_l, ez_r = ez[1], ez[-2]
        ez0_old, ezn_old = ez[0], ez[-1]
        e_sh_old = ez[n_sh]
        ez[1:-1] += ce * (hy[1:] - hy[:-1])
        if with_sheet:
            ez[n_sh] = (ez[n_sh] - (g / 4) * e_sh_old
                        - (dt / (2 * eps0 * dx)) * (1 + exp_fac) * js) / (1 + g / 4)
            js = exp_fac * js + drive_fac * 0.5 * (e_sh_old + ez[n_sh])
        tt = ((n + 1) * dt - t0) / t_w
        ez[src] += tt * math.exp(-0.5 * tt * tt)
        ez[0] = ez_l + beta * (ez[1] - ez0_old)
        ez[-1] = ez_r + beta * (ez[-2] - ezn_old)
        if abs(ez[n_sh]) > guard:
            raise InstabilityError(
                f"field at the sheet node exceeded {INSTABILITY_FACTOR:.0e} "
                f"times the source peak at step {n}")
        rec[0, n] = ez[probe_r]
        rec[1, n] = ez[probe_t]
        rec[2, n] = ez[n_sh]
        rec[3, n] = js
    return rec


def _spectra(rec: np.ndarray, freqs: np.ndarray, dt: float) -> np.ndarray:
    """DFT of each recorded row at the sample times (n+1) dt."""
    t = (np.arange(rec.shape[1]) + 1) * dt
    kernel = np.exp(2j * np.pi * np.outer(freqs, t)) * dt
    return kernel @ rec.T


def run_drude_scattering(drude_a: float, tau: float, grid: Grid1D,
                         band: tuple[float, float], points: int = 106,
                         constants: PhysicalConstants = CODATA2018,
                         ) -> SheetScatteringResult:
    """Scattering spectra of a Drude sheet with weight drude_a (S/s).

    drude_a = 0 runs the vacuum check: the sheet update still executes but
    drives nothing, so r should vanish and t should be 1 to round-off.
    """
    if drude_a < 0 or tau <= 0:
        raise ValidationError("need drude_a >= 0 and tau > 0")
    if points < 2:
        raise ValidationError("points must be >= 2")
    _validate_band(band)
    freqs = np.linspace(band[0], band[1], points)

    t_w = 1.0 / (2 * math.pi * SOURCE_CENTER_HZ)
    t0 = 6 * t_w
    transit = grid.cell_count * grid.cell_size / constants.light_speed
    t_end = t0 + transit + RINGDOWN_TAUS * tau + RINGDOWN_WIDTHS * t_w
    n_steps = int(math.ceil(t_end / grid.time_step))

    ref = _march(grid, drude_a, tau, n_steps, t_w, t0, False, constants)
    shr = _march(grid, drude_a, tau, n_steps, t_w, t0, True, constants)
    ref_f = _spectra(ref, freqs, grid.time_step)
    shr_f = _spectra(shr, freqs, grid.time_step)

    transmission = shr_f[:, 1] / ref_f[:, 1]
    # Shift the scattered-field spectrum from the probe back to the sheet
    # plane with the exact numerical wavenumber of the grid.
    src, probe_r, _ = _layout(grid)
    s = grid.courant_number
    with np.errstate(invalid="ignore"):
        arg = np.clip(np.sin(np.pi * freqs * grid.time_step) / s, -1.0, 1.0)
    k_num = (2 / grid.cell_size) * np.arcsin(arg)
    d = (grid.sheet_index - probe_r) * grid.cell_size
    reflection = ((shr_f[:, 0] - ref_f[:, 0]) / ref_f[:, 0]
                  * np.exp(-2j * k_num * d))
    eta0 = constants.free_space_impedance
    absorption = (eta0 * np.real(shr_f[:, 2] * np.conj(shr_f[:, 3]))
                  / np.abs(ref_f[:, 2]) ** 2)
    return SheetScatteringResult(frequencies=freqs, reflection=reflection,
                                 transmission=transmission,
                                 absorption=absorption)


def run_sheet_scattering(sheet: GrapheneSheet, grid: Grid1D,
                         band: tuple[float, float], points: int = 106,
                         constants: PhysicalConstants = CODATA2018,
                         ) -> SheetScatteringResult:
    """FDTD scattering spectra of a graphene sheet over the band."""
    return run_drude_scattering(drude_weight(sheet, constants),
                                sheet.relaxation_time, grid, band, points,
                                constants)


def analytic_sheet_coefficients(sheet: GrapheneSheet,
                                frequencies: Sequence[float] | np.ndarray,
                                constants: PhysicalConstants = CODATA2018,
                                ) -> SheetScatteringResult:
    """Exact thin-sheet r/t/absorption from the material model."""
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size == 0:
        raise ValidationError("frequency grid must be non-empty")
    sigma = np.array([kubo_sigma(sheet, 2 * math.pi * f, constants).value
                      for f in freqs])
    s = constants.free_space_impedance * sigma / 2
    transmission = 1 / (1 + s)
    reflection = -s / (1 + s)
    absorption = 2 * s.real * np.abs(transmission) ** 2
    return SheetScatteringResult(frequencies=freqs, reflection=reflection,
                                 transmission=transmission,
                                 absorption=absorption)


def compare_fdtd_analytic(sheet: GrapheneSheet, grid: Grid1D,
                          band: tuple[float, float], points: int = 106,
                          constants: PhysicalConstants = CODATA2018) -> float:
    """Largest |r_fdtd - r_analytic| or |t_fdtd - t_analytic| over the band."""
    fdtd = run_sheet_scattering(sheet, grid, band, points, constants)
    return max_abs_error(sheet, fdtd, constants)


def max_abs_error(sheet: GrapheneSheet, fdtd: SheetScatteringResult,
                  constants: PhysicalConstants = CODATA2018) -> float:
    """compare_fdtd_analytic's error measure for an existing FDTD result."""
    exact = analytic_sheet_coefficients(sheet, fdtd.frequencies, constants)
    err_r = np.max(np.abs(fdtd.reflection - exact.reflection))
    err_t = np.max(np.abs(fdtd.transmission - exact.transmission))
    return float(max(err_r, err_t))


def refinement_study(sheet: GrapheneSheet, band: tuple[float, float],
                     resolutions: Sequence[int] = (100, 200, 400),
                     points: int = 106,
                     constants: PhysicalConstants = CODATA2018,
                     ) -> list[tuple[int, float]]:
    """compare_fdtd_analytic at several resolutions, fixed physical layout."""
    return [(res, compare_fdtd_analytic(sheet, Grid1D.for_resolution(res),
                                        band, points, constants))
            for res in resolutions]
