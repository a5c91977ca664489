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

from .constants import CODATA2018
from .errors import InstabilityError, ValidationError, require_grid
from .materials import GrapheneSheet, drude_weight, kubo_sigma

DESIGN_F_MAX = 325e9            # resolution counts cells per wavelength here
SOURCE_CENTER_HZ = 272.5e9
SOURCE_PEAK = math.exp(-0.5)    # max of t exp(-t^2/2)
INSTABILITY_FACTOR = 1e6
RINGDOWN_TAUS = 16.0
RINGDOWN_WIDTHS = 8.0
BASE_RESOLUTION = 100
# Time grows linearly with resolution, memory does not (the DFT kernel is
# built in blocks): at tau = 5 ps, the longest relaxation time GrapheneSheet
# accepts, and 1000 points, resolution 400 takes 0.9 s of CPU and 90 MiB
# peak, resolution 1600 4.4 s and 93 MiB (Python 3.11, numpy 2.4, one core
# of a 2-vCPU Xeon VM).
MAX_RESOLUTION = 1600
# Bytes of complex DFT kernel built at once; the transients while it is
# built take about twice that.
DFT_BLOCK_BYTES = 16 * 2**20
BASE_PAD_CELLS = 45
COURANT_NUMBER = 0.99


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with `resolution` cells per wavelength at 325 GHz.

    The line is five segments of `pad` cells: the source, the reflection
    probe, the sheet and the transmission probe sit at the segment ends.
    Refinement keeps those physical distances fixed (segment cell counts
    scale with resolution), so error measured on a refined grid is a pure
    discretization effect.
    """

    resolution: int

    def __post_init__(self) -> None:
        if not (BASE_RESOLUTION <= self.resolution <= MAX_RESOLUTION):
            raise ValidationError(
                f"must be in [{BASE_RESOLUTION}, {MAX_RESOLUTION}] cells "
                "per wavelength", field="resolution")

    @classmethod
    def for_resolution(cls, resolution: int) -> "Grid1D":
        return cls(resolution)

    @property
    def pad(self) -> int:
        return round(BASE_PAD_CELLS * self.resolution / BASE_RESOLUTION)

    @property
    def cell_size(self) -> float:
        return (CODATA2018.light_speed / DESIGN_F_MAX) / self.resolution

    @property
    def cell_count(self) -> int:
        return 5 * self.pad + 1

    @property
    def time_step(self) -> float:
        return COURANT_NUMBER * self.cell_size / CODATA2018.light_speed

    @property
    def sheet_index(self) -> int:
        return 3 * self.pad


@dataclass(frozen=True)
class SheetScatteringResult:
    """Complex r/t spectra plus the independently measured absorption."""

    frequencies: np.ndarray
    reflection: np.ndarray
    transmission: np.ndarray
    absorption: np.ndarray


def _layout(grid: Grid1D) -> tuple[int, int, int]:
    """(source, reflection probe, transmission probe) node indices."""
    return grid.pad, 2 * grid.pad, 4 * grid.pad


def _march(grid: Grid1D, drude_a: float, tau: float, n_steps: int,
           t_w: float, t0: float) -> np.ndarray:
    """Advance the grid; rows: E at probe_r, probe_t, sheet, and J.

    drude_a = 0 gives the sheet-free reference: the sheet update then
    leaves the node's field as the curl made it and J at 0.
    """
    eps0 = CODATA2018.vacuum_permittivity
    mu0 = CODATA2018.vacuum_permeability
    c = CODATA2018.light_speed
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
    g_quarter, g_norm = g / 4, 1 + g / 4
    j_fac = (dt / (2 * eps0 * dx)) * (1 + exp_fac)
    guard = INSTABILITY_FACTOR * SOURCE_PEAK

    rec = np.empty((4, n_steps))
    for n in range(n_steps):
        hy += ch * (ez[1:] - ez[:-1])
        ez_l, ez_r = ez.item(1), ez.item(-2)
        ez0_old, ezn_old = ez.item(0), ez.item(-1)
        e_sh_old = ez.item(n_sh)
        ez[1:-1] += ce * (hy[1:] - hy[:-1])
        e_sh = (ez.item(n_sh) - g_quarter * e_sh_old - j_fac * js) / g_norm
        ez[n_sh] = e_sh
        js = exp_fac * js + drive_fac * 0.5 * (e_sh_old + e_sh)
        tt = ((n + 1) * dt - t0) / t_w
        ez[src] += tt * math.exp(-0.5 * tt * tt)
        ez[0] = ez_l + beta * (ez.item(1) - ez0_old)
        ez[-1] = ez_r + beta * (ez.item(-2) - ezn_old)
        if abs(e_sh) > guard:
            raise InstabilityError(
                f"field at the sheet node exceeded {INSTABILITY_FACTOR:.0e} "
                f"times the source peak at step {n}")
        rec[0, n] = ez.item(probe_r)
        rec[1, n] = ez.item(probe_t)
        rec[2, n] = e_sh
        rec[3, n] = js
    return rec


def _spectra(rec: np.ndarray, freqs: np.ndarray, dt: float) -> np.ndarray:
    """DFT of each recorded row at the sample times (n+1) dt.

    The kernel is built for a block of frequencies at a time, at most
    DFT_BLOCK_BYTES of it, so memory stays bounded at any points x steps.
    """
    t = (np.arange(rec.shape[1]) + 1) * dt
    block = max(1, DFT_BLOCK_BYTES // (16 * t.size))
    out = np.empty((freqs.size, rec.shape[0]), dtype=complex)
    for lo in range(0, freqs.size, block):
        kernel = np.exp(2j * np.pi * np.outer(freqs[lo:lo + block], t)) * dt
        out[lo:lo + block] = kernel @ rec.T
    return out


def run_drude_scattering(drude_a: float, tau: float, grid: Grid1D,
                         band: tuple[float, float], points: int = 106
                         ) -> SheetScatteringResult:
    """Scattering spectra of a Drude sheet with weight drude_a (S/s).

    drude_a = 0 runs the vacuum check: the sheet update still executes but
    drives nothing, so r should vanish and t should be 1 to round-off.
    """
    if not (0 <= drude_a < math.inf and 0 < tau < math.inf):
        raise ValidationError("need finite drude_a >= 0 and tau > 0")
    require_grid(band, points)
    for f in band:
        x = f / SOURCE_CENTER_HZ
        # Spectrum of the differentiated Gaussian relative to its peak.
        if x * math.exp((1 - x * x) / 2) < 0.1:
            raise ValidationError(
                f"{f / 1e9:.1f} GHz is outside the source's -20 dB support")
    freqs = np.linspace(band[0], band[1], points)

    t_w = 1.0 / (2 * math.pi * SOURCE_CENTER_HZ)
    t0 = 6 * t_w
    transit = grid.cell_count * grid.cell_size / CODATA2018.light_speed
    t_end = t0 + transit + RINGDOWN_TAUS * tau + RINGDOWN_WIDTHS * t_w
    n_steps = int(math.ceil(t_end / grid.time_step))

    ref = _march(grid, 0.0, tau, n_steps, t_w, t0)
    shr = _march(grid, drude_a, tau, n_steps, t_w, t0)
    spectra = _spectra(np.vstack((ref, shr)), freqs, grid.time_step)
    ref_f, shr_f = spectra[:, :4], spectra[:, 4:]

    transmission = shr_f[:, 1] / ref_f[:, 1]
    # Shift the scattered-field spectrum from the probe back to the sheet
    # plane with the exact numerical wavenumber of the grid.
    src, probe_r, _ = _layout(grid)
    with np.errstate(invalid="ignore"):
        arg = np.clip(np.sin(np.pi * freqs * grid.time_step) / COURANT_NUMBER,
                      -1.0, 1.0)
    k_num = (2 / grid.cell_size) * np.arcsin(arg)
    d = (grid.sheet_index - probe_r) * grid.cell_size
    reflection = ((shr_f[:, 0] - ref_f[:, 0]) / ref_f[:, 0]
                  * np.exp(-2j * k_num * d))
    eta0 = CODATA2018.free_space_impedance
    absorption = (eta0 * np.real(shr_f[:, 2] * np.conj(shr_f[:, 3]))
                  / np.abs(ref_f[:, 2]) ** 2)
    return SheetScatteringResult(frequencies=freqs, reflection=reflection,
                                 transmission=transmission,
                                 absorption=absorption)


def run_sheet_scattering(sheet: GrapheneSheet, grid: Grid1D,
                         band: tuple[float, float], points: int = 106
                         ) -> SheetScatteringResult:
    """FDTD scattering spectra of a graphene sheet over the band."""
    return run_drude_scattering(drude_weight(sheet), sheet.relaxation_time,
                                grid, band, points)


def analytic_sheet_coefficients(sheet: GrapheneSheet,
                                frequencies: Sequence[float] | np.ndarray
                                ) -> SheetScatteringResult:
    """Exact thin-sheet r/t/absorption from the material model."""
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size == 0:
        raise ValidationError("frequency grid must be non-empty")
    sigma = np.array([kubo_sigma(sheet, 2 * math.pi * f).value
                      for f in freqs])
    s = CODATA2018.free_space_impedance * sigma / 2
    transmission = 1 / (1 + s)
    reflection = -s / (1 + s)
    absorption = 2 * s.real * np.abs(transmission) ** 2
    return SheetScatteringResult(frequencies=freqs, reflection=reflection,
                                 transmission=transmission,
                                 absorption=absorption)


def compare_fdtd_analytic(sheet: GrapheneSheet, grid: Grid1D,
                          band: tuple[float, float],
                          points: int = 106) -> float:
    """Largest |r_fdtd - r_analytic| or |t_fdtd - t_analytic| over the band."""
    fdtd = run_sheet_scattering(sheet, grid, band, points)
    return max_abs_error(sheet, fdtd)


def max_abs_error(sheet: GrapheneSheet,
                  fdtd: SheetScatteringResult) -> float:
    """compare_fdtd_analytic's error measure for an existing FDTD result."""
    exact = analytic_sheet_coefficients(sheet, fdtd.frequencies)
    err_r = np.max(np.abs(fdtd.reflection - exact.reflection))
    err_t = np.max(np.abs(fdtd.transmission - exact.transmission))
    return float(max(err_r, err_t))


def refinement_study(sheet: GrapheneSheet, band: tuple[float, float],
                     resolutions: Sequence[int] = (100, 200, 400),
                     points: int = 106) -> list[tuple[int, float]]:
    """compare_fdtd_analytic at several resolutions, fixed physical layout."""
    return [(res, compare_fdtd_analytic(sheet, Grid1D.for_resolution(res),
                                        band, points))
            for res in resolutions]
