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

Every update of the scheme is linear and time-invariant, so the sheet is
solved by superposition (the discrete Green's function view of FDTD). Each
grid is marched twice without a sheet: the source run, which is also the
reference, and the kick run, a unit field added at the sheet node in the
first step. Neither depends on the sheet, so both are marched once per
grid, as long as the longest run asked for so far, and each run takes a
slice. The sheet run is the source run plus the kick run's response to the
corrections that the sheet update makes at its node. That update has
constant coefficients, so the corrections solve one power-series division,
by Newton iteration in FFT products: no sheet run marches the grid or loops
over its steps. The spectra are taken in two levels, an inner kernel over
about sqrt(steps) samples times outer phases over the blocks, so about
2 sqrt(steps) exponentials are evaluated per frequency, not steps.

Absorption is measured independently as the Joule spectrum of the sheet,
eta0 Re(E J*) / |E_ref|^2, which makes the energy balance
|r|^2 + |t|^2 + A = 1 a genuine cross-check of the scheme rather than an
arithmetic identity.

The analytic target for a free-standing thin sheet at normal incidence is
r = -s/(1+s), t = 1/(1+s) with s = eta0 sigma / 2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import CODATA2018
from .errors import (InstabilityError, ValidationError, require_frequency,
                     require_grid)
from .materials import RELAXATION_RANGE_S, GrapheneSheet, drude_weight

DESIGN_F_MAX = 325e9            # resolution counts cells per wavelength here
SOURCE_CENTER_HZ = 272.5e9
SOURCE_WIDTH_S = 1.0 / (2 * math.pi * SOURCE_CENTER_HZ)
SOURCE_DELAY_S = 6 * SOURCE_WIDTH_S
SOURCE_PEAK = math.exp(-0.5)    # max of t exp(-t^2/2)
INSTABILITY_FACTOR = 1e6
# Up to this Drude weight (S/s) a superposed run is within 1e-12 of each
# row's peak of a direct march, at resolutions 100-400 and tau 0.05-5 ps.
MAX_DRUDE_WEIGHT = 7e11     # 2.35e11 at 2 eV and 300 K
RINGDOWN_TAUS = 16.0
RINGDOWN_WIDTHS = 8.0
BASE_RESOLUTION = 100
# Cost grows faster than the resolution: the two sheet-free marches take
# cells x steps. At tau = 5 ps and 1000 points, a first run at resolution 400
# takes 0.6 s of CPU and 44 MiB peak, at 1600 1.5-2.1 s and 58 MiB (median
# of 5 fresh processes, user + system; Python 3.11, numpy 2.4, 2-vCPU VM).
MAX_RESOLUTION = 1600
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


def _march(grid: Grid1D, node: int, drive: Sequence[float]) -> np.ndarray:
    """March the sheet-free grid, adding drive[n] to E at `node` in step n.

    The drive goes in after the curl update and before the Mur update.
    Rows: E at probe_r and probe_t at the end of each step, and E at the
    sheet node after the curl update and before the drive.
    """
    eps0 = CODATA2018.vacuum_permittivity
    mu0 = CODATA2018.vacuum_permeability
    c = CODATA2018.light_speed
    dx, dt = grid.cell_size, grid.time_step
    n_sh = grid.sheet_index
    _, probe_r, probe_t = _layout(grid)

    ez = np.zeros(grid.cell_count)
    hy = np.zeros(grid.cell_count - 1)
    ch = dt / (mu0 * dx)
    ce = dt / (eps0 * dx)
    beta = (c * dt - dx) / (c * dt + dx)

    # The differences go into buffers made once, and each step is one row
    # of rec, with fewer temporaries per step than whole-array expressions.
    dh = np.empty(hy.size)
    de = np.empty(ez.size - 2)
    ez_hi, ez_lo, ez_in = ez[1:], ez[:-1], ez[1:-1]
    hy_hi, hy_lo = hy[1:], hy[:-1]
    item, subtract = ez.item, np.subtract
    rec = np.empty((len(drive), 3))
    for n, d in enumerate(drive):
        subtract(ez_hi, ez_lo, dh)
        dh *= ch
        hy += dh
        ez_l, ez_r = item(1), item(-2)
        ez0_old, ezn_old = item(0), item(-1)
        subtract(hy_hi, hy_lo, de)
        de *= ce
        ez_in += de
        e_sh = item(n_sh)
        ez[node] += d
        ez[0] = ez_l + beta * (item(1) - ez0_old)
        ez[-1] = ez_r + beta * (item(-2) - ezn_old)
        rec[n] = (item(probe_r), item(probe_t), e_sh)
    return np.ascontiguousarray(rec.T)


# Sheet-free records by grid, least recently used first.
_REFERENCES: dict[Grid1D, np.ndarray] = {}
_REFERENCES_LOCK = threading.Lock()
REFERENCE_GRIDS = 4     # 6 rows, 4 x 2.4 MB at resolution 1600, tau = 5 ps


def _step_count(grid: Grid1D, tau: float) -> int:
    """Steps of a run: source delay, transit of the grid, then ringdown."""
    transit = grid.cell_count * grid.cell_size / CODATA2018.light_speed
    t_end = (SOURCE_DELAY_S + transit + RINGDOWN_TAUS * tau
             + RINGDOWN_WIDTHS * SOURCE_WIDTH_S)
    return int(math.ceil(t_end / grid.time_step))


def _reference(grid: Grid1D, n_steps: int) -> np.ndarray:
    """The grid's two sheet-free records of n_steps, marched once per grid.

    Rows 0-2 are _march's rows for the source run, the differentiated
    Gaussian driven at the source node; rows 3-5 are those of the kick
    run, a unit drive at the sheet node in step 0 only. Row 5 is then the
    kernel G: the field that a unit correction at the sheet in step m
    leaves there, after the curl update, in step m + k.

    Neither run depends on the sheet, and a shorter march is a prefix of a
    longer one. So each grid keeps one read-only record, as long as the
    longest run asked for so far, and a run takes a slice.
    """
    with _REFERENCES_LOCK:
        rec = _REFERENCES.pop(grid, None)
        if rec is None or rec.shape[1] < n_steps:
            dt = grid.time_step
            tts = [((n + 1) * dt - SOURCE_DELAY_S) / SOURCE_WIDTH_S
                   for n in range(n_steps)]
            pulse = [tt * math.exp(-0.5 * tt * tt) for tt in tts]
            kick = [1.0] + [0.0] * (n_steps - 1)
            rec = np.vstack((_march(grid, _layout(grid)[0], pulse),
                             _march(grid, grid.sheet_index, kick)))
            rec.flags.writeable = False
        _REFERENCES[grid] = rec
        while len(_REFERENCES) > REFERENCE_GRIDS:
            del _REFERENCES[next(iter(_REFERENCES))]
    return rec[:, :n_steps]


def _inverse(q: np.ndarray) -> np.ndarray:
    """The power series 1/q to len(q) terms: y <- y + y (1 - q y) mod z^2k
    doubles the correct terms of y (Brent and Kung, J. ACM 25(4), 1978).
    Both products are cyclic FFTs of size 2k: the wrap of q y lands on its
    first k terms, which are 1, 0, 0, ... and are not read."""
    y = np.array([1 / q[0]])
    while y.size < q.size:
        k, n = y.size, 2 * y.size
        fy = np.fft.rfft(y, n)
        high = np.fft.irfft(np.fft.rfft(q[:n], n) * fy, n)[k:]
        y = np.append(y, -np.fft.irfft(fy * np.fft.rfft(high, n), n)[:k])
    return y[:q.size]


def _sheet(grid: Grid1D, drude_a: float, tau: float,
           rec: np.ndarray) -> np.ndarray:
    """The sheet run from _reference's record, by superposition.

    Every update of the grid is linear and time-invariant, so the sheet
    run is the source run plus the grid's response to the corrections
    delta that the sheet update makes to E at its node. The field the curl
    update leaves there is then C = ref + G delta, G the kick row. In
    z^-1, with A = 1 - exp(-dt/tau) z^-1, the current update reads
    A J = h (1 + z^-1) X for the sheet field X, and the field update
    P X = A C, P = (1 + g/4 + g/4 z^-1) A + j h (z^-1 + z^-2). So Y = X / A
    solves (P - G N) Y = ref with N = A - P, and X = A Y, J = h (1 + z^-1) Y
    and delta = X - C = N Y. Rows: E at probe_r and probe_t, X, and J.
    """
    eps0 = CODATA2018.vacuum_permittivity
    dx, dt = grid.cell_size, grid.time_step
    exp_fac = math.exp(-dt / tau)
    drive_fac = drude_a * tau * (1 - exp_fac)
    g = drive_fac * dt / (eps0 * dx)
    jh = (dt / (4 * eps0 * dx)) * (1 + exp_fac) * drive_fac
    a = np.array([1.0, -exp_fac, 0.0])
    p = (1 + g / 4) * a + np.array([0.0, g / 4 + jh, jh - g / 4 * exp_fac])
    n_taps = a - p      # exactly 0 for drude_a = 0: the vacuum run is exact

    n_steps = rec.shape[1]
    q = -np.convolve(rec[5], n_taps)[:n_steps]
    q[:3] += p[:n_steps]
    # Each product is a linear convolution cut to n_steps, taken by FFT at
    # a power of two of at least 2 n_steps, so the wrap misses the cut.
    size = 1 << (2 * n_steps - 1).bit_length()
    y = np.fft.irfft(np.fft.rfft(rec[2], size)
                     * np.fft.rfft(_inverse(q), size), size)[:n_steps]
    e_sh = np.convolve(y, a)[:n_steps]
    # The first step past the guard, or with a NaN, as a march would stop.
    over = np.flatnonzero(~(np.abs(e_sh) <= INSTABILITY_FACTOR * SOURCE_PEAK))
    if over.size:
        raise InstabilityError(
            f"field at the sheet node exceeded {INSTABILITY_FACTOR:.0e} "
            f"times the source peak at step {over[0]}")
    js = drive_fac / 2 * np.convolve(y, (1.0, 1.0))[:n_steps]
    delta = np.convolve(y, n_taps)[:n_steps]
    scattered = np.fft.irfft(np.fft.rfft(rec[3:5], size)
                             * np.fft.rfft(delta, size), size)
    return np.vstack((rec[:2] + scattered[:, :n_steps], e_sh, js))


def _spectra(rec: np.ndarray, freqs: np.ndarray, dt: float) -> np.ndarray:
    """DFT of each recorded row at the sample times (n+1) dt, in two levels.

    With n = j B + m and B about sqrt(n_steps), the kernel factors as
    exp(2 pi i f (m+1) dt) exp(2 pi i f j B dt): an inner kernel of
    points x B and outer phases of points x J. So about 2 sqrt(n_steps)
    exponentials per frequency are evaluated, not n_steps, and a row's
    intermediate is points x J.
    """
    rows, n_steps = rec.shape
    inner = max(1, math.isqrt(n_steps))
    blocks = -(-n_steps // inner)
    padded = np.zeros((rows, blocks * inner))
    padded[:, :n_steps] = rec
    phase = 2j * np.pi * freqs[:, None]
    kernel = np.exp(phase * ((np.arange(inner) + 1) * dt))
    outer = np.exp(phase * (np.arange(blocks) * (inner * dt)))
    return np.stack([np.einsum("pj,pj->p", outer,
                               kernel @ row.reshape(blocks, inner).T)
                     for row in padded], axis=1) * dt


def run_drude_scattering(drude_a: float, tau: float, grid: Grid1D,
                         band: tuple[float, float], points: int = 106
                         ) -> SheetScatteringResult:
    """Scattering spectra of a Drude sheet with weight drude_a (S/s).

    The sheet run is solved by superposition on the grid's cached source
    and kick runs (_reference, _sheet), so a run on a warm grid marches
    nothing. drude_a = 0 runs the vacuum check: the sheet solve still runs,
    but every correction it makes is 0, so the sheet run is the reference to
    the bit, r is 0 exactly and t is 1 to round-off.
    """
    # Before anything is allocated: the step count grows with tau.
    if not (0 <= drude_a <= MAX_DRUDE_WEIGHT
            and 0 < tau <= RELAXATION_RANGE_S[1]):
        raise ValidationError(
            f"need finite drude_a in [0, {MAX_DRUDE_WEIGHT:g}] S/s and tau "
            f"in (0, {RELAXATION_RANGE_S[1]:g}] s")
    require_grid(band, points)
    for f in band:
        x = f / SOURCE_CENTER_HZ
        # Spectrum of the differentiated Gaussian relative to its peak.
        if x * math.exp((1 - x * x) / 2) < 0.1:
            raise ValidationError(
                f"{f / 1e9:.1f} GHz is outside the source's -20 dB support")
    freqs = np.linspace(band[0], band[1], points)

    rec = _reference(grid, _step_count(grid, tau))
    shr = _sheet(grid, drude_a, tau, rec)
    spectra = _spectra(np.vstack((rec[:3], shr)), freqs, grid.time_step)
    ref_f, shr_f = spectra[:, :3], spectra[:, 3:]

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
    drude_a = drude_weight(sheet)   # past the bound only far above 300 K
    if not drude_a <= MAX_DRUDE_WEIGHT:
        raise ValidationError(
            f"the {sheet.fermi_level:g} eV sheet at {sheet.temperature:g} K "
            f"has Drude weight {drude_a:.3g} S/s, above {MAX_DRUDE_WEIGHT:g}")
    return run_drude_scattering(drude_a, sheet.relaxation_time, grid, band,
                                points)


def analytic_sheet_coefficients(sheet: GrapheneSheet,
                                frequencies: Sequence[float] | np.ndarray
                                ) -> SheetScatteringResult:
    """Exact thin-sheet r/t/absorption from the material model."""
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size == 0:
        raise ValidationError("frequency grid must be non-empty")
    with np.errstate(over="ignore"):
        omega = 2 * math.pi * freqs
    # kubo_sigma's frequency rule and formula, on the whole array; a NaN
    # reaches both ends, and so does an omega that overflowed to inf.
    for end in (omega.min(), omega.max()):
        require_frequency(float(end), "angular_frequency")
    sigma = drude_weight(sheet) * 1j / (omega + 1j / sheet.relaxation_time)
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
