"""Equivalent-circuit cavity model of the patch antenna.

The patch is a parallel RLC resonator. Three loss channels set the quality
factor: dielectric (1/tan_delta), conductor (skin effect for bulk metal,
sheet resistance against the combined magnetic plus kinetic inductance for
graphene), and radiation through the two slot apertures. The radiating
slots are modeled with the standard slot conductance G1 = (1/90)(W/lambda0)^2
plus the mutual conductance of the slot pair at separation L + 2 dL,

    g12 = Int_0^pi B(theta) J0(k0 (L + 2 dL) sin theta) d_theta / Int_0^pi B d_theta,
    B(theta) = (sin((k0 W / 2) cos theta) / cos theta)^2 sin^3 theta,

so Q_radiation = w C / (2 G1 (1 + g12)) with the cavity capacitance
C = eps0 eps_eff L W / (2 h). Both g12 integrals use a fixed 64-point
Gauss-Legendre rule in theta, and J0 a 32-point midpoint rule on its
periodic integral; they agree with adaptive quadrature to about 1e-14
relative up to 5x the design frequency.

The feed is a fixed ideal transformer chosen once per geometry so that the
metal variant is matched to the 50 ohm reference at its resonance; graphene
variants then show up as mismatch, with shallower dips for lossier sheets.
S11 floors at -120 dB to keep logs finite at a perfect match.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .constants import CODATA2018
from .errors import ValidationError, require_frequency, require_grid
from .materials import GrapheneSheet, sheet_impedance
from .patch import PatchGeometry, f_res_metal, kinetic_pull

ALUMINUM_CONDUCTIVITY = 3.56e7  # S/m

THETA_NODES = 64   # Gauss-Legendre nodes of the g12 integrals on [0, pi]
BESSEL_NODES = 32  # midpoint nodes of J0(x) = (1/pi) Int_0^pi cos(x sin t) dt
_x, _w = np.polynomial.legendre.leggauss(THETA_NODES)
_THETA, _THETA_WEIGHT = (_x + 1) * (math.pi / 2), _w * (math.pi / 2)
_COS_THETA, _SIN_THETA = np.cos(_THETA), np.sin(_THETA)
_SIN_BESSEL = np.sin(math.pi * (np.arange(BESSEL_NODES) + 0.5) / BESSEL_NODES)

REFERENCE_IMPEDANCE = 50.0  # ohm
S11_FLOOR_DB = -120.0


@dataclass(frozen=True)
class ConductorSpec:
    """The patch conductor: a graphene sheet, or aluminum when sheet is None.

    Use the metal() / graphene() constructors.
    """

    sheet: GrapheneSheet | None = None

    @classmethod
    def metal(cls) -> "ConductorSpec":
        return cls()

    @classmethod
    def graphene(cls, sheet: GrapheneSheet) -> "ConductorSpec":
        if sheet is None:
            raise ValidationError("graphene conductor needs a sheet")
        return cls(sheet)


@dataclass(frozen=True)
class QFactors:
    """Loss bookkeeping; q_total is the harmonic combination."""

    q_radiation: float
    q_conductor: float
    q_dielectric: float
    q_total: float


@dataclass(frozen=True)
class SpectrumResult:
    """One frequency point of the reflection response."""

    frequency: float
    s11_db: float
    input_resistance: float
    input_reactance: float


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The reflection response sampled over a band, one array per quantity.

    Iterating yields the samples as SpectrumResult points of Python floats.
    """

    frequency: np.ndarray
    s11_db: np.ndarray
    input_resistance: np.ndarray
    input_reactance: np.ndarray

    def __len__(self) -> int:
        return len(self.frequency)

    def __iter__(self) -> Iterator[SpectrumResult]:
        return map(SpectrumResult, self.frequency.tolist(),
                   self.s11_db.tolist(), self.input_resistance.tolist(),
                   self.input_reactance.tolist())


@dataclass(frozen=True)
class AntennaReport:
    """Scalar summary of one antenna variant."""

    resonant_frequency: float
    min_s11_db: float
    bandwidth_minus10db: float
    efficiency: float
    directivity_dbi: float
    gain_dbi: float


def graphene_resonance(geometry: PatchGeometry,
                       conductor: ConductorSpec) -> float:
    """Resonance of the patch with its conductor, in Hz: the cavity
    resonance, divided by the kinetic pull for a graphene sheet."""
    f_metal = f_res_metal(geometry)
    if conductor.sheet is None:
        return f_metal
    return f_metal / kinetic_pull(conductor.sheet, geometry.substrate)


def _cavity_capacitance(geometry: PatchGeometry) -> float:
    return (CODATA2018.vacuum_permittivity * geometry.eps_eff
            * geometry.length * geometry.width
            / (2 * geometry.substrate.thickness))


@functools.lru_cache(maxsize=256)
def mutual_conductance_ratio(geometry: PatchGeometry,
                             frequency: float) -> float:
    """g12: mutual slot conductance relative to the self conductance.

    The slot pair sits at the effective resonant length L + 2 dL apart.
    Results are cached per (geometry, frequency): a sweep asks for the
    same few resonances of one geometry many times.
    """
    require_frequency(frequency, "frequency")
    k0 = 2 * math.pi * frequency / CODATA2018.light_speed
    k0w_half = k0 * geometry.width / 2
    sep = geometry.length + 2 * geometry.fringing_extension
    # sin(a cos t) / cos t = a sinc(a cos t / pi), exact at cos t = 0.
    with np.errstate(invalid="ignore"):
        amp = k0w_half * np.sinc(k0w_half * _COS_THETA / math.pi)
        base = _THETA_WEIGHT * amp * amp * _SIN_THETA ** 3
        j0 = np.cos(np.outer(k0 * sep * _SIN_THETA, _SIN_BESSEL)).mean(axis=1)
        g12 = float(base @ j0 / base.sum())
    if not math.isfinite(g12):  # k0 W or k0 sep out of double range
        raise ValidationError(f"is {g12:g}, out of double range", field="g12")
    return g12


def _require_double_range(**values: float) -> None:
    """Reject a geometry whose G1, Q, R_peak or n^2 is 0 or not finite."""
    for key, x in values.items():
        if not 0 < x < math.inf:
            raise ValidationError(f"is {x:g}, out of double range", field=key)


def q_factors(geometry: PatchGeometry, conductor: ConductorSpec,
              frequency: float) -> QFactors:
    """Radiation, conductor, and dielectric Q at the given frequency."""
    require_frequency(frequency, "frequency")
    w = 2 * math.pi * frequency
    h = geometry.substrate.thickness
    lam0 = CODATA2018.light_speed / frequency

    tan_d = geometry.substrate.loss_tangent
    q_diel = 1.0 / tan_d if tan_d else math.inf

    if conductor.sheet is None:
        r_skin = math.sqrt(w * CODATA2018.vacuum_permeability
                           / (2 * ALUMINUM_CONDUCTIVITY))
        q_cond = w * CODATA2018.vacuum_permeability * h / r_skin
    else:
        z = sheet_impedance(conductor.sheet)
        l_total = CODATA2018.vacuum_permeability * h + z.kinetic_inductance
        q_cond = w * l_total / z.sheet_resistance

    ratio = geometry.width / lam0   # ** raises OverflowError from 1.3e154
    g1 = (1.0 / 90.0) * ratio ** 2 if ratio < 1e154 else math.inf
    _require_double_range(g1=g1)    # g12's integrals are 0 / 0 at G1 = 0
    g12 = mutual_conductance_ratio(geometry, frequency)
    c = _cavity_capacitance(geometry)
    q_rad = w * c / (2 * g1 * (1 + g12))
    _require_double_range(q_radiation=q_rad, q_conductor=q_cond)

    q_total = 1.0 / (1.0 / q_rad + 1.0 / q_cond + 1.0 / q_diel)
    _require_double_range(q_total=q_total)
    return QFactors(q_radiation=q_rad, q_conductor=q_cond,
                    q_dielectric=q_diel, q_total=q_total)


def _resonator_parameters(geometry: PatchGeometry, conductor: ConductorSpec
                          ) -> tuple[float, float, float]:
    """(f_res, Q, R_peak) of the variant's parallel RLC equivalent."""
    f_res = graphene_resonance(geometry, conductor)
    q = q_factors(geometry, conductor, f_res).q_total
    c = _cavity_capacitance(geometry)
    r_peak = q / (2 * math.pi * f_res * c)
    return f_res, q, r_peak


def _transformer_ratio(geometry: PatchGeometry) -> float:
    """n^2 of the feed transformer that matches the metal variant to 50 ohm."""
    _, _, r_peak_metal = _resonator_parameters(geometry, ConductorSpec.metal())
    return r_peak_metal / REFERENCE_IMPEDANCE


def s11_spectrum(geometry: PatchGeometry, conductor: ConductorSpec,
                 band: tuple[float, float], points: int) -> Spectrum:
    """Reflection response over the band against the 50 ohm reference."""
    require_grid(band, points)
    f_res, q, r_peak = _resonator_parameters(geometry, conductor)
    n_sq = _transformer_ratio(geometry)
    _require_double_range(r_peak=r_peak, n_squared=n_sq)
    # numpy divides by n_sq as a product with 1 / n_sq: bound that product.
    _require_double_range(input_resistance=r_peak * (1 / n_sq))

    freqs = np.linspace(band[0], band[1], points)
    # 1 + i q detune, built so that a detuning that overflows far from the
    # resonance gives 1 + i inf (and z_in its limit 0), not 0 * inf = nan.
    denominator = np.ones(points, dtype=complex)
    with np.errstate(over="ignore"):
        denominator.imag = q * (freqs / f_res - f_res / freqs)
    z_in = (r_peak / denominator) / n_sq
    gamma = (z_in - REFERENCE_IMPEDANCE) / (z_in + REFERENCE_IMPEDANCE)
    with np.errstate(divide="ignore"):
        s11_db = 20 * np.log10(np.abs(gamma))
    s11_db = np.maximum(s11_db, S11_FLOOR_DB)
    return Spectrum(frequency=freqs, s11_db=s11_db,
                    input_resistance=z_in.real, input_reactance=z_in.imag)


def bandwidth_minus10db(spectrum: Spectrum) -> float:
    """Width of the -10 dB interval around the deepest dip, in Hz.

    Linear interpolation at the crossings; 0 when the dip never reaches
    -10 dB. If the dip region runs into the spectrum edge the edge
    frequency bounds the interval.
    """
    if len(spectrum) < 2:
        raise ValidationError("spectrum needs at least 2 points")
    if np.any(np.diff(spectrum.frequency) <= 0):
        raise ValidationError("spectrum must be sorted by frequency")
    threshold = -10.0
    i_min = int(np.argmin(spectrum.s11_db))
    if spectrum.s11_db[i_min] > threshold:
        return 0.0

    # The dip region: the run of samples at or below the threshold
    # that contains the deepest one.
    above = np.flatnonzero(spectrum.s11_db > threshold)
    lo = int(above[above < i_min].max(initial=-1)) + 1
    hi = int(above[above > i_min].min(initial=len(spectrum))) - 1

    freqs = spectrum.frequency.tolist()
    s11 = spectrum.s11_db.tolist()

    def crossing(i: int) -> float:
        """Where the line from sample i to sample i + 1 meets the threshold."""
        frac = (threshold - s11[i]) / (s11[i + 1] - s11[i])
        return freqs[i] + frac * (freqs[i + 1] - freqs[i])

    f_left = freqs[0] if lo == 0 else crossing(lo - 1)
    f_right = freqs[-1] if hi == len(s11) - 1 else crossing(hi)
    return f_right - f_left


def directivity_dbi(geometry: PatchGeometry, frequency: float) -> float:
    """Broadside directivity of the radiating aperture, in dBi.

    Frozen closed form 6.6 + 10 log10(3 W / lambda0): the slot directivity
    figure scaled by the aperture width in wavelengths. Chosen for the
    W ~ lambda0 regime of these designs; pattern details (lobe tilt,
    array factor of the slot pair) are out of scope.
    """
    require_frequency(frequency, "frequency")
    lam0 = CODATA2018.light_speed / frequency
    aperture = 3 * geometry.width / lam0
    _require_double_range(aperture=aperture)
    return 6.6 + 10 * math.log10(aperture)


def evaluate(geometry: PatchGeometry, conductor: ConductorSpec,
             band: tuple[float, float] = (220e9, 325e9),
             points: int = 211) -> tuple[AntennaReport, Spectrum]:
    """The antenna summary and the S11 spectrum it is read from.

    Efficiency is q_total/q_radiation at the variant's own resonance;
    directivity is evaluated there too. The dip depth and bandwidth come
    from the sampled spectrum over the band. The gain takes the log of each
    Q apart: on a thin, dense substrate the ratio underflows to 0 (q_total
    7e-145 over q_radiation 3e179 at 1 GHz, h 1e-150 m, eps_r 8e30).
    """
    spectrum = s11_spectrum(geometry, conductor, band, points)
    f_res = graphene_resonance(geometry, conductor)
    qf = q_factors(geometry, conductor, f_res)
    d_dbi = directivity_dbi(geometry, f_res)
    report = AntennaReport(
        resonant_frequency=f_res,
        min_s11_db=float(spectrum.s11_db.min()),
        bandwidth_minus10db=bandwidth_minus10db(spectrum),
        efficiency=qf.q_total / qf.q_radiation,
        directivity_dbi=d_dbi,
        gain_dbi=d_dbi + 10 * (math.log10(qf.q_total)
                               - math.log10(qf.q_radiation)),
    )
    return report, spectrum


def gain_report(geometry: PatchGeometry, conductor: ConductorSpec,
                band: tuple[float, float] = (220e9, 325e9),
                points: int = 211) -> AntennaReport:
    """Scalar antenna summary: resonance, dip, bandwidth, efficiency, gain."""
    return evaluate(geometry, conductor, band, points)[0]
