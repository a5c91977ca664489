"""Graphene sheet electromagnetic properties from electronic parameters.

The free-carrier (intraband) response of graphene in the lower THz band is
Drude-like: sigma(w) = A * i / (w + i/tau), with the weight

    A = (2 e^2 k_B T / (pi hbar^2)) * ln[2 cosh(E_F / (2 k_B T))]

set by Fermi level and temperature. This module computes that conductivity,
the equivalent frequency-independent sheet resistance / kinetic inductance
pair, and the mobility relation mu = tau e v_F^2 / E_F used to translate
scattering time into a material quality figure.

Conventions: exp(-i w t) time dependence, so the inductive sheet has
Im(sigma) > 0. Fermi level is carried in eV and relaxation time in seconds;
all other quantities are SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CODATA2018
from .errors import ValidationError, require_finite, require_frequency

FERMI_LEVEL_RANGE_EV = (0.05, 2.0)
RELAXATION_RANGE_S = (0.05e-12, 5.0e-12)
# drude_weight's prefactor 2 e^2 k_B T / (pi hbar^2) goes subnormal below
# about 3e-248 K: at 1e-255 K the weight is off by 3e-9, and from 1e-265 K
# it is 0, so the sheet impedance divides by zero; above 1e301 K it is inf.
MIN_TEMPERATURE_K = 1e-240
MAX_TEMPERATURE_K = 1e300


@dataclass(frozen=True)
class GrapheneSheet:
    """Electronic state of a graphene sheet.

    fermi_level is the chemical potential of the carriers in eV (gate
    tunable), relaxation_time the carrier scattering time in seconds,
    temperature in kelvin.
    """

    fermi_level: float
    relaxation_time: float
    temperature: float = 300.0

    def __post_init__(self) -> None:
        require_finite(self, "fermi_level", "relaxation_time", "temperature")
        lo, hi = FERMI_LEVEL_RANGE_EV
        if not (lo <= self.fermi_level <= hi):
            raise ValidationError(
                f"{self.fermi_level} eV outside accepted range "
                f"[{lo}, {hi}] eV", field="fermi_level")
        lo, hi = RELAXATION_RANGE_S
        if not (lo <= self.relaxation_time <= hi):
            raise ValidationError(
                f"{self.relaxation_time} s outside accepted range "
                f"[{lo:.0e}, {hi:.0e}] s", field="relaxation_time")
        if self.temperature <= 0:
            raise ValidationError("must be > 0 K", field="temperature")
        if self.temperature < MIN_TEMPERATURE_K:
            raise ValidationError(f"must be >= {MIN_TEMPERATURE_K:g} K",
                                  field="temperature")
        if self.temperature > MAX_TEMPERATURE_K:
            raise ValidationError(f"must be <= {MAX_TEMPERATURE_K:g} K",
                                  field="temperature")


@dataclass(frozen=True)
class SheetConductivity:
    """Complex surface conductivity in S per square, for exp(-i w t)."""

    real_part: float
    imag_part: float

    def __post_init__(self) -> None:
        require_finite(self, "real_part", "imag_part")

    @property
    def value(self) -> complex:
        return complex(self.real_part, self.imag_part)


@dataclass(frozen=True)
class SheetImpedance:
    """Series R-L equivalent of the Drude sheet, per square.

    Both members are frequency independent: R_s = 1/(A tau) and
    L_k = 1/A, where A is the Drude weight.
    """

    sheet_resistance: float
    kinetic_inductance: float

    def __post_init__(self) -> None:
        if self.sheet_resistance <= 0 or self.kinetic_inductance <= 0:
            raise ValidationError("sheet impedance members must be > 0")


def drude_weight(sheet: GrapheneSheet) -> float:
    """Drude weight A in S/s.

    Uses ln(2 cosh x) = x + ln(1 + exp(-2x)) for large x so that cold or
    strongly doped sheets do not overflow.
    """
    e = CODATA2018.electron_charge
    x = sheet.fermi_level * e / (2 * CODATA2018.boltzmann * sheet.temperature)
    if x > 20.0:
        ln_2cosh = x + math.log1p(math.exp(-2 * x))
    else:
        ln_2cosh = math.log(2 * math.cosh(x))
    prefactor = (2 * e**2 * CODATA2018.boltzmann * sheet.temperature
                 / (math.pi * CODATA2018.reduced_planck**2))
    return prefactor * ln_2cosh


def kubo_sigma(sheet: GrapheneSheet,
               angular_frequency: float) -> SheetConductivity:
    """Intraband surface conductivity at angular frequency w (rad/s)."""
    require_frequency(angular_frequency, "angular_frequency")
    a = drude_weight(sheet)
    sigma = a * 1j / (angular_frequency + 1j / sheet.relaxation_time)
    return SheetConductivity(sigma.real, sigma.imag)


def sheet_impedance(sheet: GrapheneSheet) -> SheetImpedance:
    """Frequency-independent R_s and L_k of the Drude sheet."""
    a = drude_weight(sheet)
    return SheetImpedance(sheet_resistance=1.0 / (a * sheet.relaxation_time),
                          kinetic_inductance=1.0 / a)


def mobility(sheet: GrapheneSheet) -> float:
    """Carrier mobility mu = tau e v_F^2 / E_F, in cm^2/(V s)."""
    ef_joule = sheet.fermi_level * CODATA2018.electron_charge
    mu_si = (sheet.relaxation_time * CODATA2018.electron_charge
             * CODATA2018.fermi_velocity**2 / ef_joule)
    return mu_si * 1e4


def relaxation_from_mobility(mobility_cm2: float, fermi_level: float) -> float:
    """Scattering time in seconds from mobility (cm^2/(V s)) and E_F (eV).

    Inverse of mobility(); the pair round-trips to double precision.
    """
    mu_si = mobility_cm2 * 1e-4
    ef_joule = fermi_level * CODATA2018.electron_charge
    tau = mu_si * ef_joule / (CODATA2018.electron_charge
                              * CODATA2018.fermi_velocity**2)
    if not (mobility_cm2 > 0 and fermi_level > 0 and 0 < tau < math.inf):
        raise ValidationError("mobility and fermi_level must be > 0 and give "
                              f"a relaxation time in double range, not {tau:g}"
                              " s")
    return tau
