"""Rectangular microstrip patch design equations.

The classical transmission-line design set: patch width from the radiation
conductance optimum, effective permittivity of the quasi-TEM line, fringing
length extension, and resonant length

    W     = c / (2 f) * sqrt(2 / (eps_r + 1))
    e_eff = (eps_r + 1)/2 + (eps_r - 1)/2 * (1 + 12 h / W)^(-1/2)
    dL    = 0.412 h (e_eff + 0.3)(W/h + 0.264) / ((e_eff - 0.258)(W/h + 0.8))
    L     = c / (2 f sqrt(e_eff)) - 2 dL

plus its inverse, the resonance of a given geometry. The patch conductor
is aluminum or a graphene sheet (ConductorSpec). A sheet's kinetic
inductance L_k adds to the line's magnetic inductance mu0 h and divides the
resonance by sqrt(1 + L_k / (mu0 h)) (graphene_resonance); the inverse
design keeps the metal width and solves for L at the target times that
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import CODATA2018
from .errors import (BracketError, InfeasibleDesignError, ValidationError,
                     require_finite)
from .materials import GrapheneSheet, sheet_impedance

FREQUENCY_RANGE_HZ = (1e9, 10e12)
# The metal variant's peak resistance scales as h^2: at 1e-158 m (1 GHz,
# eps_r 1e6) it is subnormal and the S11 spectrum overflows, and at
# 1e-300 m it is 0. Every input tried works from 1e-157 m up.
MIN_THICKNESS_M = 1e-150


@dataclass(frozen=True)
class SubstrateSpec:
    """Dielectric substrate: relative permittivity, loss tangent, thickness."""

    rel_permittivity: float
    loss_tangent: float
    thickness: float

    def __post_init__(self) -> None:
        require_finite(self, "rel_permittivity", "loss_tangent", "thickness")
        if self.rel_permittivity <= 1:
            raise ValidationError("must be > 1", field="rel_permittivity")
        if not (0 <= self.loss_tangent < 0.1):
            raise ValidationError("must be in [0, 0.1)", field="loss_tangent")
        if self.thickness <= 0:
            raise ValidationError("must be > 0", field="thickness")
        if self.thickness < MIN_THICKNESS_M:
            raise ValidationError(f"must be >= {MIN_THICKNESS_M:g} m",
                                  field="thickness")


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
class PatchGeometry:
    """A rectangular patch of the given width and length on a substrate.

    eps_eff and fringing_extension follow from the width and the substrate
    and are computed once, when the geometry is built. The substrate
    outline is twice the patch size in each direction.
    """

    width: float
    length: float
    substrate: SubstrateSpec
    eps_eff: float = field(init=False)
    fringing_extension: float = field(init=False)

    def __post_init__(self) -> None:
        require_finite(self, "width", "length")
        if not (self.width > self.length > 0):
            raise ValidationError("expected width > length > 0")
        h = self.substrate.thickness
        eps_eff = _eps_eff(self.substrate.rel_permittivity, h, self.width)
        object.__setattr__(self, "eps_eff", eps_eff)
        object.__setattr__(self, "fringing_extension",
                           _fringing_extension(eps_eff, h, self.width))

    @property
    def substrate_width(self) -> float:
        return 2 * self.width

    @property
    def substrate_length(self) -> float:
        return 2 * self.length


def _eps_eff(eps_r: float, h: float, width: float) -> float:
    return (eps_r + 1) / 2 + (eps_r - 1) / 2 / math.sqrt(1 + 12 * h / width)


def _fringing_extension(eps_eff: float, h: float, width: float) -> float:
    w_h = width / h
    d_l = 0.412 * h * (eps_eff + 0.3) * (w_h + 0.264) / (
        (eps_eff - 0.258) * (w_h + 0.8))
    if not math.isfinite(d_l):  # a product overflowed; the ratios cannot
        d_l = 0.412 * h * ((eps_eff + 0.3) / (eps_eff - 0.258)) * (
            (w_h + 0.264) / (w_h + 0.8) if w_h < math.inf else 1.0)
    return d_l


def _resonant_length(frequency: float, eps_eff: float,
                     fringing_extension: float) -> float:
    return (CODATA2018.light_speed / (2 * frequency * math.sqrt(eps_eff))
            - 2 * fringing_extension)


def kinetic_pull(sheet: GrapheneSheet, substrate: SubstrateSpec) -> float:
    """The factor by which the sheet lowers the resonance of a patch."""
    l_m = CODATA2018.vacuum_permeability * substrate.thickness
    return math.sqrt(1 + sheet_impedance(sheet).kinetic_inductance / l_m)


def require_design_frequency(frequency: float) -> None:
    """The design frequency rule of design_patch and the config."""
    lo, hi = FREQUENCY_RANGE_HZ
    if not lo <= frequency <= hi:
        raise ValidationError(f"must be within [{lo:.0e}, {hi:.0e}] Hz",
                              field="frequency")


def design_patch(target_frequency: float,
                 substrate: SubstrateSpec) -> PatchGeometry:
    """Design a patch resonant at target_frequency (Hz) on the substrate.

    Raises InfeasibleDesignError when the fringing extension eats the whole
    resonant length (electrically thick substrate at this frequency).
    """
    require_design_frequency(target_frequency)
    c = CODATA2018.light_speed
    eps_r = substrate.rel_permittivity
    width = c / (2 * target_frequency) * math.sqrt(2 / (eps_r + 1))
    eps_eff = _eps_eff(eps_r, substrate.thickness, width)
    d_l = _fringing_extension(eps_eff, substrate.thickness, width)
    length = _resonant_length(target_frequency, eps_eff, d_l)
    if length <= 0:
        raise InfeasibleDesignError(
            f"fringing extension 2*{d_l:.4g} m exceeds the half wavelength; "
            "substrate is electrically too thick at this frequency")
    return PatchGeometry(width, length, substrate)


def f_res_metal(geometry: PatchGeometry) -> float:
    """Fundamental resonance of a perfectly conducting patch, in Hz."""
    return CODATA2018.light_speed / (
        2 * (geometry.length + 2 * geometry.fringing_extension)
        * math.sqrt(geometry.eps_eff))


def graphene_resonance(geometry: PatchGeometry,
                       conductor: ConductorSpec) -> float:
    """Resonance of the patch with its conductor, in Hz: the cavity
    resonance, divided by the kinetic pull for a graphene sheet."""
    f_metal = f_res_metal(geometry)
    if conductor.sheet is None:
        return f_metal
    return f_metal / kinetic_pull(conductor.sheet, geometry.substrate)


def patch_for_target(target_frequency: float, substrate: SubstrateSpec,
                     sheet: GrapheneSheet) -> PatchGeometry:
    """Shrink the patch length so a graphene patch resonates at the target.

    The width, and so eps_eff and dL, stay at the metal design values, and
    the length solves the resonance equation in closed form. Raises
    BracketError when it is shorter than half the metal length.

    The published reference design this toolkit was checked against
    reports a much shorter resized patch (220 um at 280 GHz, a 16 %
    length cut for a 6 % resonance shift); no first-order model
    reproduces that, and this function reports its own value (about
    246 um there) rather than tuning toward the reference.
    """
    metal = design_patch(target_frequency, substrate)
    pull = kinetic_pull(sheet, substrate)
    length = _resonant_length(target_frequency * pull, metal.eps_eff,
                              metal.fringing_extension)
    if length < metal.length / 2:
        half = PatchGeometry(metal.width, metal.length / 2, substrate)
        f_half = graphene_resonance(half, ConductorSpec.graphene(sheet))
        raise BracketError(
            f"graphene resonance at half the metal length is "
            f"{f_half / 1e9:.3f} GHz, still below the "
            f"{target_frequency / 1e9:.3f} GHz target")
    return PatchGeometry(metal.width, length, substrate)
