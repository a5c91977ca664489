"""Rectangular microstrip patch design equations.

The classical transmission-line design set: patch width from the radiation
conductance optimum, effective permittivity of the quasi-TEM line, fringing
length extension, and resonant length

    W     = c / (2 f) * sqrt(2 / (eps_r + 1))
    e_eff = (eps_r + 1)/2 + (eps_r - 1)/2 * (1 + 12 h / W)^(-1/2)
    dL    = 0.412 h (e_eff + 0.3)(W/h + 0.264) / ((e_eff - 0.258)(W/h + 0.8))
    L     = c / (2 f sqrt(e_eff)) - 2 dL

plus the inverse (resonant frequency of a given geometry) and an inverse
design that shrinks the length so a graphene patch, whose kinetic
inductance lowers the resonance, comes back up to a target frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CODATA2018
from .errors import (BracketError, ConvergenceError, InfeasibleDesignError,
                     ValidationError, require_finite)
from .materials import GrapheneSheet

FREQUENCY_RANGE_HZ = (1e9, 10e12)

BISECTION_MAX_ITER = 60
BISECTION_TOL_HZ = 1e3


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


@dataclass(frozen=True)
class PatchGeometry:
    """A designed patch with its derived electrical quantities.

    eps_eff and fringing_extension are consistent with width and the
    substrate; use patch_from_dimensions() rather than filling them by hand.
    The substrate outline is twice the patch size in each direction.
    """

    width: float
    length: float
    substrate: SubstrateSpec
    eps_eff: float
    fringing_extension: float

    def __post_init__(self) -> None:
        if not (self.width > self.length > 0):
            raise ValidationError("expected width > length > 0")
        if not (1 < self.eps_eff < self.substrate.rel_permittivity):
            raise ValidationError("eps_eff must lie between 1 and rel_permittivity")
        if self.fringing_extension <= 0:
            raise ValidationError("fringing_extension must be > 0")

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
    return 0.412 * h * (eps_eff + 0.3) * (w_h + 0.264) / (
        (eps_eff - 0.258) * (w_h + 0.8))


def patch_from_dimensions(width: float, length: float,
                          substrate: SubstrateSpec) -> PatchGeometry:
    """Build a PatchGeometry from measured dimensions.

    Derived quantities (effective permittivity, fringing extension) are
    computed from width and the substrate.
    """
    if width <= 0 or length <= 0:
        raise ValidationError("width and length must be > 0")
    eps_eff = _eps_eff(substrate.rel_permittivity, substrate.thickness, width)
    d_l = _fringing_extension(eps_eff, substrate.thickness, width)
    return PatchGeometry(width=width, length=length, substrate=substrate,
                         eps_eff=eps_eff, fringing_extension=d_l)


def design_patch(target_frequency: float,
                 substrate: SubstrateSpec) -> PatchGeometry:
    """Design a patch resonant at target_frequency (Hz) on the substrate.

    Raises InfeasibleDesignError when the fringing extension eats the whole
    resonant length (electrically thick substrate at this frequency).
    """
    lo, hi = FREQUENCY_RANGE_HZ
    if not (lo <= target_frequency <= hi):
        raise ValidationError(
            f"target_frequency {target_frequency:.4g} Hz outside "
            f"[{lo:.0e}, {hi:.0e}] Hz")
    c = CODATA2018.light_speed
    eps_r = substrate.rel_permittivity
    width = c / (2 * target_frequency) * math.sqrt(2 / (eps_r + 1))
    eps_eff = _eps_eff(eps_r, substrate.thickness, width)
    d_l = _fringing_extension(eps_eff, substrate.thickness, width)
    length = c / (2 * target_frequency * math.sqrt(eps_eff)) - 2 * d_l
    if length <= 0:
        raise InfeasibleDesignError(
            f"fringing extension 2*{d_l:.4g} m exceeds the half wavelength; "
            "substrate is electrically too thick at this frequency")
    return patch_from_dimensions(width, length, substrate)


def f_res_metal(geometry: PatchGeometry) -> float:
    """Fundamental resonance of a perfectly conducting patch, in Hz."""
    return CODATA2018.light_speed / (
        2 * (geometry.length + 2 * geometry.fringing_extension)
        * math.sqrt(geometry.eps_eff))


def patch_for_target(target_frequency: float, substrate: SubstrateSpec,
                     sheet: GrapheneSheet) -> PatchGeometry:
    """Shrink the patch length so a graphene patch resonates at the target.

    The width stays at the metal design value; the length is found by
    bisection on [L_metal/2, L_metal] until the graphene resonance is
    within 1 kHz of the target.

    The published reference design this toolkit was checked against
    reports a much shorter resized patch (220 um at 280 GHz, a 16 %
    length cut for a 6 % resonance shift); no first-order model
    reproduces that, and this function reports its own value (about
    246 um there) rather than tuning toward the reference.
    """
    from .circuit import ConductorSpec, graphene_resonance

    metal = design_patch(target_frequency, substrate)
    conductor = ConductorSpec.graphene(sheet)

    def resonance(length: float) -> float:
        geom = patch_from_dimensions(metal.width, length, substrate)
        return graphene_resonance(geom, conductor)

    lo, hi = metal.length / 2, metal.length
    f_lo = resonance(lo)
    if f_lo < target_frequency:
        raise BracketError(
            f"graphene resonance at half the metal length is "
            f"{f_lo / 1e9:.3f} GHz, still below the "
            f"{target_frequency / 1e9:.3f} GHz target")
    # Resonance decreases with length: f(lo) >= target >= f(hi).
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = resonance(mid)
        if abs(f_mid - target_frequency) <= BISECTION_TOL_HZ:
            return patch_from_dimensions(metal.width, mid, substrate)
        if f_mid > target_frequency:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not reach {BISECTION_TOL_HZ:.0f} Hz tolerance "
        f"in {BISECTION_MAX_ITER} iterations")
