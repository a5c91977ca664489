"""Microstrip patch synthesis and inversion.

Reference values from tests/oracles.py.
"""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thzpatch import (BracketError, GrapheneSheet, InfeasibleDesignError,
                      PatchGeometry, SubstrateSpec, ValidationError,
                      design_patch, f_res_metal, graphene_resonance,
                      patch_for_target)
from thzpatch.patch import ConductorSpec

C0 = 299792458.0

REFERENCE_SUBSTRATE = SubstrateSpec(rel_permittivity=3.5, loss_tangent=0.0027,
                                    thickness=50e-6)


@pytest.fixture(scope="module")
def reference_design():
    return design_patch(280e9, REFERENCE_SUBSTRATE)


def test_reference_design_values(reference_design):
    g = reference_design
    assert g.width * 1e6 == pytest.approx(356.895783333, rel=1e-11)
    assert g.eps_eff == pytest.approx(3.01339340025, rel=1e-11)
    assert g.fringing_extension * 1e6 == pytest.approx(23.0990575811,
                                                       rel=1e-11)
    assert g.length * 1e6 == pytest.approx(262.195060799, rel=1e-11)
    assert g.substrate_width == 2 * g.width
    assert g.substrate_length == 2 * g.length


def test_design_roundtrips_exactly_at_target(reference_design):
    assert f_res_metal(reference_design) == pytest.approx(280e9, rel=1e-12)


def test_published_dimensions_resonate_in_band():
    g = PatchGeometry(355e-6, 262e-6, REFERENCE_SUBSTRATE)
    assert f_res_metal(g) / 1e9 == pytest.approx(280.247827393, rel=1e-11)


def test_homogeneous_limit():
    # eps_r -> 1: the quasi-TEM line degenerates to free space and the
    # width formula to the half wavelength.
    air = SubstrateSpec(1.0 + 1e-9, 0.0, 50e-6)
    g = design_patch(280e9, air)
    assert g.eps_eff == pytest.approx(1.0, abs=1e-8)
    assert g.width == pytest.approx(C0 / (2 * 280e9), rel=1e-9)


def test_half_frequency_scaling(reference_design):
    # Width scales exactly with wavelength; the length does not, because
    # h/W enters the effective permittivity.
    half = design_patch(140e9, REFERENCE_SUBSTRATE)
    assert half.width == pytest.approx(2 * reference_design.width, rel=1e-14)
    assert half.length * 1e6 == pytest.approx(553.882628918, rel=1e-11)
    assert half.length / reference_design.length == pytest.approx(
        2.11248307741, rel=1e-11)
    assert half.eps_eff == pytest.approx(3.17136664154, rel=1e-11)


@pytest.mark.parametrize("freq", [220e9, 280e9, 325e9])
def test_roundtrip_within_half_percent(freq):
    g = design_patch(freq, REFERENCE_SUBSTRATE)
    assert f_res_metal(g) == pytest.approx(freq, rel=5e-3)


@given(freq=st.floats(50e9, 2e12))
@settings(max_examples=60)
def test_roundtrip_property(freq):
    g = design_patch(freq, REFERENCE_SUBSTRATE)
    assert f_res_metal(g) == pytest.approx(freq, rel=5e-3)


@given(freq=st.floats(50e9, 1e12))
@settings(max_examples=40)
def test_length_falls_with_frequency(freq):
    a = design_patch(freq, REFERENCE_SUBSTRATE)
    b = design_patch(freq * 1.1, REFERENCE_SUBSTRATE)
    assert b.length < a.length


@given(width=st.floats(100e-6, 2000e-6))
def test_eps_eff_grows_with_width(width):
    g1 = PatchGeometry(width, width / 2, REFERENCE_SUBSTRATE)
    g2 = PatchGeometry(width * 1.2, width / 2, REFERENCE_SUBSTRATE)
    assert g2.eps_eff > g1.eps_eff
    assert 1 < g1.eps_eff < REFERENCE_SUBSTRATE.rel_permittivity


def test_doubling_length_lowers_f_by_less_than_half():
    g = PatchGeometry(900e-6, 200e-6, REFERENCE_SUBSTRATE)
    doubled = PatchGeometry(g.width, 2 * g.length, g.substrate)
    # The fringing term does not scale with L, so f(2L) > f(L)/2.
    assert f_res_metal(doubled) > f_res_metal(g) / 2
    assert f_res_metal(doubled) < f_res_metal(g)


def test_design_rejects_out_of_range_frequency():
    with pytest.raises(ValidationError):
        design_patch(0.5e9, REFERENCE_SUBSTRATE)
    with pytest.raises(ValidationError):
        design_patch(20e12, REFERENCE_SUBSTRATE)


def test_electrically_thick_substrate_is_infeasible():
    with pytest.raises(InfeasibleDesignError):
        design_patch(10e12, REFERENCE_SUBSTRATE)


def test_inverse_design_reference_values(reference_design):
    sheet = GrapheneSheet(1.2, 1.2e-12)
    resized = patch_for_target(280e9, REFERENCE_SUBSTRATE, sheet)
    assert resized.width == reference_design.width
    assert resized.length * 1e6 == pytest.approx(246.164265067, rel=1e-8)
    assert resized.length / reference_design.length == pytest.approx(
        0.938859276436, rel=1e-8)
    f_check = graphene_resonance(resized, ConductorSpec.graphene(sheet))
    assert abs(f_check - 280e9) <= 1e3


@pytest.mark.parametrize("f0", [150e9, 280e9, 600e9],
                         ids=["150GHz", "280GHz", "600GHz"])
@pytest.mark.parametrize("ef", [0.2, 0.6, 1.5])
def test_inverse_design_matches_oracle(ef, f0):
    sheet = GrapheneSheet(ef, 1.0e-12)
    conductor = ConductorSpec.graphene(sheet)
    for eps_r in (2.2, 3.5, 11.9):
        for h in (20e-6, 50e-6):
            substrate = SubstrateSpec(eps_r, 0.001, h)
            metal = design_patch(f0, substrate)
            resized = patch_for_target(f0, substrate, sheet)
            expected = oracles.inverse_length(f0, metal.width, eps_r, h, ef,
                                              metal.length)
            assert resized.length == pytest.approx(float(expected), rel=1e-12)
            assert graphene_resonance(resized, conductor) == pytest.approx(
                f0, rel=1e-12)


@given(ef=st.floats(0.05, 2.0), tau_ps=st.floats(0.05, 5.0),
       f0=st.floats(150e9, 600e9))
@settings(max_examples=40, deadline=None)
def test_inverse_design_always_shrinks(ef, tau_ps, f0):
    # Either the patch shrinks by at most half, or even the half-length
    # patch resonates below the target and the design is refused.
    sheet = GrapheneSheet(ef, tau_ps * 1e-12)
    metal = design_patch(f0, REFERENCE_SUBSTRATE)
    try:
        resized = patch_for_target(f0, REFERENCE_SUBSTRATE, sheet)
    except BracketError:
        half = PatchGeometry(metal.width, metal.length / 2,
                             REFERENCE_SUBSTRATE)
        assert graphene_resonance(half, ConductorSpec.graphene(sheet)) < f0
    else:
        assert metal.length / 2 <= resized.length < metal.length


def test_inverse_design_bracket_failure():
    # At 0.05 eV the kinetic inductance is so large that even the half
    # length patch resonates below target.
    with pytest.raises(BracketError):
        patch_for_target(280e9, REFERENCE_SUBSTRATE, GrapheneSheet(0.05, 1.2e-12))


def test_substrate_validation():
    with pytest.raises(ValidationError):
        SubstrateSpec(0.9, 0.0027, 50e-6)
    with pytest.raises(ValidationError):
        SubstrateSpec(3.5, 0.2, 50e-6)
    with pytest.raises(ValidationError):
        SubstrateSpec(3.5, 0.0027, 0.0)


# Every numeric input of the domain types, with a valid value for the rest.
FINITE_INPUTS = [
    (SubstrateSpec, {"rel_permittivity": 3.5, "loss_tangent": 0.0027,
                     "thickness": 50e-6}),
    (GrapheneSheet, {"fermi_level": 0.6, "relaxation_time": 0.6e-12,
                     "temperature": 300.0}),
    (functools.partial(PatchGeometry, substrate=REFERENCE_SUBSTRATE),
     {"width": 355e-6, "length": 262e-6}),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build, valid, field",
                         [(b, v, f) for b, v in FINITE_INPUTS for f in v],
                         ids=[f for _, v in FINITE_INPUTS for f in v])
def test_non_finite_inputs_are_rejected(build, valid, field, bad):
    build(**valid)
    with pytest.raises(ValidationError, match=rf"^{field} must be finite$") \
            as info:
        build(**{**valid, field: bad})
    assert info.value.field == field


def test_patch_geometry_validation():
    with pytest.raises(ValidationError):
        PatchGeometry(-355e-6, 262e-6, REFERENCE_SUBSTRATE)
    with pytest.raises(ValidationError):
        # length must stay below width for the fundamental mode handled here
        PatchGeometry(262e-6, 355e-6, REFERENCE_SUBSTRATE)


def test_patch_geometry_derives_eps_eff_and_fringing(reference_design):
    g = PatchGeometry(reference_design.width, reference_design.length,
                      REFERENCE_SUBSTRATE)
    assert g == reference_design  # eps_eff and fringing_extension included
    with pytest.raises(TypeError):
        PatchGeometry(355e-6, 262e-6, REFERENCE_SUBSTRATE, eps_eff=3.0)
