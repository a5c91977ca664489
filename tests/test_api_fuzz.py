"""Fuzz the public API: constructors and functions, hostile numbers.

The CLI builds every geometry through design_patch and every sheet through
GrapheneSheet, so its fuzz cannot reach much of what the API accepts. Here
each draw calls the package directly and must either return finite values
or raise a ThzPatchError; pyproject.toml turns any RuntimeWarning into an
error. Two infinities are documented results, not faults: q_dielectric of
a lossless substrate (tan delta = 0) and propagation_length of a lossless
sheet (Re sigma = 0). Each also overflows to inf when the loss is so small
that its reciprocal leaves double range.

A draw gives each argument either a value from its accepted domain, so
that it reaches the numerics, or a hostile one: nan, inf, negatives, 0,
subnormals, and magnitudes from 1e-320 to 1e308. Sizes stay small, so
every accepted draw is cheap: spectra have <= 30 points, and the FDTD runs
at resolution 100 with <= 5 points.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzpatch import (ConductorSpec, DielectricHalfspaces, GrapheneSheet,
                      Grid1D, NoBoundModeError, PatchGeometry,
                      SheetConductivity, SubstrateSpec, ThzPatchError,
                      ValidationError, analytic_sheet_coefficients,
                      confinement_sweep, design_patch, directivity_dbi,
                      drude_weight, evaluate, f_res_metal, graphene_resonance,
                      kubo_sigma, mobility, mutual_conductance_ratio,
                      patch_for_target, q_factors, relaxation_from_mobility,
                      run_drude_scattering, run_sheet_scattering,
                      s11_spectrum, sheet_impedance, spp_wavenumber_asymmetric,
                      spp_wavenumber_symmetric)
from thzpatch.fdtd import MAX_DRUDE_WEIGHT

NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0,
                     5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(1e-320, 1e308, allow_nan=False),
)
COUNTS = st.one_of(st.integers(2, 30),
                   st.sampled_from([-1, 0, 1, 1001, 10**9]))


def domain(lo, hi):
    """A value in [lo, hi], or a hostile one."""
    return st.one_of(st.floats(lo, hi), NUMBERS)


def bands(lo, hi):
    return st.tuples(domain(lo, hi), domain(lo, hi)).map(sorted).map(tuple)


FERMI = domain(0.05, 2.0)
TAU = domain(0.05e-12, 5e-12)
TEMPERATURE = st.one_of(st.sampled_from([300.0, 4.0, 1e-240, 1e6]),
                        NUMBERS)
FREQUENCY = domain(1e9, 10e12)


def assert_finite(value, allowed=(), path="result"):
    """Every number in value is finite, apart from the fields in allowed."""
    if isinstance(value, (int, float, complex)):
        assert path.rsplit(".", 1)[-1] in allowed or cmath.isfinite(value), \
            (path, value)
    elif isinstance(value, np.ndarray):
        assert np.all(np.isfinite(value)), (path, value)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            assert_finite(getattr(value, field.name), allowed,
                          f"{path}.{field.name}")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            assert_finite(item, allowed, f"{path}[{i}]")


def call(fn, *args, allowed=()):
    """fn(*args), which must be finite; None if it raised a ThzPatchError."""
    try:
        result = fn(*args)
    except ThzPatchError:
        return None
    assert_finite(result, allowed, fn.__name__)
    return result


@settings(max_examples=300, deadline=None)
@given(fermi=FERMI, tau=TAU, temperature=TEMPERATURE,
       frequency=FREQUENCY, mobility_cm2=domain(1e2, 1e6),
       freqs=st.lists(FREQUENCY, max_size=30))
def test_materials_survive_hostile_inputs(fermi, tau, temperature, frequency,
                                          mobility_cm2, freqs):
    call(relaxation_from_mobility, mobility_cm2, fermi)
    sheet = call(GrapheneSheet, fermi, tau, temperature)
    if sheet is None:
        return
    for fn in (drude_weight, sheet_impedance, mobility):
        call(fn, sheet)
    call(kubo_sigma, sheet, 2 * math.pi * frequency)
    call(analytic_sheet_coefficients, sheet, freqs)


@settings(max_examples=300, deadline=None)
@given(eps_r=domain(1.0001, 12.0), tan_d=domain(0.0, 0.0999),
       h=domain(1e-6, 1e-3), f0=FREQUENCY, width=domain(1e-5, 1e-2),
       length=domain(1e-5, 1e-2), graphene=st.booleans(), fermi=FERMI,
       tau=TAU, temperature=TEMPERATURE, band=bands(1e9, 10e12),
       points=COUNTS)
def test_patch_and_circuit_survive_hostile_inputs(eps_r, tan_d, h, f0, width,
                                                  length, graphene, fermi,
                                                  tau, temperature, band,
                                                  points):
    substrate = call(SubstrateSpec, eps_r, tan_d, h)
    if substrate is None:
        return
    sheet = call(GrapheneSheet, fermi, tau, temperature)
    call(design_patch, f0, substrate)
    if sheet is not None:
        call(patch_for_target, f0, substrate, sheet)
    geometry = call(PatchGeometry, width, length, substrate)
    if geometry is None or (graphene and sheet is None):
        return
    conductor = (ConductorSpec.graphene(sheet) if graphene
                 else ConductorSpec.metal())
    call(f_res_metal, geometry)
    call(graphene_resonance, geometry, conductor)
    call(mutual_conductance_ratio, geometry, f0)
    call(directivity_dbi, geometry, f0)
    call(q_factors, geometry, conductor, f0, allowed=("q_dielectric",))
    call(evaluate, geometry, conductor, band, points)


LOSSLESS = ("propagation_length",)


def confinement_solutions(*args):
    """confinement_sweep's solutions. A failed cell carries its error text
    instead, and echoes its frequency, which may be a hostile value."""
    return [cell.solution for cell in confinement_sweep(*args)]


@settings(max_examples=300, deadline=None)
@given(real=NUMBERS, imag=NUMBERS, eps=domain(1.0, 12.0),
       eps_above=domain(1.0, 12.0), eps_below=domain(1.0, 12.0),
       frequency=FREQUENCY, fermi=FERMI, tau=TAU,
       freqs=st.lists(FREQUENCY, max_size=5))
def test_spp_solvers_survive_hostile_inputs(real, imag, eps, eps_above,
                                            eps_below, frequency, fermi, tau,
                                            freqs):
    w = 2 * math.pi * frequency
    sigma = call(SheetConductivity, real, imag)
    if sigma is not None:
        call(spp_wavenumber_symmetric, sigma, eps, w, allowed=LOSSLESS)
        halfspaces = call(DielectricHalfspaces, eps_above, eps_below)
        if halfspaces is not None:
            call(spp_wavenumber_asymmetric, sigma, halfspaces, w,
                 allowed=LOSSLESS)
    sheet = call(GrapheneSheet, fermi, tau)
    if sheet is not None:
        call(confinement_solutions, [sheet], freqs, eps, allowed=LOSSLESS)


@settings(max_examples=100, deadline=None)
@given(drude_a=domain(0.0, MAX_DRUDE_WEIGHT), tau=TAU, fermi=FERMI,
       temperature=TEMPERATURE,
       band=st.one_of(st.just((220e9, 325e9)), bands(220e9, 325e9)),
       points=st.one_of(st.integers(2, 5), st.sampled_from([-1, 0, 1, 1001])),
       resolution=st.one_of(st.just(100), st.sampled_from([99, 1601, 10**9])))
def test_fdtd_survives_hostile_inputs(drude_a, tau, fermi, temperature, band,
                                      points, resolution):
    grid = call(Grid1D, resolution)
    if grid is None:
        return
    call(run_drude_scattering, drude_a, tau, grid, band, points)
    sheet = call(GrapheneSheet, fermi, tau, temperature)
    if sheet is not None:
        call(run_sheet_scattering, sheet, grid, band, points)


# Inputs the fuzz found. Each one failed at the commit before its mend,
# with a nan or inf result, a RuntimeWarning or a ZeroDivisionError.

MAX_DOUBLE = 1.7976931348623157e308
PATCH = design_patch(280e9, SubstrateSpec(3.5, 0.0027, 50e-6))
METAL = ConductorSpec.metal()
WIDE = (1e173, 5e172, SubstrateSpec(2.0, 0.0, 1e-142))   # W/h overflows


def test_fringing_extension_survives_an_overflowing_width_ratio():
    # (W/h + 0.264) / (W/h + 0.8) was inf / inf; its limit is 1.
    wide = PatchGeometry(*WIDE)
    assert wide.eps_eff == 2.0
    assert wide.fringing_extension \
        == pytest.approx(0.412e-142 * 2.3 / 1.742, rel=1e-15)
    assert 0 < f_res_metal(wide) < math.inf
    # 0.412 h (eps_eff + 0.3) overflows on the thickest substrate.
    thick = PatchGeometry(0.0078, 0.0041,
                          SubstrateSpec(4.85, 0.07, MAX_DOUBLE))
    assert 0 < thick.fringing_extension < math.inf


@pytest.mark.parametrize("fn, args, error, message", [
    # numpy divides z_in by n^2 as z_in * (1 / n^2), and n^2 is subnormal.
    (evaluate, (PatchGeometry(8.3e94, 4.3e94, SubstrateSpec(1.0001, 0.0,
                                                            2.9e-91)),
                METAL, (3.7e-35, 3.8e-35), 26),
     ValidationError, r"^input_resistance is inf, out of double range$"),
    # A root of the quartic makes r u - eps_a exactly 0.
    (spp_wavenumber_asymmetric,
     (SheetConductivity(0.0, 9.38048820534619e-64),
      DielectricHalfspaces(486657821.5679587, 3.534426840348083e20),
      3.3570778375386977e279),
     NoBoundModeError, "does not bind a TM mode"),
    (relaxation_from_mobility, (2e238, 1.5e143), ValidationError,
     "give a relaxation time in double range, not inf s$"),
    (relaxation_from_mobility, (1.0, math.inf), ValidationError,
     "give a relaxation time in double range, not inf s$"),
    (relaxation_from_mobility, (math.nan, 1.0), ValidationError,
     "give a relaxation time in double range, not nan s$"),
    (mutual_conductance_ratio, (PATCH, math.nan), ValidationError,
     "^frequency must be finite and > 0$"),
    (mutual_conductance_ratio, (PATCH, MAX_DOUBLE), ValidationError,
     "^g12 is nan, out of double range$"),
    (directivity_dbi, (PATCH, -1.0), ValidationError,
     "^frequency must be finite and > 0$"),
    (directivity_dbi, (PatchGeometry(*WIDE), 1e150), ValidationError,
     r"^aperture is inf, out of double range$"),
    # (W / lambda0) ** 2 raised OverflowError.
    (q_factors, (PATCH, METAL, 1e250), ValidationError,
     r"^g1 is inf, out of double range$"),
    # The Drude weight overflowed to inf.
    (GrapheneSheet, (1.0, 1e-12, MAX_DOUBLE), ValidationError,
     r"^temperature must be <= 1e\+300 K$"),
    # np.linspace overflowed on a band spanning nearly all of double range.
    (s11_spectrum, (PATCH, METAL, (3.6e12, MAX_DOUBLE), 15), ValidationError,
     r"^band must end at or below 1e\+300 Hz$"),
    (analytic_sheet_coefficients, (GrapheneSheet(1.0, 1e-12), [MAX_DOUBLE]),
     ValidationError, "^angular_frequency must be finite and > 0$"),
])
def test_inputs_the_fuzz_found_are_rejected(fn, args, error, message):
    with pytest.raises(error, match=message):
        fn(*args)
