"""Lumped resonator model: resonance pull, Q chain, S11, gain.

Reference values from tests/oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thzpatch import (ConductorSpec, GrapheneSheet, PatchGeometry, Spectrum,
                      SpectrumResult, SubstrateSpec, ValidationError,
                      bandwidth_minus10db, design_patch, directivity_dbi,
                      evaluate, f_res_metal, gain_report, graphene_resonance,
                      mutual_conductance_ratio, q_factors, s11_spectrum)
from thzpatch.errors import MAX_POINTS, require_grid

BAND = (220e9, 325e9)
POINTS = 211

SUBSTRATE = SubstrateSpec(rel_permittivity=3.5, loss_tangent=0.0027,
                          thickness=50e-6)

# Loaded resonance in GHz on the 280 GHz design, by Fermi level. The
# relaxation time drops out of the kinetic inductance, so one value per
# Fermi level suffices.
RESONANCE_DESIGNED_GHZ = {
    0.3: 232.472762513,
    0.6: 252.947026475,
    0.9: 261.07555541,
    1.2: 265.445129287,
}

RESONANCE_355X262_GHZ = {
    0.3: 232.678523652,
    0.6: 253.17090934,
    0.9: 261.306632818,
    1.2: 265.680074195,
}

# (fermi eV, tau ps) -> (q_rad, q_cond, q_total) at the cell's own resonance.
Q_CELLS = {
    (1.2, 1.2): (12.5999748394, 19.7648042675, 7.53805450623),
    (1.2, 0.3): (12.5999748394, 4.94120106686, 3.51561587401),
    (0.9, 0.9): (12.68878864, 11.3037773545, 5.88319277218),
    (0.3, 0.3): (13.434681523, 1.41050913289, 1.27210589711),
}

# (fermi eV, tau ps) -> (dip dB, bandwidth GHz) on the sampled band.
DIP_BW_CELLS = {
    (1.2, 1.2): (-14.3459736853, 15.6650791217),
    (0.9, 0.9): (-10.4509585703, 7.1456526933),
    (1.2, 0.6): (-9.33460240916, 0.0),
    (0.3, 0.3): (-2.28336916599, 0.0),
}

DIRECTIVITY_DBI = {0.3: 5.79214045096, 0.6: 6.15871547073,
                   0.9: 6.29608179249, 1.2: 6.36816729439}


@pytest.fixture(scope="module")
def designed():
    return design_patch(280e9, SUBSTRATE)


def test_metal_resonance_matches_cavity(designed):
    assert graphene_resonance(designed, ConductorSpec.metal()) \
        == f_res_metal(designed)


@pytest.mark.parametrize("fermi,f_ghz", sorted(RESONANCE_DESIGNED_GHZ.items()))
def test_loaded_resonance_designed_geometry(designed, fermi, f_ghz):
    spec = ConductorSpec.graphene(GrapheneSheet(fermi, 1.2e-12))
    assert graphene_resonance(designed, spec) / 1e9 \
        == pytest.approx(f_ghz, rel=1e-11)


@pytest.mark.parametrize("fermi,f_ghz", sorted(RESONANCE_355X262_GHZ.items()))
def test_loaded_resonance_published_geometry(fermi, f_ghz):
    geometry = PatchGeometry(355e-6, 262e-6, SUBSTRATE)
    spec = ConductorSpec.graphene(GrapheneSheet(fermi, 1.2e-12))
    assert graphene_resonance(geometry, spec) / 1e9 \
        == pytest.approx(f_ghz, rel=1e-11)


def test_resonance_is_tau_independent(designed):
    fast = ConductorSpec.graphene(GrapheneSheet(0.9, 0.1e-12))
    slow = ConductorSpec.graphene(GrapheneSheet(0.9, 3.0e-12))
    assert graphene_resonance(designed, fast) \
        == graphene_resonance(designed, slow)


def test_resonance_shift_fraction(designed):
    spec = ConductorSpec.graphene(GrapheneSheet(1.2, 1.2e-12))
    shift = 1 - graphene_resonance(designed, spec) / f_res_metal(designed)
    assert shift == pytest.approx(0.051981681119, rel=1e-10)


@given(fermi=st.floats(0.1, 1.9))
@settings(max_examples=30)
def test_resonance_grows_with_fermi_level(designed, fermi):
    lo = ConductorSpec.graphene(GrapheneSheet(fermi, 1.0e-12))
    hi = ConductorSpec.graphene(GrapheneSheet(fermi + 0.1, 1.0e-12))
    f_lo = graphene_resonance(designed, lo)
    f_hi = graphene_resonance(designed, hi)
    assert f_lo < f_hi < f_res_metal(designed)


def test_mutual_conductance_ratio(designed):
    g12 = mutual_conductance_ratio(designed, 280e9)
    assert g12 == pytest.approx(0.440992298965, rel=1e-7)


@pytest.mark.parametrize("detune", [0.6, 1.0, 1.4])
@pytest.mark.parametrize("thickness", [20e-6, 100e-6])
@pytest.mark.parametrize("eps_r", [1.5, 3.5, 11.9])
def test_mutual_conductance_ratio_matches_oracle(eps_r, thickness, detune):
    geometry = design_patch(280e9, SubstrateSpec(eps_r, 0.0027, thickness))
    f = detune * 280e9
    exact = oracles.mutual_ratio(geometry.width, geometry.length,
                                 geometry.fringing_extension, f)
    assert mutual_conductance_ratio(geometry, f) == pytest.approx(
        float(exact), rel=1e-12)


def test_metal_q_chain(designed):
    qf = q_factors(designed, ConductorSpec.metal(), 280e9)
    assert qf.q_radiation == pytest.approx(12.3453028643, rel=1e-7)
    assert qf.q_conductor == pytest.approx(627.312415702, rel=1e-10)
    assert qf.q_dielectric == pytest.approx(1 / 0.0027, rel=1e-14)
    assert qf.q_total == pytest.approx(11.7238008488, rel=1e-7)


@pytest.mark.parametrize("cell,expected", sorted(Q_CELLS.items()))
def test_graphene_q_chain(designed, cell, expected):
    fermi, tau_ps = cell
    spec = ConductorSpec.graphene(GrapheneSheet(fermi, tau_ps * 1e-12))
    f_res = graphene_resonance(designed, spec)
    qf = q_factors(designed, spec, f_res)
    q_rad, q_cond, q_total = expected
    assert qf.q_radiation == pytest.approx(q_rad, rel=1e-7)
    assert qf.q_conductor == pytest.approx(q_cond, rel=1e-10)
    assert qf.q_total == pytest.approx(q_total, rel=1e-7)


@given(fermi=st.floats(0.1, 2.0), tau_ps=st.floats(0.05, 5.0),
       f_ghz=st.floats(100, 1000))
@settings(max_examples=25, deadline=None)
def test_q_total_is_harmonic_sum(designed, fermi, tau_ps, f_ghz):
    spec = ConductorSpec.graphene(GrapheneSheet(fermi, tau_ps * 1e-12))
    qf = q_factors(designed, spec, f_ghz * 1e9)
    recombined = 1 / (1 / qf.q_radiation + 1 / qf.q_conductor
                      + 1 / qf.q_dielectric)
    assert qf.q_total == pytest.approx(recombined, rel=1e-12)
    assert qf.q_total < min(qf.q_radiation, qf.q_conductor, qf.q_dielectric)


def test_metal_is_matched_at_resonance(designed):
    # The feed transformer is sized for the metal variant, so its response
    # bottoms out at the -120 dB floor when the resonance lands on a grid
    # point of the sampled band.
    spectrum = s11_spectrum(designed, ConductorSpec.metal(), BAND, POINTS)
    dip = min(spectrum, key=lambda p: p.s11_db)
    assert dip.frequency == pytest.approx(280e9, abs=1.0)
    assert dip.s11_db == -120.0
    assert dip.input_resistance == pytest.approx(50.0, rel=1e-12)
    assert dip.input_reactance == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("cell,expected", sorted(DIP_BW_CELLS.items()))
def test_dip_and_bandwidth(designed, cell, expected):
    fermi, tau_ps = cell
    spec = ConductorSpec.graphene(GrapheneSheet(fermi, tau_ps * 1e-12))
    dip_db, bw_ghz = expected
    report = gain_report(designed, spec, BAND, POINTS)
    assert report.min_s11_db == pytest.approx(dip_db, abs=0.02)
    if bw_ghz == 0.0:
        assert report.bandwidth_minus10db == 0.0
    else:
        assert report.bandwidth_minus10db / 1e9 \
            == pytest.approx(bw_ghz, rel=5e-3)


def test_metal_bandwidth_matches_rlc_closed_form(designed):
    # A matched parallel RLC crosses -10 dB at f0 (1 +- 1/(3Q)), so the
    # dip width is 2 f0 / (3 Q).
    spec = ConductorSpec.metal()
    q = q_factors(designed, spec, 280e9).q_total
    spectrum = s11_spectrum(designed, spec, BAND, POINTS)
    expected = 2 * 280e9 / (3 * q)
    assert bandwidth_minus10db(spectrum) == pytest.approx(expected, rel=1e-2)


def _flat_spectrum(levels, f0=200e9, df=1e9):
    n = len(levels)
    return Spectrum(frequency=f0 + np.arange(n) * df,
                    s11_db=np.array(levels, dtype=float),
                    input_resistance=np.full(n, 50.0),
                    input_reactance=np.zeros(n))


def _bandwidth_by_loop(freqs, s11):
    """The -10 dB width walked sample by sample: the reference for the
    array search in bandwidth_minus10db."""
    i_min = min(range(len(s11)), key=s11.__getitem__)
    if s11[i_min] > -10.0:
        return 0.0
    lo = hi = i_min
    while lo > 0 and s11[lo - 1] <= -10.0:
        lo -= 1
    while hi < len(s11) - 1 and s11[hi + 1] <= -10.0:
        hi += 1
    if lo == 0:
        f_left = freqs[0]
    else:
        frac = (-10.0 - s11[lo - 1]) / (s11[lo] - s11[lo - 1])
        f_left = freqs[lo - 1] + frac * (freqs[lo] - freqs[lo - 1])
    if hi == len(s11) - 1:
        f_right = freqs[-1]
    else:
        frac = (-10.0 - s11[hi]) / (s11[hi + 1] - s11[hi])
        f_right = freqs[hi] + frac * (freqs[hi + 1] - freqs[hi])
    return f_right - f_left


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-30.0, -20.0, -10.0, -9.0, -3.0, 0.0])
                | st.floats(-40.0, 0.0), min_size=2, max_size=12))
def test_bandwidth_equals_the_sample_walk(levels):
    spectrum = _flat_spectrum(levels)
    assert bandwidth_minus10db(spectrum) == \
        _bandwidth_by_loop(spectrum.frequency.tolist(), levels)


def test_bandwidth_zero_when_dip_is_shallow():
    assert bandwidth_minus10db(_flat_spectrum([-3, -8, -9.5, -8, -3])) == 0.0


def test_bandwidth_interpolates_crossings():
    spectrum = _flat_spectrum([0.0, -20.0, 0.0])
    # crossings at half a step either side of the center point
    assert bandwidth_minus10db(spectrum) == pytest.approx(1e9, rel=1e-12)


def test_bandwidth_clips_at_spectrum_edges():
    spectrum = _flat_spectrum([-15.0, -30.0, -15.0])
    assert bandwidth_minus10db(spectrum) == pytest.approx(2e9, rel=1e-12)


def test_bandwidth_input_validation():
    with pytest.raises(ValidationError):
        bandwidth_minus10db(_flat_spectrum([-20.0]))
    forwards = _flat_spectrum([0.0, -20.0, 0.0])
    backwards = Spectrum(*(getattr(forwards, k)[::-1] for k in (
        "frequency", "s11_db", "input_resistance", "input_reactance")))
    with pytest.raises(ValidationError):
        bandwidth_minus10db(backwards)


def test_spectrum_input_validation(designed):
    with pytest.raises(ValidationError):
        s11_spectrum(designed, ConductorSpec.metal(), (325e9, 220e9), POINTS)
    with pytest.raises(ValidationError):
        s11_spectrum(designed, ConductorSpec.metal(), BAND, 1)
    with pytest.raises(ValidationError, match=f"<= {MAX_POINTS}$"):
        s11_spectrum(designed, ConductorSpec.metal(), BAND, MAX_POINTS + 1)
    # 211 samples over 1 mHz at 280 GHz would repeat frequencies.
    with pytest.raises(ValidationError,
                       match="^band must be wide enough for 211 distinct "
                             "samples$"):
        s11_spectrum(designed, ConductorSpec.metal(),
                     (280e9, 280.000000000001e9), POINTS)
    assert len(s11_spectrum(designed, ConductorSpec.metal(), BAND,
                            MAX_POINTS)) == MAX_POINTS


@settings(max_examples=500, deadline=None)
@given(f_hi=st.floats(1.0, 1e13), points=st.integers(2, MAX_POINTS),
       ulps=st.floats(0.0, 8.0))
def test_every_accepted_grid_samples_distinct_frequencies(f_hi, points,
                                                          ulps):
    # Bands from 0 to 8 ulp(f_hi) per step: around the rule's threshold.
    f_lo = f_hi - ulps * math.ulp(f_hi) * (points - 1)
    try:
        require_grid((f_lo, f_hi), points)
    except ValidationError:
        return
    assert np.all(np.diff(np.linspace(f_lo, f_hi, points)) > 0)


@pytest.mark.parametrize("frequency", [0.0, -280e9, math.nan, math.inf])
def test_q_factors_reject_a_frequency_outside_positive_finite(designed,
                                                              frequency):
    with pytest.raises(ValidationError,
                       match="^frequency must be finite and > 0$"):
        q_factors(designed, ConductorSpec.metal(), frequency)


@pytest.mark.parametrize("band", [(0.0, 325e9), (-1e9, 325e9),
                                  (220e9, math.inf), (math.nan, 325e9),
                                  (220e9, math.nan), (-math.inf, 325e9)])
def test_spectrum_rejects_a_band_outside_positive_finite(designed, band):
    with pytest.raises(ValidationError, match="0 < f_lo < f_hi"):
        s11_spectrum(designed, ConductorSpec.metal(), band, POINTS)


def test_spectrum_arrays_iterate_as_points(designed):
    spectrum = s11_spectrum(designed, ConductorSpec.metal(), BAND, 11)
    points = list(spectrum)
    assert len(spectrum) == len(points) == 11
    assert all(type(p) is SpectrumResult for p in points)
    assert all(type(v) is float for p in points for v in vars(p).values())
    assert [p.s11_db for p in points] == spectrum.s11_db.tolist()
    assert points[0].frequency == BAND[0] and points[-1].frequency == BAND[1]


def test_evaluate_returns_the_report_and_its_spectrum(designed):
    spec = ConductorSpec.graphene(GrapheneSheet(0.9, 0.9e-12))
    report, spectrum = evaluate(designed, spec, BAND, POINTS)
    assert report == gain_report(designed, spec, BAND, POINTS)
    again = s11_spectrum(designed, spec, BAND, POINTS)
    assert list(spectrum) == list(again)
    assert report.min_s11_db == min(p.s11_db for p in again)
    assert report.bandwidth_minus10db == bandwidth_minus10db(again)


def test_directivity_exact_at_design_frequency(designed):
    # At eps_r = 3.5 the width formula gives exactly lambda0/3, so the
    # aperture term vanishes.
    assert directivity_dbi(designed, 280e9) == pytest.approx(6.6, abs=1e-12)


@pytest.mark.parametrize("fermi,d_dbi", sorted(DIRECTIVITY_DBI.items()))
def test_directivity_at_loaded_resonance(designed, fermi, d_dbi):
    spec = ConductorSpec.graphene(GrapheneSheet(fermi, 1.2e-12))
    f_res = graphene_resonance(designed, spec)
    assert directivity_dbi(designed, f_res) == pytest.approx(d_dbi, rel=1e-10)


def test_gain_report_reference_cell(designed):
    spec = ConductorSpec.graphene(GrapheneSheet(1.2, 1.2e-12))
    report = gain_report(designed, spec, BAND, POINTS)
    assert report.resonant_frequency / 1e9 \
        == pytest.approx(265.445129287, rel=1e-11)
    assert report.efficiency == pytest.approx(0.598259488794, rel=1e-7)
    assert report.directivity_dbi == pytest.approx(6.36816729439, rel=1e-10)
    assert report.gain_dbi == pytest.approx(4.1370632498, rel=1e-7)
    assert report.gain_dbi == pytest.approx(
        report.directivity_dbi + 10 * math.log10(report.efficiency), rel=1e-12)


def test_metal_report(designed):
    report = gain_report(designed, ConductorSpec.metal(), BAND, POINTS)
    assert report.resonant_frequency == pytest.approx(280e9, rel=1e-12)
    assert report.efficiency == pytest.approx(0.949656802888, rel=1e-7)
    assert report.directivity_dbi == pytest.approx(6.6, abs=1e-12)
    assert report.bandwidth_minus10db / 1e9 \
        == pytest.approx(15.9284004, rel=1e-6)


def test_gain_is_finite_when_the_efficiency_underflows():
    # q_total ~ 7e-145 against q_radiation ~ 3e179: the ratio is below the
    # smallest double, but the gain in dB is an ordinary number.
    substrate = SubstrateSpec(rel_permittivity=7.63084572156745e30,
                              loss_tangent=0.0, thickness=1e-150)
    geometry = design_patch(1e9, substrate)
    report, _ = evaluate(geometry, ConductorSpec.metal(), (1e9, 325e9), 2)
    assert report.efficiency == 0.0
    qf = q_factors(geometry, ConductorSpec.metal(),
                   report.resonant_frequency)
    assert report.gain_dbi == pytest.approx(
        report.directivity_dbi
        + 10 * math.log10(qf.q_total * 1e300 / qf.q_radiation) - 3000,
        rel=1e-12)


def test_metal_beats_every_graphene_cell(designed):
    metal_eff = gain_report(designed, ConductorSpec.metal(), BAND,
                            POINTS).efficiency
    for fermi in (0.3, 0.6, 0.9, 1.2):
        for tau_ps in (0.3, 1.2):
            spec = ConductorSpec.graphene(GrapheneSheet(fermi, tau_ps * 1e-12))
            assert gain_report(designed, spec, BAND,
                               POINTS).efficiency < metal_eff


def test_efficiency_monotone_in_sheet_quality(designed):
    def eff(fermi, tau_ps):
        spec = ConductorSpec.graphene(GrapheneSheet(fermi, tau_ps * 1e-12))
        qf = q_factors(designed, spec,
                       graphene_resonance(designed, spec))
        return qf.q_total / qf.q_radiation

    taus = [0.3, 0.6, 0.9, 1.2]
    by_tau = [eff(1.2, t) for t in taus]
    assert by_tau == sorted(by_tau)
    fermis = [0.3, 0.6, 0.9, 1.2]
    by_fermi = [eff(f, 1.2) for f in fermis]
    assert by_fermi == sorted(by_fermi)


def test_conductor_spec_validation():
    sheet = GrapheneSheet(1.2, 1.2e-12)
    assert ConductorSpec.metal().sheet is None
    assert ConductorSpec.graphene(sheet).sheet is sheet
    with pytest.raises(ValidationError):
        ConductorSpec.graphene(None)
