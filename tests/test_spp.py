"""Surface-wave dispersion solvers.

The transcendental residual check uses its own constants so agreement with
the solvers is not circular. Reference values from tests/oracles.py.
"""

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thzpatch import (ConvergenceError, DielectricHalfspaces, GrapheneSheet,
                      NoBoundModeError, SheetConductivity, ValidationError,
                      cli_main, confinement_sweep, kubo_sigma, spp,
                      spp_wavenumber_asymmetric, spp_wavenumber_symmetric)

C0 = 299792458.0
EPS0 = 8.8541878128e-12

W_280 = 2 * math.pi * 280e9
K0_280 = W_280 / C0


def dispersion_residual(sigma, eps_above, eps_below, w, q):
    """Relative residual of q in the two-halfspace TM sheet relation."""
    k0 = w / C0
    ka = cmath.sqrt(q * q - eps_above * k0 * k0)
    kb = cmath.sqrt(q * q - eps_below * k0 * k0)
    rhs = -1j * sigma / (w * EPS0)
    return abs(eps_above / ka + eps_below / kb - rhs) / abs(rhs)


def graphene_sigma(ef, tau_ps, w=W_280):
    return kubo_sigma(GrapheneSheet(ef, tau_ps * 1e-12), w)


def test_symmetric_reference_values():
    sol = spp_wavenumber_symmetric(graphene_sigma(1.2, 1.2), 1.0, W_280)
    assert sol.wavenumber / K0_280 == pytest.approx(
        1.0016961277 + 0.00206727879459j, rel=1e-11)

    sol = spp_wavenumber_symmetric(graphene_sigma(0.1, 1.2), 1.0, W_280)
    assert sol.wavenumber / K0_280 == pytest.approx(
        1.23837511071 + 0.235725631722j, rel=1e-11)
    lam0 = 2 * math.pi / K0_280
    assert sol.spp_wavelength / lam0 == pytest.approx(0.807509769336,
                                                      rel=1e-11)


def test_symmetric_solution_satisfies_relation():
    sigma = graphene_sigma(0.3, 1.2)
    sol = spp_wavenumber_symmetric(sigma, 2.25, W_280)
    res = dispersion_residual(sigma.value, 2.25, 2.25, W_280, sol.wavenumber)
    assert res < 1e-10


def test_symmetric_derived_metrics():
    sol = spp_wavenumber_symmetric(graphene_sigma(0.1, 1.2), 1.0, W_280)
    q = sol.wavenumber
    assert sol.free_space_wavenumber == pytest.approx(K0_280)
    assert sol.confinement_ratio == pytest.approx(q.real / K0_280)
    assert sol.spp_wavelength == pytest.approx(2 * math.pi / q.real)
    assert sol.propagation_length == pytest.approx(1 / (2 * q.imag))


def test_perfect_conductor_limit():
    # A lossless inductive sheet binds a mode that closes in on the light
    # line from above as it grows more conductive: Re q/k0 - 1 is
    # 2/(eta0 s)^2 to first order.
    eta0 = 376.730313668
    previous = math.inf
    for s in (1.0, 10.0, 1e2, 1e3):
        sol = spp_wavenumber_symmetric(SheetConductivity(0.0, s), 1.0, W_280)
        assert 1 < sol.confinement_ratio < previous
        assert sol.confinement_ratio - 1 == pytest.approx(2 / (eta0 * s)**2,
                                                          rel=1e-3)
        assert sol.propagation_length == math.inf
        previous = sol.confinement_ratio
    # A very conductive sheet pins the mode to the light line, where its q
    # cannot be told from the line.
    with pytest.raises(NoBoundModeError):
        spp_wavenumber_symmetric(SheetConductivity(1e7, 0.0), 1.0, W_280)


@pytest.mark.parametrize("s", [1e2, 1e4, 1e6, 1e8, 1e12, 1e20])
def test_near_perfect_conductor_binds_no_mode(s):
    # The denser side's root sits within rounding of its light line
    # (kappa/k0 ~ 4.7e-9 at 1e6 S), where Re q alone cannot show the side;
    # the symmetric mode's Re q rounds onto the line itself. Neither may be
    # returned as bound, nor may the asymmetric polish diverge.
    sigma = SheetConductivity(s, s)
    for halves in ((1.0, 3.5), (3.5, 1.0)):
        with pytest.raises(NoBoundModeError):
            spp_wavenumber_asymmetric(sigma, DielectricHalfspaces(*halves),
                                      W_280)
    for eps in (1.0, 3.5):
        with pytest.raises(NoBoundModeError):
            spp_wavenumber_symmetric(sigma, eps, W_280)


def test_resistive_sheet_binds_no_mode():
    # High Drude weight at low frequency: sigma is large and almost real,
    # which pushes Re q under the light line.
    w = 2 * math.pi * 1e9
    with pytest.raises(NoBoundModeError):
        spp_wavenumber_symmetric(graphene_sigma(2.0, 0.3, w), 1.0, w)


def test_symmetric_validation():
    sigma = graphene_sigma(0.6, 0.6)
    with pytest.raises(ValidationError):
        spp_wavenumber_symmetric(sigma, 0.5, W_280)
    with pytest.raises(ValidationError):
        spp_wavenumber_symmetric(sigma, 1.0, -W_280)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_symmetric_rejects_non_finite_eps(eps):
    with pytest.raises(ValidationError, match="eps must be finite and >= 1"):
        spp_wavenumber_symmetric(graphene_sigma(0.6, 0.6), eps, W_280)


@given(ef=st.floats(0.05, 2.0), tau_ps=st.floats(0.05, 5.0),
       freq=st.floats(100e9, 2e12), eps=st.floats(1.0, 12.0))
@settings(max_examples=80)
def test_symmetric_bound_mode_invariants(ef, tau_ps, freq, eps):
    w = 2 * math.pi * freq
    sigma = graphene_sigma(ef, tau_ps, w)
    try:
        sol = spp_wavenumber_symmetric(sigma, eps, w)
    except NoBoundModeError:
        assume(False)
    k0 = w / C0
    assert sol.wavenumber.real > k0 * math.sqrt(eps) * (1 - 1e-12)
    assert sol.wavenumber.imag >= 0
    assert sol.spp_wavelength < 2 * math.pi / k0
    assert dispersion_residual(sigma.value, eps, eps, w, sol.wavenumber) < 1e-10


ASYMMETRIC_CASES = {
    # (E_F eV at tau = 1.2 ps, eps 1 over 3.5, 280 GHz) -> q / k0
    0.1: 2.41818945464 + 0.588962942116j,
    0.3: 1.91908963771 + 0.0663586606331j,
    1.2: 1.87365323352 + 0.00358763971576j,
}


@pytest.mark.parametrize("ef,expected", sorted(ASYMMETRIC_CASES.items()))
def test_asymmetric_reference_values(ef, expected):
    halves = DielectricHalfspaces(1.0, 3.5)
    sol = spp_wavenumber_asymmetric(graphene_sigma(ef, 1.2), halves, W_280)
    assert sol.wavenumber / K0_280 == pytest.approx(expected, rel=1e-9)


def test_asymmetric_residual_contract():
    halves = DielectricHalfspaces(1.0, 3.5)
    sigma = graphene_sigma(0.1, 1.2)
    sol = spp_wavenumber_asymmetric(sigma, halves, W_280)
    res = dispersion_residual(sigma.value, 1.0, 3.5, W_280, sol.wavenumber)
    assert res < 1e-10


def test_asymmetric_residual_miss_raises_convergence_error(monkeypatch,
                                                          capsys):
    # No polished residual is below 0, so every solve misses the target;
    # the error carries the residual it reached, as data and in its text.
    monkeypatch.setattr(spp, "NEWTON_REL_RESIDUAL", 0.0)
    with pytest.raises(ConvergenceError) as exc:
        spp_wavenumber_asymmetric(graphene_sigma(1.2, 1.2),
                                  DielectricHalfspaces(1.0, 3.5), W_280)
    residual = exc.value.last_residual
    assert math.isfinite(residual) and residual >= 0
    assert f"{residual:.3e}" in str(exc.value)
    assert cli_main(["spp", "--ef", "1.2eV", "--tau", "1.2ps", "--f",
                     "280GHz", "--eps-above", "1", "--eps-below", "3.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc.value}\n"


def test_asymmetric_degenerates_to_symmetric():
    sigma = graphene_sigma(0.3, 1.2)
    sym = spp_wavenumber_symmetric(sigma, 1.0, W_280)
    asym = spp_wavenumber_asymmetric(sigma, DielectricHalfspaces(1.0, 1.0),
                                     W_280)
    rel = abs(asym.wavenumber - sym.wavenumber) / abs(sym.wavenumber)
    assert rel < 1e-9


def test_substrate_increases_confinement():
    sigma = graphene_sigma(0.1, 1.2)
    sym = spp_wavenumber_symmetric(sigma, 1.0, W_280)
    asym = spp_wavenumber_asymmetric(sigma, DielectricHalfspaces(1.0, 3.5),
                                     W_280)
    assert asym.wavenumber.real > sym.wavenumber.real


@given(ef=st.floats(0.05, 1.2), tau_ps=st.floats(0.3, 5.0),
       ea=st.floats(1.0, 6.0), eb=st.floats(1.0, 6.0))
@settings(max_examples=40, deadline=None)
def test_asymmetric_solution_invariants(ef, tau_ps, ea, eb):
    sigma = graphene_sigma(ef, tau_ps)
    try:
        sol = spp_wavenumber_asymmetric(sigma, DielectricHalfspaces(ea, eb),
                                        W_280)
    except NoBoundModeError:
        assume(False)
    q = sol.wavenumber
    assert q.imag >= 0
    assert dispersion_residual(sigma.value, ea, eb, W_280, q) < 1e-10
    # Both transverse decay constants on the physical branch.
    for eps in (ea, eb):
        kappa = cmath.sqrt(q * q - eps * K0_280 * K0_280)
        assert kappa.real >= 0
    # Bound: above the light line of the denser half-space.
    assert q.real > K0_280 * math.sqrt(max(ea, eb))


def assert_bound_on_substrate(ef, tau, eps_below, freq):
    """The air/substrate mode solves the relation and does not leak."""
    w = 2 * math.pi * freq
    k0 = w / C0
    sigma = kubo_sigma(GrapheneSheet(ef, tau), w)
    sol = spp_wavenumber_asymmetric(sigma, DielectricHalfspaces(1.0,
                                                                eps_below), w)
    q = sol.wavenumber
    assert dispersion_residual(sigma.value, 1.0, eps_below, w, q) < 1e-10
    assert cmath.sqrt(q * q - k0 * k0).real > 0
    assert cmath.sqrt(q * q - eps_below * k0 * k0).real > 0
    assert q.real > k0 * math.sqrt(eps_below)
    return q


def test_weak_long_tau_sheet_on_dense_substrate_is_solved():
    # A weak, long-tau sheet over a dense substrate still binds a mode, well
    # above the substrate light line: Re q / k0 = 1.80 > sqrt(3.08404).
    q = assert_bound_on_substrate(0.350356, 1.99682e-12, 3.08404, 315e9)
    assert q == pytest.approx(11907.710 + 184.116j, abs=1e-3)


def test_mode_leaking_into_the_substrate_is_not_returned():
    # Two roots solve the relation here. One sits just above the air light
    # line (Re q / k0 = 1.00031) and leaks into the substrate; the bound
    # one sits above sqrt(eps_below) = 1.68670.
    q = assert_bound_on_substrate(1.3726330799746709, 1.6247981490839385e-12,
                                  2.844966530636402, 245e9)
    k0 = 2 * math.pi * 245e9 / C0
    assert q.real / k0 == pytest.approx(1.68802, abs=1e-5)


def test_sheet_without_conductivity_binds_no_mode():
    sigma = SheetConductivity(0.0, 0.0)
    with pytest.raises(NoBoundModeError):
        spp_wavenumber_symmetric(sigma, 1.0, W_280)
    halves = DielectricHalfspaces(1.0, 3.5)
    with pytest.raises(NoBoundModeError):
        spp_wavenumber_asymmetric(sigma, halves, W_280)
    # So strong a sheet that the quartic's coefficients overflow.
    with pytest.raises(NoBoundModeError):
        spp_wavenumber_asymmetric(SheetConductivity(1e200, 1e200), halves,
                                  W_280)


LOSSLESS_CASES = [
    # (s of sigma = i s in S, eps above, eps below) -> q / k0 at 280 GHz
    ((0.01, 1.0, 3.5), 2.15950316448),
    ((0.01, 3.5, 1.0), 2.15950316448),
    # Within about 1e-15 of the denser light line sqrt(3.5).
    ((1e5, 1.0, 3.5), 1.87082869339),
    ((1e2, 3.5, 1.0), 1.87082869569),
    ((357262.96343110607, 4.09693691651451, 6.753590727802719),
     2.59876715536),
]


@pytest.mark.parametrize("case,expected", LOSSLESS_CASES)
def test_lossless_sheet_binds_its_mode_in_either_order(case, expected):
    s, eps_above, eps_below = case
    sol = spp_wavenumber_asymmetric(
        SheetConductivity(0.0, s), DielectricHalfspaces(eps_above, eps_below),
        W_280)
    q = sol.wavenumber
    assert q.real / K0_280 == pytest.approx(expected, rel=1e-11)
    assert abs(q.imag) <= 1e-12 * abs(q)


def lossless_root(s, eps_dense, eps_light):
    """u = kappa/k0 of the denser side for a lossless sheet, sigma = i s.

    eps_d/u + eps_l/sqrt(u^2 + eps_d - eps_l) falls monotonically from inf
    to 0 over u > 0, so a bisection on a log scale brackets the one root
    to adjacent doubles. The relation is read in decay constants: the
    q-space residual cancels near the light line.
    """
    r = s / (C0 * EPS0)
    d = eps_dense - eps_light
    lo, hi = 1e-20, 1e20
    for _ in range(400):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if mid in (lo, hi):
            break
        if eps_dense / mid + eps_light / math.sqrt(mid * mid + d) > r:
            lo = mid
        else:
            hi = mid
    return lo


@given(log_s=st.floats(-4.0, 6.0), ea=st.floats(1.0, 12.0),
       eb=st.floats(1.0, 12.0))
@settings(max_examples=200, deadline=None)
def test_lossless_sheet_mode_is_returned_unless_on_the_line(log_s, ea, eb):
    # A lossless inductive sheet binds exactly one mode. The solver returns
    # it, or says there is none only when it lies within rounding of the
    # denser light line.
    s = 10.0 ** log_s
    dense = max(ea, eb)
    u = lossless_root(s, dense, min(ea, eb))
    line = math.sqrt(dense)
    n = math.sqrt(u * u + dense)
    try:
        sol = spp_wavenumber_asymmetric(SheetConductivity(0.0, s),
                                        DielectricHalfspaces(ea, eb), W_280)
    except NoBoundModeError:
        assert u * u / (n + line) / line < 1e-15
        return
    q = sol.wavenumber
    assert q.real / K0_280 == pytest.approx(n, rel=2e-15)
    assert abs(q.imag) <= 1e-12 * abs(q)


@pytest.mark.parametrize("value", [complex(-1e-6, 0.01), complex(-0.5, 0.5),
                                   complex(-2.0, 1e-3), complex(-1e-3, -1e-3)])
def test_sheet_with_gain_binds_no_mode(value):
    # Re sigma < 0 decides it, whatever the rounding of Im q. A capacitive
    # sheet with gain has the symmetric root of its passive mirror, but
    # with a decay constant of Re < 0: its fields grow away from the sheet.
    sigma = SheetConductivity(value.real, value.imag)
    with pytest.raises(NoBoundModeError):
        spp_wavenumber_symmetric(sigma, 1.0, W_280)
    for halves in ((1.0, 3.5), (3.5, 1.0)):
        with pytest.raises(NoBoundModeError):
            spp_wavenumber_asymmetric(sigma, DielectricHalfspaces(*halves),
                                      W_280)


@pytest.mark.parametrize("value", [complex(0.0, -1e3), complex(0.0, -0.01),
                                   complex(1e-3, -0.5)])
def test_capacitive_sheet_binds_no_tm_mode(value):
    # The symmetric root of a capacitive sheet has kappa/k0 = 2 eps/r with
    # Re < 0, lossless or not: fields that grow away from the sheet.
    sigma = SheetConductivity(value.real, value.imag)
    for eps in (1.0, 3.5):
        with pytest.raises(NoBoundModeError):
            spp_wavenumber_symmetric(sigma, eps, W_280)
    for halves in ((1.0, 3.5), (3.5, 1.0)):
        with pytest.raises(NoBoundModeError):
            spp_wavenumber_asymmetric(sigma, DielectricHalfspaces(*halves),
                                      W_280)


@pytest.mark.parametrize("w", [0.0, -W_280, math.nan, math.inf])
def test_solvers_reject_a_frequency_outside_positive_finite(w):
    sigma = graphene_sigma(0.6, 0.6)
    match = "angular_frequency must be finite and > 0"
    with pytest.raises(ValidationError, match=match):
        spp_wavenumber_symmetric(sigma, 1.0, w)
    with pytest.raises(ValidationError, match=match):
        spp_wavenumber_asymmetric(sigma, DielectricHalfspaces(1.0, 3.5), w)


@pytest.mark.parametrize("field", ["eps_above", "eps_below"])
@pytest.mark.parametrize("value, reason", [
    (math.nan, "must be finite"), (math.inf, "must be finite"),
    (-math.inf, "must be finite"), (0.5, "must be >= 1"),
], ids=["nan", "inf", "-inf", "0.5"])
def test_halfspaces_reject_bad_permittivity(field, value, reason):
    valid = {"eps_above": 1.0, "eps_below": 3.5}
    DielectricHalfspaces(**valid)
    with pytest.raises(ValidationError, match=rf"^{field} {reason}$") as info:
        DielectricHalfspaces(**{**valid, field: value})
    assert info.value.field == field


CONFINEMENT_VS_FERMI = {
    0.1: 1.23837511071,
    0.3: 1.02727494268,
    0.6: 1.0067924921,
    0.9: 1.00301628319,
    1.2: 1.0016961277,
}


def test_confinement_falls_with_fermi_level():
    sheets = [GrapheneSheet(ef, 1.2e-12)
              for ef in sorted(CONFINEMENT_VS_FERMI)]
    cells = confinement_sweep(sheets, [280e9])
    ratios = [cell.solution.confinement_ratio for cell in cells]
    for ratio, (ef, expected) in zip(ratios, sorted(CONFINEMENT_VS_FERMI.items())):
        assert ratio == pytest.approx(expected, rel=1e-11), ef
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_confinement_grows_with_frequency():
    # The Drude sheet gets electrically weaker toward higher frequency, so
    # the mode detaches further from the light line as f rises.
    cells = confinement_sweep([GrapheneSheet(0.3, 1.2e-12)],
                              [220e9, 272.5e9, 325e9])
    ratios = [cell.solution.confinement_ratio for cell in cells]
    assert ratios == pytest.approx([1.01397586262, 1.02544884419,
                                    1.03918859139], rel=1e-11)
    assert ratios[0] < ratios[1] < ratios[2]


def test_sweep_is_row_major_and_complete():
    sheets = [GrapheneSheet(0.3, 1.2e-12), GrapheneSheet(0.6, 1.2e-12)]
    freqs = [220e9, 325e9]
    cells = confinement_sweep(sheets, freqs)
    assert [(c.sheet.fermi_level, c.frequency) for c in cells] == [
        (0.3, 220e9), (0.3, 325e9), (0.6, 220e9), (0.6, 325e9)]


def test_sweep_single_cell_matches_direct_call():
    sheet = GrapheneSheet(0.6, 0.9e-12)
    [cell] = confinement_sweep([sheet], [280e9])
    direct = spp_wavenumber_symmetric(kubo_sigma(sheet, W_280), 1.0, W_280)
    assert cell.solution.wavenumber == direct.wavenumber


def test_sweep_records_failed_cells():
    # At 1 GHz the high-E_F sheet responds resistively and binds nothing;
    # at 1 THz (w tau > 1) the same sheet is inductive and does. One sweep,
    # one failed cell, one solved cell.
    cells = confinement_sweep([GrapheneSheet(2.0, 0.3e-12)], [1e9, 1e12])
    assert cells[0].solution is None
    assert "bind a TM mode" in cells[0].error
    assert cells[1].solution is not None
    assert cells[1].error is None


def test_sweep_rejects_empty_grids():
    with pytest.raises(ValidationError):
        confinement_sweep([], [280e9])
    with pytest.raises(ValidationError):
        confinement_sweep([GrapheneSheet(0.6, 0.6e-12)], [])
