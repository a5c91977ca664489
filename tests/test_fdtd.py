"""1-D FDTD cross-check of the thin-sheet scattering model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzpatch import (GrapheneSheet, Grid1D, InstabilityError,
                      ValidationError, analytic_sheet_coefficients,
                      compare_fdtd_analytic, refinement_study, drude_weight,
                      kubo_sigma, run_drude_scattering, run_sheet_scattering)
from thzpatch.constants import CODATA2018
from thzpatch.errors import MAX_POINTS
from thzpatch import fdtd
from thzpatch.fdtd import COURANT_NUMBER, MAX_RESOLUTION

BAND = (220e9, 325e9)
SHEET = GrapheneSheet(1.2, 1.2e-12)


@pytest.fixture(scope="module")
def base_run():
    return run_sheet_scattering(SHEET, Grid1D.for_resolution(100), BAND)


def test_resolution_layout_scales_with_resolution():
    g100 = Grid1D.for_resolution(100)
    g200 = Grid1D.for_resolution(200)
    assert g200.cell_size == pytest.approx(g100.cell_size / 2, rel=1e-14)
    # Pad cell counts double so the physical probe and sheet positions stay put.
    assert g200.sheet_index == 2 * g100.sheet_index
    assert g200.sheet_index * g200.cell_size \
        == pytest.approx(g100.sheet_index * g100.cell_size, rel=1e-14)
    total100 = (g100.cell_count - 1) * g100.cell_size
    total200 = (g200.cell_count - 1) * g200.cell_size
    assert total200 == pytest.approx(total100, rel=1e-14)


def test_grid_validation():
    for resolution in (50, 99, 1601, 10**8):
        with pytest.raises(ValidationError,
                           match=r"^resolution must be in \[100, 1600\]"):
            Grid1D.for_resolution(resolution)
    assert Grid1D.for_resolution(100) == Grid1D(100)
    assert Grid1D(MAX_RESOLUTION).resolution == MAX_RESOLUTION
    grid = Grid1D(150)
    assert grid.time_step == pytest.approx(
        COURANT_NUMBER * grid.cell_size / 299792458.0, rel=1e-15)
    assert 0 < grid.sheet_index < grid.cell_count - 1


@pytest.mark.parametrize("field", ["cell_size", "time_step",
                                   "courant_number"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_grid_rejects_non_finite(field, value):
    # The step sizes and the Courant number follow from the resolution, so a
    # non-finite value reaches them only through a resolution, which is
    # rejected; they cannot be passed in at all.
    with pytest.raises(ValidationError, match="^resolution must be in"):
        Grid1D(value)
    with pytest.raises(TypeError):
        Grid1D(resolution=100, **{field: value})


def test_band_validation(monkeypatch):
    monkeypatch.setattr(fdtd, "_REFERENCES", {})
    grid = Grid1D.for_resolution(100)
    with pytest.raises(ValidationError):
        run_sheet_scattering(SHEET, grid, (325e9, 220e9))
    with pytest.raises(ValidationError):
        # far outside the source spectrum: the DFT would divide noise by noise
        run_sheet_scattering(SHEET, grid, (1e9, 325e9))
    with pytest.raises(ValidationError):
        run_sheet_scattering(SHEET, grid, BAND, points=1)
    # Rejected before the grid is marched or the DFT kernel is built.
    with pytest.raises(ValidationError, match=f"<= {MAX_POINTS}$"):
        run_sheet_scattering(SHEET, grid, BAND, points=MAX_POINTS + 1)
    # Past MAX_DRUDE_WEIGHT, or past the longest tau GrapheneSheet accepts
    # (at 1 us the reference would be 5.3e8 steps long).
    above = math.nextafter(fdtd.MAX_DRUDE_WEIGHT, math.inf)
    for drude_a, tau in ((-1.0, 1e-12), (math.nan, 1e-12), (math.inf, 1e-12),
                         (1e12, math.nan), (1e12, math.inf), (above, 1e-12),
                         (1e11, 6e-12), (1e11, 1e-6)):
        with pytest.raises(ValidationError, match="need finite drude_a"):
            run_drude_scattering(drude_a, tau, grid, BAND)
    # Too narrow for distinct samples: linspace would repeat frequencies.
    with pytest.raises(ValidationError,
                       match="^band must be wide enough for 106 distinct"):
        run_sheet_scattering(SHEET, grid, (280e9, 280.000000000001e9))
    with pytest.raises(ValidationError, match="must be non-empty"):
        analytic_sheet_coefficients(SHEET, [])
    # Every input above was rejected before a reference was marched.
    assert fdtd._REFERENCES == {}
    run_drude_scattering(fdtd.MAX_DRUDE_WEIGHT, 5e-12, grid, BAND, points=11)


def test_too_hot_sheet_is_rejected_before_anything_is_allocated(
        monkeypatch):
    monkeypatch.setattr(fdtd, "_REFERENCES", {})
    hot = GrapheneSheet(2.0, 5e-12, 1e6)
    assert drude_weight(hot) > fdtd.MAX_DRUDE_WEIGHT
    with pytest.raises(ValidationError, match=r"^the 2 eV sheet at 1e\+06 K "
                       r"has Drude weight 1\.41e\+13 S/s, above 7e\+11$"):
        run_sheet_scattering(hot, Grid1D(100), BAND, points=5)
    assert fdtd._REFERENCES == {}
    # The raw entry point keeps its own check and message.
    with pytest.raises(ValidationError, match="^need finite drude_a"):
        run_drude_scattering(drude_weight(hot), 5e-12, Grid1D(100), BAND)


def test_instability_guard_stops_the_march(monkeypatch):
    # No real input diverges (the sheet update is unconditionally stable),
    # so the guard is lowered below the pulse itself. The reference is
    # cached first, so it is the sheet update that trips the guard.
    grid = Grid1D.for_resolution(100)
    run_sheet_scattering(SHEET, grid, BAND, points=11)
    assert grid in fdtd._REFERENCES
    monkeypatch.setattr(fdtd, "INSTABILITY_FACTOR", 1e-6)
    with pytest.raises(InstabilityError, match="exceeded 1e-06 times the "
                                               "source peak at step"):
        run_sheet_scattering(SHEET, grid, BAND)


def _arrays(result):
    return (result.frequencies, result.reflection, result.transmission,
            result.absorption)


def test_reference_cache_does_not_change_results(monkeypatch):
    # The reference is marched once per grid at the longest length asked
    # for; a longer tau rings down longer, so it needs more steps.
    grid = Grid1D.for_resolution(100)
    long_tau, short_tau = GrapheneSheet(1.2, 2e-12), GrapheneSheet(0.3, 3e-13)
    fresh = {}
    for sheet in (long_tau, short_tau):
        monkeypatch.setattr(fdtd, "_REFERENCES", {})
        fresh[sheet] = run_sheet_scattering(sheet, grid, BAND, points=31)
    for order in ((long_tau, short_tau), (short_tau, long_tau)):
        monkeypatch.setattr(fdtd, "_REFERENCES", {})
        records = []
        for sheet in order:
            cached = run_sheet_scattering(sheet, grid, BAND, points=31)
            for got, want in zip(_arrays(cached), _arrays(fresh[sheet])):
                assert np.array_equal(got, want)
            (rec,) = fdtd._REFERENCES.values()
            records.append(rec)
        # Long first: the short run slices the same record. Short first:
        # the long run re-marches a longer one.
        assert (records[1] is records[0]) == (order[0] is long_tau)


def test_cached_reference_is_read_only_and_bounded(monkeypatch):
    monkeypatch.setattr(fdtd, "_REFERENCES", {})
    first = fdtd._reference(Grid1D(100), 300)
    # Three rows of the source run, then three of the kick run.
    assert first.shape == (6, 300)
    assert np.any(first[0] != 0)    # the pulse has reached the probe
    assert np.any(first[3] != 0)    # and so has the kick
    assert first[5, 0] == 0 and first[5, 1] != 0    # G[0] = 0, G[1] != 0
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 1.0
    # A shorter run is served by a slice of the record; a longer one
    # re-marches, and its record starts with the shorter one.
    assert np.shares_memory(fdtd._reference(Grid1D(100), 150), first)
    longer = fdtd._reference(Grid1D(100), 450)
    assert np.array_equal(longer[:, :300], first)
    # Full, then one more grid: the least recently used one goes out.
    others = list(range(101, 100 + fdtd.REFERENCE_GRIDS))
    for res in others:
        fdtd._reference(Grid1D(res), 10)
    assert np.shares_memory(fdtd._reference(Grid1D(100), 450), longer)
    fdtd._reference(Grid1D(200), 10)
    assert [grid.resolution for grid in fdtd._REFERENCES] \
        == others[1:] + [100, 200]


@pytest.mark.parametrize("resolution", [100, 200, 400])
def test_kick_response_is_a_legendre_polynomial(resolution):
    # On an unbounded 1-D Yee line, a unit E kick at a node leaves E there
    # equal to P_k(1 - 2 S^2) after k steps, S the Courant number (the
    # discrete Green's function). It holds until the Mur boundary's echo
    # returns, 2(M - s) - 1 steps after the kick. S^2 is the grid's own
    # ch * ce, which differs from COURANT_NUMBER^2 in the last digits.
    grid = Grid1D(resolution)
    s, n_clean = grid.sheet_index, 2 * (grid.cell_count - 1 - grid.sheet_index)
    rec = fdtd._march(grid, s, [1.0] + [0.0] * (n_clean - 2))
    dx, dt = grid.cell_size, grid.time_step
    x = 1 - 2 * ((dt / (CODATA2018.vacuum_permeability * dx))
                 * (dt / (CODATA2018.vacuum_permittivity * dx)))
    legendre = [1.0, x]
    for k in range(1, n_clean - 2):
        legendre.append(((2 * k + 1) * x * legendre[k]
                         - k * legendre[k - 1]) / (k + 1))
    # Row 2 is E at the sheet node before the drive, so step 0 reads 0.
    assert rec[2, 0] == 0.0
    assert np.max(np.abs(rec[2, 1:] - legendre[1:])) <= 1e-13


def test_vacuum_run_is_exact():
    # With zero Drude weight the sheet current never turns on, so the
    # reference and scattering marches are identical sample by sample.
    # Transmission is a complex self-division, which can leave an ulp.
    res = run_drude_scattering(0.0, 1e-12, Grid1D.for_resolution(100), BAND)
    assert np.all(res.reflection == 0)
    assert np.max(np.abs(res.transmission - 1)) <= 2 ** -52
    assert np.all(res.absorption == 0)


@pytest.mark.parametrize("sheet", [SHEET, GrapheneSheet(0.05, 5e-12, 1.0),
                                   GrapheneSheet(2.0, 5e-14, 600.0)])
def test_analytic_coefficients_match_scalar_kubo_sigma(sheet):
    freqs = np.geomspace(1e6, 1e14, 2001)
    res = analytic_sheet_coefficients(sheet, freqs)
    sigma = np.array([kubo_sigma(sheet, 2 * math.pi * f).value
                      for f in freqs])
    s = CODATA2018.free_space_impedance * sigma / 2
    assert np.array_equal(res.transmission, 1 / (1 + s))
    assert np.array_equal(res.reflection, -s / (1 + s))


@pytest.mark.parametrize("freqs, reason", [
    ([280e9, math.nan], "must be finite and > 0"),
    ([280e9, math.inf], "must be finite and > 0"),
    ([-280e9, 280e9], "must be finite and > 0"),
    ([0.0], "must be finite and > 0"),
    ([1e-300, 280e9], "must be >= 1e-290")])
def test_analytic_coefficients_apply_the_frequency_rule(freqs, reason):
    with pytest.raises(ValidationError,
                       match=f"^angular_frequency {reason}$"):
        analytic_sheet_coefficients(SHEET, freqs)


def test_analytic_reference_values():
    res = analytic_sheet_coefficients(SHEET, [280e9])
    assert abs(res.reflection[0]) ** 2 == pytest.approx(0.936337804881,
                                                        rel=1e-10)
    assert abs(res.transmission[0]) ** 2 == pytest.approx(0.00501185923171,
                                                          rel=1e-10)
    assert res.absorption[0] == pytest.approx(0.0586503358877, rel=1e-10)

    thin = analytic_sheet_coefficients(GrapheneSheet(0.1, 0.3e-12), [280e9])
    assert abs(thin.reflection[0]) ** 2 == pytest.approx(0.146983698102,
                                                         rel=1e-10)
    assert abs(thin.transmission[0]) ** 2 == pytest.approx(0.415767029288,
                                                           rel=1e-10)
    assert thin.absorption[0] == pytest.approx(0.43724927261, rel=1e-10)


@given(fermi=st.floats(0.05, 2.0), tau_ps=st.floats(0.05, 5.0),
       f_ghz=st.floats(10, 3000))
@settings(max_examples=60)
def test_analytic_energy_identity(fermi, tau_ps, f_ghz):
    res = analytic_sheet_coefficients(GrapheneSheet(fermi, tau_ps * 1e-12),
                                      [f_ghz * 1e9])
    total = (abs(res.reflection[0]) ** 2 + abs(res.transmission[0]) ** 2
             + res.absorption[0])
    assert total == pytest.approx(1.0, rel=1e-12)


def test_fdtd_matches_analytic_at_base_resolution(base_run):
    exact = analytic_sheet_coefficients(SHEET, base_run.frequencies)
    err_r = np.max(np.abs(base_run.reflection - exact.reflection))
    err_t = np.max(np.abs(base_run.transmission - exact.transmission))
    assert max(err_r, err_t) == pytest.approx(2.606751e-5, rel=1e-3)
    assert max(err_r, err_t) < 3e-5


def test_fdtd_energy_balance(base_run):
    total = (np.abs(base_run.reflection) ** 2
             + np.abs(base_run.transmission) ** 2 + base_run.absorption)
    assert np.max(np.abs(total - 1)) < 1e-4


def test_fdtd_is_deterministic():
    grid = Grid1D.for_resolution(100)
    a = run_sheet_scattering(SHEET, grid, BAND, points=11)
    b = run_sheet_scattering(SHEET, grid, BAND, points=11)
    assert np.array_equal(a.reflection, b.reflection)
    assert np.array_equal(a.transmission, b.transmission)
    assert np.array_equal(a.absorption, b.absorption)


@pytest.mark.parametrize("points", [2, 106, 1000])
@pytest.mark.parametrize("n_steps", [1, 2, 7, 1300, 4097])
def test_two_level_dft_matches_the_one_kernel_dft(n_steps, points):
    # 7 and 4097 are not multiples of the inner length (2 and 64).
    rec = np.random.default_rng(n_steps).standard_normal((7, n_steps))
    freqs = np.linspace(*BAND, points)
    dt = Grid1D(100).time_step
    t = (np.arange(n_steps) + 1) * dt
    want = (np.exp(2j * np.pi * np.outer(freqs, t)) * dt) @ rec.T
    got = fdtd._spectra(rec, freqs, dt)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _direct_march(grid, drude_a, tau, n_steps):
    """The sheet run marched node by node with the Drude sheet update.

    Rows: E at probe_r and probe_t, E at the sheet, and J. drude_a = 0
    gives the sheet-free reference.
    """
    eps0 = CODATA2018.vacuum_permittivity
    mu0 = CODATA2018.vacuum_permeability
    c = CODATA2018.light_speed
    dx, dt = grid.cell_size, grid.time_step
    n_sh = grid.sheet_index
    src, probe_r, probe_t = fdtd._layout(grid)

    ez = np.zeros(grid.cell_count)
    hy = np.zeros(grid.cell_count - 1)
    js = 0.0
    ch = dt / (mu0 * dx)
    ce = dt / (eps0 * dx)
    beta = (c * dt - dx) / (c * dt + dx)
    exp_fac = math.exp(-dt / tau)
    drive_fac = drude_a * tau * (1 - exp_fac)
    g = drive_fac * dt / (eps0 * dx)
    j_fac = (dt / (2 * eps0 * dx)) * (1 + exp_fac)
    guard = fdtd.INSTABILITY_FACTOR * fdtd.SOURCE_PEAK
    rec = np.empty((n_steps, 4))
    for n in range(n_steps):
        hy += ch * (ez[1:] - ez[:-1])
        ez_l, ez_r = ez[1], ez[-2]
        ez0_old, ezn_old = ez[0], ez[-1]
        e_sh_old = ez[n_sh]
        ez[1:-1] += ce * (hy[1:] - hy[:-1])
        e_sh = (ez[n_sh] - g / 4 * e_sh_old - j_fac * js) / (1 + g / 4)
        ez[n_sh] = e_sh
        js = exp_fac * js + drive_fac * 0.5 * (e_sh_old + e_sh)
        tt = ((n + 1) * dt - fdtd.SOURCE_DELAY_S) / fdtd.SOURCE_WIDTH_S
        ez[src] += tt * math.exp(-0.5 * tt * tt)
        ez[0] = ez_l + beta * (ez[1] - ez0_old)
        ez[-1] = ez_r + beta * (ez[-2] - ezn_old)
        if abs(e_sh) > guard:
            raise InstabilityError(
                f"field at the sheet node exceeded "
                f"{fdtd.INSTABILITY_FACTOR:.0e} times the source peak at "
                f"step {n}")
        rec[n] = (ez[probe_r], ez[probe_t], e_sh, js)
    return rec.T


# The four fdtd-refine corners, the strongest sheet GrapheneSheet makes at
# 300 K, and (ef None) a sheet at MAX_DRUDE_WEIGHT.
@pytest.mark.parametrize("ef, tau_ps, resolution", [
    (ef, tau_ps, res) for ef, tau_ps in ((0.3, 0.3), (1.2, 1.2), (2.0, 5.0),
                                         (0.3, 1.2), (1.2, 0.3), (None, 5.0))
    for res in (100, 200)] + [(0.3, 0.3, 400)],
    ids=lambda v: "bound" if v is None else str(v))
def test_superposed_sheet_run_matches_a_direct_march(monkeypatch, ef, tau_ps,
                                                     resolution):
    monkeypatch.setattr(fdtd, "_REFERENCES", {})
    grid = Grid1D(resolution)
    tau = tau_ps * 1e-12
    n_steps = fdtd._step_count(grid, tau)
    rec = fdtd._reference(grid, n_steps)
    # The source run is the sheet-free march, to the bit.
    assert np.array_equal(rec[:3], _direct_march(grid, 0.0, tau, n_steps)[:3])
    drude_a = (fdtd.MAX_DRUDE_WEIGHT if ef is None
               else drude_weight(GrapheneSheet(ef, tau)))
    got = fdtd._sheet(grid, drude_a, tau, rec)
    want = _direct_march(grid, drude_a, tau, n_steps)
    assert got.shape == want.shape
    for got_row, want_row in zip(got, want):
        assert np.max(np.abs(got_row - want_row)) \
            <= 1e-12 * np.max(np.abs(want_row))


def test_superposed_guard_trips_at_the_step_of_a_direct_march(monkeypatch):
    monkeypatch.setattr(fdtd, "_REFERENCES", {})
    grid = Grid1D(100)
    tau = SHEET.relaxation_time
    n_steps = fdtd._step_count(grid, tau)
    rec = fdtd._reference(grid, n_steps)
    monkeypatch.setattr(fdtd, "INSTABILITY_FACTOR", 1e-6)
    with pytest.raises(InstabilityError) as direct:
        _direct_march(grid, drude_weight(SHEET), tau, n_steps)
    with pytest.raises(InstabilityError) as superposed:
        fdtd._sheet(grid, drude_weight(SHEET), tau, rec)
    assert str(superposed.value) == str(direct.value)


def test_guard_catches_a_nan(monkeypatch):
    # not abs(e) <= guard holds for a NaN, which abs(e) > guard lets
    # through. The FFT products spread the NaN over the whole run.
    monkeypatch.setattr(fdtd, "_REFERENCES", {})
    grid = Grid1D(100)
    tau = SHEET.relaxation_time
    rec = fdtd._reference(grid, fdtd._step_count(grid, tau)).copy()
    rec[2, 500] = np.nan
    with pytest.raises(InstabilityError, match="times the source peak at "
                                               "step"):
        fdtd._sheet(grid, drude_weight(SHEET), tau, rec)


def test_second_order_convergence():
    study = refinement_study(SHEET, BAND, resolutions=(100, 200, 400))
    errors = [err for _, err in study]
    assert errors[0] == pytest.approx(2.606751e-5, rel=1e-3)
    # halving the cell size should cut the error by ~4 (order 2 scheme)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine > 3.5


def test_low_quality_sheet_also_converges():
    err = compare_fdtd_analytic(GrapheneSheet(0.3, 0.3e-12),
                                Grid1D.for_resolution(200), BAND)
    assert err == pytest.approx(3.782119e-5, rel=1e-3)
    assert err < 1e-2
