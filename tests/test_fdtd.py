"""1-D FDTD cross-check of the thin-sheet scattering model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzpatch import (GrapheneSheet, Grid1D, InstabilityError,
                      ValidationError, analytic_sheet_coefficients,
                      compare_fdtd_analytic, refinement_study,
                      run_drude_scattering, run_sheet_scattering)
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


def test_band_validation():
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
    for drude_a, tau in ((-1.0, 1e-12), (math.nan, 1e-12), (math.inf, 1e-12),
                         (1e12, math.nan), (1e12, math.inf)):
        with pytest.raises(ValidationError, match="need finite drude_a"):
            run_drude_scattering(drude_a, tau, grid, BAND)
    # Too narrow for distinct samples: linspace would repeat frequencies.
    with pytest.raises(ValidationError,
                       match="^band must be wide enough for 106 distinct"):
        run_sheet_scattering(SHEET, grid, (280e9, 280.000000000001e9))
    with pytest.raises(ValidationError, match="must be non-empty"):
        analytic_sheet_coefficients(SHEET, [])


def test_instability_guard_stops_the_march(monkeypatch):
    # No real input diverges (the sheet update is unconditionally stable),
    # so the guard is lowered below the pulse itself.
    monkeypatch.setattr(fdtd, "INSTABILITY_FACTOR", 1e-6)
    with pytest.raises(InstabilityError, match="exceeded 1e-06 times the "
                                               "source peak at step"):
        run_sheet_scattering(SHEET, Grid1D.for_resolution(100), BAND)


def test_vacuum_run_is_exact():
    # With zero Drude weight the sheet current never turns on, so the
    # reference and scattering marches are identical sample by sample.
    # Transmission is a complex self-division, which can leave an ulp.
    res = run_drude_scattering(0.0, 1e-12, Grid1D.for_resolution(100), BAND)
    assert np.all(res.reflection == 0)
    assert np.max(np.abs(res.transmission - 1)) <= 2 ** -52
    assert np.all(res.absorption == 0)


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


# 1 byte gives one frequency per block; 72,000 bytes at the 1,128 steps of
# this resolution-100 run give 3 frequencies per block, the last one short.
@pytest.mark.parametrize("block_bytes", [1, 72_000])
def test_dft_in_blocks_matches_the_one_shot_spectra(monkeypatch, block_bytes):
    grid = Grid1D.for_resolution(100)
    one_shot = run_sheet_scattering(SHEET, grid, BAND, points=31)
    monkeypatch.setattr(fdtd, "DFT_BLOCK_BYTES", block_bytes)
    blocked = run_sheet_scattering(SHEET, grid, BAND, points=31)
    for field in ("reflection", "transmission", "absorption"):
        np.testing.assert_allclose(getattr(blocked, field),
                                   getattr(one_shot, field),
                                   rtol=1e-12, atol=0)


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
