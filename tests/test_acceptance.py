"""End-to-end checks of the shipped claims.

One test per claim. Each records a PASS/FAIL line for the terminal
summary (conftest.py) and then asserts, so a failure is visible both in
the pytest output and in the per-claim report.
"""

import cmath
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from thzpatch import (ConductorSpec, GrapheneSheet, Grid1D, PatchGeometry,
                      SubstrateSpec, cli_main, compare_fdtd_analytic,
                      design_patch, f_res_metal, graphene_resonance,
                      kubo_sigma, mobility, parse_config, patch_for_target,
                      refinement_study, relaxation_from_mobility,
                      run_sheet_scattering, run_sweep,
                      spp_wavenumber_symmetric)

ROOT = Path(__file__).parent.parent

C0 = 299792458.0
EPS0 = 8.8541878128e-12

SUBSTRATE = SubstrateSpec(rel_permittivity=3.5, loss_tangent=0.0027,
                          thickness=50e-6)
BAND = (220e9, 325e9)
FERMI_GRID = (0.3, 0.6, 0.9, 1.2)
TAU_GRID_PS = (0.3, 0.6, 0.9, 1.2)


def _check(criterion, number, title, ok, detail):
    criterion(number, title, bool(ok), detail)
    assert ok, f"{title}: {detail}"


@pytest.fixture(scope="module")
def designed():
    return design_patch(280e9, SUBSTRATE)


@pytest.fixture(scope="module")
def published():
    return PatchGeometry(355e-6, 262e-6, SUBSTRATE)


@pytest.fixture(scope="module")
def sweep_cells():
    config = parse_config((ROOT / "paper.cfg").read_text())
    return run_sweep(config)


def _cell(cells, fermi, tau):
    for c in cells:
        if (c.variant, c.fermi_ev, c.tau_ps) == ("graphene", fermi, tau):
            return c.report
    raise AssertionError(f"no sweep cell ({fermi}, {tau})")


def test_criterion_01_patch_dimensions(criterion):
    design_patch(280e9, SUBSTRATE)  # warm up
    t0 = time.perf_counter()
    geom = design_patch(280e9, SUBSTRATE)
    elapsed = time.perf_counter() - t0
    w_um = geom.width * 1e6
    l_um = geom.length * 1e6
    ok = abs(w_um - 355) <= 5 and abs(l_um - 262) <= 3 and elapsed < 1e-3
    _check(criterion, 1, "design matches the published patch dimensions", ok,
           f"W={w_um:.1f} um, L={l_um:.1f} um, {elapsed * 1e6:.0f} us")


def test_criterion_02_metal_resonance(criterion, published):
    f_ghz = f_res_metal(published) / 1e9
    _check(criterion, 2, "published dimensions resonate at 280 GHz",
           abs(f_ghz - 280) <= 2, f"f_res={f_ghz:.2f} GHz")


def test_criterion_03_fermi_tuning_endpoints(criterion, published):
    freqs = [graphene_resonance(
        published, ConductorSpec.graphene(GrapheneSheet(ef, 1.2e-12))) / 1e9
        for ef in FERMI_GRID]
    monotone = all(a < b for a, b in zip(freqs, freqs[1:]))
    ok = abs(freqs[-1] - 263) <= 8 and abs(freqs[0] - 225) <= 12 and monotone
    _check(criterion, 3, "Fermi-level tuning spans the published endpoints",
           ok, f"{freqs[0]:.1f} -> {freqs[-1]:.1f} GHz, monotone={monotone}")


def test_criterion_04_relative_shift(criterion, designed):
    spec = ConductorSpec.graphene(GrapheneSheet(1.2, 1.2e-12))
    shift = 1 - graphene_resonance(designed, spec) / f_res_metal(designed)
    _check(criterion, 4, "graphene resonance sits a few percent below metal",
           0.04 <= shift <= 0.08, f"shift={100 * shift:.2f} %")


def test_criterion_05_graphene_below_metal(criterion, sweep_cells):
    metal = next(c.report for c in sweep_cells if c.variant == "metal")
    graphene = [c.report for c in sweep_cells if c.variant == "graphene"]
    ok = len(graphene) == 16 and all(
        r.resonant_frequency < metal.resonant_frequency for r in graphene)
    _check(criterion, 5, "all 16 graphene cells resonate below metal", ok,
           f"{len(graphene)} cells, max "
           f"{max(r.resonant_frequency for r in graphene) / 1e9:.1f} GHz")


def test_criterion_06_mobility_identity(criterion):
    sheet = GrapheneSheet(0.9, 0.9e-12)
    mu = mobility(sheet)
    tau_back = relaxation_from_mobility(mu, 0.9)
    roundtrip = abs(tau_back - sheet.relaxation_time) / sheet.relaxation_time
    ok = abs(mu - 10000) / 10000 <= 0.01 and roundtrip < 1e-12
    _check(criterion, 6, "0.9 eV / 0.9 ps maps to 10000 cm^2/Vs", ok,
           f"mu={mu:.6g}, roundtrip rel err={roundtrip:.1e}")


def test_criterion_07_bandwidth(criterion, sweep_cells):
    bw_ghz = _cell(sweep_cells, 1.2, 1.2).bandwidth_minus10db / 1e9
    _check(criterion, 7, "best-cell -10 dB bandwidth near 19 GHz",
           abs(bw_ghz - 19) <= 6, f"bw={bw_ghz:.2f} GHz")


def test_criterion_08_return_loss_trends(criterion, sweep_cells):
    by_fermi = [_cell(sweep_cells, ef, 1.2).min_s11_db for ef in FERMI_GRID]
    by_tau = [_cell(sweep_cells, 1.2, t).min_s11_db for t in TAU_GRID_PS]
    deeper_with_fermi = all(a > b for a, b in zip(by_fermi, by_fermi[1:]))
    deeper_with_tau = all(a > b for a, b in zip(by_tau, by_tau[1:]))
    worst_never_matches = _cell(sweep_cells, 0.3, 1.2).min_s11_db > -10
    ok = deeper_with_fermi and deeper_with_tau and worst_never_matches
    _check(criterion, 8, "S11 depth improves with E_F and with tau", ok,
           f"E_F row {by_fermi[0]:.1f}..{by_fermi[-1]:.1f} dB, "
           f"tau row {by_tau[0]:.1f}..{by_tau[-1]:.1f} dB")


def test_criterion_09_gain(criterion, sweep_cells):
    g_best = _cell(sweep_cells, 1.2, 1.2).gain_dbi
    g_mid = _cell(sweep_cells, 1.2, 0.6).gain_dbi
    delta = g_best - g_mid
    ok = (abs(g_best - 2.7) <= 2.5 and abs(g_mid - 0.4) <= 2.5
          and 1 <= delta <= 4 and g_best > g_mid)
    _check(criterion, 9, "gains bracket the published pair with the right gap",
           ok, f"G(1.2ps)={g_best:.2f} dBi, G(0.6ps)={g_mid:.2f} dBi, "
           f"delta={delta:.2f} dB")


def test_criterion_10_conductivity_oracle(criterion):
    worst = 0.0
    freqs = np.linspace(BAND[0], BAND[1], 100)
    for ef in FERMI_GRID:
        for tau_ps in TAU_GRID_PS:
            sheet = GrapheneSheet(ef, tau_ps * 1e-12)
            for f in freqs:
                mine = kubo_sigma(sheet, 2 * math.pi * f).value
                exact = complex(oracles.sigma(ef, tau_ps, f))
                worst = max(worst, abs(mine - exact) / abs(exact))
    _check(criterion, 10,
           "sheet conductivity matches the arbitrary-precision oracle",
           worst < 1e-10, f"worst rel err={worst:.2e} on 4x4x100 grid")


def test_criterion_11_fdtd_verification(criterion):
    good = GrapheneSheet(1.2, 1.2e-12)
    poor = GrapheneSheet(0.3, 0.3e-12)
    study = refinement_study(good, BAND, resolutions=(100, 200, 400))
    errors = [err for _, err in study]
    err_good = errors[1]
    err_poor = compare_fdtd_analytic(poor, Grid1D.for_resolution(200), BAND)
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    run = run_sheet_scattering(good, Grid1D.for_resolution(200), BAND)
    balance = float(np.max(np.abs(np.abs(run.reflection) ** 2
                                  + np.abs(run.transmission) ** 2
                                  + run.absorption - 1)))
    ok = err_good < 0.01 and err_poor < 0.01 and monotone and balance < 0.01
    _check(criterion, 11, "time-domain run reproduces the sheet analytics",
           ok, f"err={err_good:.1e}/{err_poor:.1e}, refinement "
           f"{errors[0]:.1e}->{errors[-1]:.1e}, energy defect {balance:.1e}")


def test_criterion_12_spp_confinement(criterion):
    worst_residual = 0.0
    all_bound = True
    for f in (220e9, 280e9, 325e9):
        w = 2 * math.pi * f
        k0 = w / C0
        for ef in FERMI_GRID:
            sigma = kubo_sigma(GrapheneSheet(ef, 1.2e-12), w)
            sol = spp_wavenumber_symmetric(sigma, 1.0, w)
            q = sol.wavenumber
            kappa = cmath.sqrt(q * q - k0 * k0)
            rhs = -1j * sigma.value / (w * EPS0)
            residual = abs(2 / kappa - rhs) / abs(rhs)
            worst_residual = max(worst_residual, residual)
            all_bound &= q.real > k0 and sol.spp_wavelength < 2 * math.pi / k0
    confs = [spp_wavenumber_symmetric(
        kubo_sigma(GrapheneSheet(ef, 1.2e-12), 2 * math.pi * 280e9), 1.0,
        2 * math.pi * 280e9).confinement_ratio for ef in FERMI_GRID]
    decreasing = all(a > b for a, b in zip(confs, confs[1:]))
    ok = all_bound and worst_residual < 1e-10 and decreasing
    _check(criterion, 12, "surface waves are bound, solved, and gate-tunable",
           ok, f"residual<{worst_residual:.1e}, confinement "
           f"{confs[0]:.4f}->{confs[-1]:.4f} over E_F")


def test_criterion_13_inverse_design(criterion, capsys):
    sheet = GrapheneSheet(1.2, 1.2e-12)
    resized = patch_for_target(280e9, SUBSTRATE, sheet)
    f_back = graphene_resonance(resized, ConductorSpec.graphene(sheet))
    code = cli_main(["resize", "--f0", "280GHz", "--ef", "1.2eV",
                     "--tau", "1.2ps", "--format", "json"])
    note = json.loads(capsys.readouterr().out).get("note", "")
    ok = (resized.length < 262e-6 and abs(f_back - 280e9) <= 0.1e9
          and code == 0 and "220 um" in note)
    _check(criterion, 13, "resized patch recovers the metal target frequency",
           ok, f"L'={resized.length * 1e6:.2f} um (220 um reference "
           f"documented in the CLI note), f={f_back / 1e9:.4f} GHz")


def test_criterion_14_deterministic_outputs(criterion, tmp_path):
    cfg = str(ROOT / "paper.cfg")
    identical = True
    for fmt, names in (("csv", ("run_spectra.csv", "run_summary.csv")),
                       ("json", ("run.json",))):
        for sub in ("a", "b"):
            out = tmp_path / fmt / sub / "run"
            assert cli_main(["sweep", cfg, "--format", fmt,
                             "--out", str(out), "--quiet"]) == 0
        for name in names:
            first = (tmp_path / fmt / "a" / name).read_bytes()
            second = (tmp_path / fmt / "b" / name).read_bytes()
            identical &= first == second
    _check(criterion, 14, "sweep outputs are byte-identical across runs",
           identical, "csv pair and json compared")
