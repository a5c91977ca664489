"""Sweep orchestration, serialization schemas, and the command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from thzpatch import (SPECTRA_HEADER, SUMMARY_HEADER, Spectrum,
                      SweepCellResult, ValidationError, cli_main, emit,
                      mutual_conductance_ratio, parse_config, run_sweep, sweep)
from thzpatch.errors import MAX_POINTS
from thzpatch.sweep import fmt9, format_table, json_records, summary_row

ROOT = Path(__file__).parent.parent

SMALL_CONFIG = """\
[substrate]
rel_permittivity = 3.5
loss_tangent = 0.0027
thickness = 50 um

[design]
frequency = 280 GHz

[sweep]
fermi_levels = 0.3, 0.6 eV
relaxation_times = 0.3, 1.2 ps
band = 220, 325 GHz
points = 11
variants = metal, graphene

[output]
format = csv
path = out
"""


@pytest.fixture(scope="module")
def small_results():
    return run_sweep(parse_config(SMALL_CONFIG))


@pytest.fixture(scope="module")
def paper_results():
    return run_sweep(parse_config((ROOT / "paper.cfg").read_text()))


def test_cell_ordering_metal_first_then_fermi_outer(small_results):
    ids = [(c.variant, c.fermi_ev, c.tau_ps) for c in small_results]
    assert ids == [
        ("metal", None, None),
        ("graphene", 0.3, 0.3),
        ("graphene", 0.3, 1.2),
        ("graphene", 0.6, 0.3),
        ("graphene", 0.6, 1.2),
    ]


def test_every_cell_solved(small_results):
    for cell in small_results:
        assert cell.error is None
        assert cell.report is not None
        assert len(cell.spectrum) == 11


def test_reference_config_cell_count(paper_results):
    assert len(paper_results) == 17  # metal + 4x4 graphene grid
    assert all(c.error is None for c in paper_results)
    assert all(len(c.spectrum) == 211 for c in paper_results)


def test_csv_schema(tmp_path, small_results):
    emit(small_results, "csv", str(tmp_path / "out"))
    spectra = (tmp_path / "out_spectra.csv").read_text().splitlines()
    summary = (tmp_path / "out_summary.csv").read_text().splitlines()
    assert spectra[0] == SPECTRA_HEADER
    assert summary[0] == SUMMARY_HEADER
    assert len(spectra) == 1 + 5 * 11
    assert len(summary) == 1 + 5
    # metal has no sheet parameters: empty fields
    assert summary[1].startswith("metal,,,280,")
    assert spectra[1].startswith("metal,,,220,")
    # graphene rows carry their grid cell
    assert summary[2].startswith("graphene,0.3,0.3,")


def test_csv_numbers_are_9_significant_digits(tmp_path, small_results):
    emit(small_results, "csv", str(tmp_path / "out"))
    for line in (tmp_path / "out_spectra.csv").read_text().splitlines()[1:]:
        for field in line.split(",")[3:]:
            assert field == f"{float(field):.9g}"


def test_json_schema(tmp_path, small_results):
    emit(small_results, "json", str(tmp_path / "out"))
    doc = json.loads((tmp_path / "out.json").read_text())
    assert set(doc) == {"spectra", "summary"}
    assert len(doc["summary"]) == 5
    assert len(doc["spectra"]) == 5 * 11
    assert list(doc["summary"][0]) == SUMMARY_HEADER.split(",")
    assert list(doc["spectra"][0]) == SPECTRA_HEADER.split(",")
    metal = doc["summary"][0]
    assert metal["variant"] == "metal"
    assert metal["fermi_eV"] is None and metal["tau_ps"] is None
    assert doc["summary"][1]["fermi_eV"] == 0.3


def test_emit_is_deterministic(tmp_path):
    config = parse_config(SMALL_CONFIG)
    for fmt, names in (("csv", ["a_spectra.csv", "a_summary.csv"]),
                       ("json", ["a.json"])):
        emit(run_sweep(config), fmt, str(tmp_path / "1" / "a"))
        emit(run_sweep(config), fmt, str(tmp_path / "2" / "a"))
        for name in names:
            first = (tmp_path / "1" / name).read_bytes()
            second = (tmp_path / "2" / name).read_bytes()
            assert first == second


def test_emit_rejects_unknown_format(tmp_path, small_results):
    with pytest.raises(ValidationError):
        emit(small_results, "yaml", str(tmp_path / "out"))


def _reference_tables(results):
    """The spectra and summary rows as the per-point writer built them."""
    solved = [c for c in results if c.report is not None]
    spectra = [(c.variant, c.fermi_ev, c.tau_ps, p.frequency / 1e9, p.s11_db,
                p.input_resistance, p.input_reactance)
               for c in solved for p in c.spectrum]
    summary = [summary_row(c.variant, c.fermi_ev, c.tau_ps, c.report)
               for c in solved]
    return spectra, summary


FAILED_ONLY = [SweepCellResult("metal", None, None, None, None, "failed")]


@pytest.mark.parametrize("which", ["small", "failed_only"])
def test_emit_matches_the_reference_writer(tmp_path, small_results, which):
    results = small_results if which == "small" else FAILED_ONLY
    spectra, summary = _reference_tables(results)
    emit(results, "csv", str(tmp_path / "out"))
    emit(results, "json", str(tmp_path / "out"))
    assert (tmp_path / "out_spectra.csv").read_text() == \
        format_table(SPECTRA_HEADER.split(","), spectra)
    assert (tmp_path / "out_summary.csv").read_text() == \
        format_table(SUMMARY_HEADER.split(","), summary)
    doc = {"spectra": json_records(SPECTRA_HEADER.split(","), spectra),
           "summary": json_records(SUMMARY_HEADER.split(","), summary)}
    assert (tmp_path / "out.json").read_text() == \
        json.dumps(doc, indent=2) + "\n"


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1e16)
@example(1e-5)
@example(1e300)
@example(-1e300)
@example(1.7976931348623157e308)
@example(3.0)
@example(-120.0)
@example(123456789.0)
@example(2.0 ** 53)
def test_spectra_row_formatters_match_fmt9_and_json(value):
    arrays = [np.array([value]) for _ in range(4)]
    cell = SweepCellResult("graphene", 0.3, 1.2, None, Spectrum(*arrays),
                           None)
    p, = cell.spectrum
    row = ("graphene", 0.3, 1.2, p.frequency / 1e9, p.s11_db,
           p.input_resistance, p.input_reactance)
    assert sweep._csv_spectra(cell) == ",".join(map(fmt9, row)) + "\n"
    # json.dumps lays a one-object list out two spaces shallower than the
    # objects of the sweep document's member lists.
    listed = json.dumps(json_records(SPECTRA_HEADER.split(","), [row]),
                        indent=2)
    expected = "\n".join("  " + line for line in listed.splitlines()[1:-1])
    assert sweep._json_spectra(cell) == expected


@pytest.mark.parametrize("fmt, formatter, target", [
    ("csv", "_csv_spectra", "out_spectra.csv"),
    ("json", "_json_spectra", "out.json"),
])
def test_a_failed_emit_leaves_no_partial_file(tmp_path, monkeypatch,
                                              small_results, fmt, formatter,
                                              target):
    real = getattr(sweep, formatter)
    written = []

    def fail_on_third_cell(cell):
        if len(written) == 2:
            raise RuntimeError("formatter failed")
        written.append(cell)
        return real(cell)

    monkeypatch.setattr(sweep, formatter, fail_on_third_cell)
    with pytest.raises(RuntimeError):
        emit(small_results, fmt, str(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []

    # A file from an earlier run is left as it was.
    (tmp_path / target).write_text("earlier run\n")
    written.clear()
    with pytest.raises(RuntimeError):
        emit(small_results, fmt, str(tmp_path / "out"))
    assert [p.name for p in tmp_path.iterdir()] == [target]
    assert (tmp_path / target).read_text() == "earlier run\n"


def test_sweep_computes_one_radiation_integral_per_resonance():
    config = parse_config((ROOT / "paper.cfg").read_text())
    mutual_conductance_ratio.cache_clear()
    run_sweep(config)
    # 4 Fermi levels give 4 graphene resonances; metal adds one.
    assert mutual_conductance_ratio.cache_info().misses == 5


def test_metal_summary_golden_row(tmp_path, paper_results):
    emit(paper_results, "csv", str(tmp_path / "paper"))
    summary = (tmp_path / "paper_summary.csv").read_text().splitlines()
    assert summary[1] == \
        "metal,,,280,-120,15.9284004,0.949656803,6.6,6.37566684"


# command line


def test_cli_design(capsys):
    assert cli_main(["design", "--f0", "280GHz"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["W_um"]) == pytest.approx(356.895783, rel=1e-8)
    assert float(values["L_um"]) == pytest.approx(262.195061, rel=1e-8)
    assert float(values["f_res_GHz"]) == pytest.approx(280.0, rel=1e-9)


def test_cli_design_json(capsys):
    assert cli_main(["design", "--f0", "280GHz", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eps_eff"] == pytest.approx(3.0133934, rel=1e-7)
    # both fields are rounded to 9 significant digits independently
    assert doc["substrate_W_um"] == pytest.approx(2 * doc["W_um"], rel=1e-8)


def test_cli_design_never_imports_scipy():
    code = ("import sys\n"
            "from thzpatch.cli import cli_main\n"
            "assert cli_main(['design', '--f0', '280GHz']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("flag, value", [("--er", "inf"), ("--er", "nan"),
                                         ("--tand", "nan")])
def test_cli_non_finite_substrate_is_a_usage_error(capsys, flag, value):
    assert cli_main(["design", "--f0", "280GHz", flag, value]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "must be finite" in err


def test_cli_sweep_non_finite_config_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CONFIG.replace("rel_permittivity = 3.5",
                                        "rel_permittivity = inf"))
    assert cli_main(["sweep", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2: key 'rel_permittivity': must be finite" in err
    assert "Traceback" not in err


def test_cli_missing_unit_is_a_usage_error(capsys):
    assert cli_main(["design", "--f0", "280"]) == 1
    assert "missing unit suffix" in capsys.readouterr().err


def test_cli_unknown_flag(capsys):
    assert cli_main(["design", "--f0", "280GHz", "--bogus"]) == 1


def test_cli_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "design" in capsys.readouterr().out


def test_cli_analyze_json(capsys):
    code = cli_main(["analyze", "--f0", "280GHz", "--ef", "1.2eV",
                     "--tau", "1.2ps", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "graphene"
    assert doc["f_res_GHz"] == pytest.approx(265.445129, rel=1e-8)
    assert doc["eff"] == pytest.approx(0.598259489, rel=1e-8)
    assert doc["bw_GHz"] == pytest.approx(15.665, rel=1e-2)


def test_cli_spp_table(capsys):
    assert cli_main(["spp", "--ef", "1.2eV", "--tau", "1.2ps"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["freq_GHz", "q_re_rad_per_m",
                                    "q_im_rad_per_m", "confinement",
                                    "lambda_spp_um", "L_prop_um"]
    assert len(lines) == 1 + 22  # 220:325:5 GHz inclusive
    first = lines[1].split("\t")
    assert float(first[0]) == 220.0
    assert float(first[3]) > 1.0


def test_cli_spp_unbound_sheet_is_a_numerical_failure(capsys):
    code = cli_main(["spp", "--ef", "2.0eV", "--tau", "0.3ps",
                     "--f", "1 GHz"])
    assert code == 2
    assert "bind a TM mode" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_spp_non_finite_eps_is_a_usage_error(capsys, value):
    code = cli_main(["spp", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--eps", value])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "eps must be finite and >= 1" in err


def test_cli_spp_range_longer_than_the_cap_is_a_usage_error(capsys):
    # Imported first: code without the cap would try to build ~9e11 floats.
    from thzpatch.config import MAX_LIST_LENGTH
    code = cli_main(["spp", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--f", "100GHz:1THz:1Hz"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"range has 900000000001 entries, more than {MAX_LIST_LENGTH}" in err


@pytest.mark.parametrize("halfspaces", [[], ["--eps-above", "1",
                                              "--eps-below", "3.5"]],
                         ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("freq", ["1e400GHz", "1e300THz"])
def test_cli_spp_infinite_frequency_is_a_usage_error(capsys, halfspaces,
                                                     freq):
    code = cli_main(["spp", "--ef", "1.2eV", "--tau", "1.2ps", "--f", freq,
                     *halfspaces])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "angular_frequency must be finite and > 0" in err


def test_cli_spp_halfspace_flags_go_together(capsys):
    code = cli_main(["spp", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--eps-above", "1.0"])
    assert code == 1
    assert "go together" in capsys.readouterr().err


def test_cli_fdtd_check(tmp_path, capsys):
    csv_path = tmp_path / "scatter.csv"
    code = cli_main(["fdtd-check", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--resolution", "100", "--points", "11",
                     "--out", str(csv_path), "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("max_abs_error = ")
    assert float(out.split("=")[1]) < 0.01
    header = csv_path.read_text().splitlines()[0]
    assert header == ("variant,fermi_eV,tau_ps,freq_GHz,r_real,r_imag,"
                      "t_real,t_imag,absorption")
    assert len(csv_path.read_text().splitlines()) == 1 + 11


@pytest.mark.parametrize("resolution", ["0", "-5", "99", "1601",
                                        "100000000"])
def test_cli_fdtd_check_resolution_outside_range_is_a_usage_error(
        capsys, resolution):
    # Rejected when the grid is built, before anything is allocated.
    code = cli_main(["fdtd-check", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--resolution", resolution])
    assert code == 1
    err = capsys.readouterr().err
    assert "resolution must be in [100, 1600]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "fdtd-check"])
@pytest.mark.parametrize("points", [MAX_POINTS + 1, 10**9])
def test_cli_points_above_the_cap_is_a_usage_error(capsys, command, points):
    # Rejected before any spectrum or time-domain record is allocated.
    args = [command, "--ef", "1.2eV", "--tau", "1.2ps",
            "--points", str(points)]
    if command == "analyze":
        args += ["--f0", "280GHz"]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert f"points must be >= 2 and <= {MAX_POINTS}" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flag, value", [
    ("analyze", "--band-lo", "0GHz"),
    ("analyze", "--band-lo", "-10GHz"),
    ("analyze", "--band-hi", "1e400GHz"),
    ("fdtd-check", "--band-hi", "1e400GHz"),
])
def test_cli_band_outside_positive_finite_is_a_usage_error(capsys, command,
                                                           flag, value):
    args = [command, "--ef", "1.2eV", "--tau", "1.2ps", f"{flag}={value}"]
    if command == "analyze":
        args += ["--f0", "280GHz"]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert "band must satisfy 0 < f_lo < f_hi" in err
    assert "Traceback" not in err


def test_cli_resize(capsys):
    code = cli_main(["resize", "--f0", "280GHz", "--ef", "1.2eV",
                     "--tau", "1.2ps"])
    assert code == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert float(values["L_resized_um"]) == pytest.approx(246.164265, rel=1e-7)
    assert float(values["f_res_GHz"]) == pytest.approx(280.0, abs=1e-5)
    assert "note" in values


def test_cli_resize_infeasible_target_is_a_numerical_failure(capsys):
    # At 0.05 eV even the half-length patch resonates below 280 GHz.
    code = cli_main(["resize", "--f0", "280GHz", "--ef", "0.05eV",
                     "--tau", "1.2ps"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "280.000 GHz target" in lines[0]


def test_cli_sweep_runs_config(tmp_path, capsys):
    out_base = tmp_path / "run"
    cfg = SMALL_CONFIG.replace("path = out", f"path = {out_base}")
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(cfg)
    assert cli_main(["sweep", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.err
    assert (tmp_path / "run_summary.csv").exists()
    assert (tmp_path / "run_spectra.csv").exists()

    # --format/--out override the config file
    assert cli_main(["sweep", str(cfg_path), "--format", "json",
                     "--out", str(tmp_path / "j"), "--quiet"]) == 0
    doc = json.loads((tmp_path / "j.json").read_text())
    assert len(doc["summary"]) == 5


def test_cli_sweep_missing_file(tmp_path, capsys):
    assert cli_main(["sweep", str(tmp_path / "nope.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CONFIG.replace("280 GHz", "280"))
    assert cli_main(["sweep", str(bad)]) == 1
    assert "missing unit suffix" in capsys.readouterr().err
