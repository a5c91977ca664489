"""Sweep orchestration, serialization schemas, and the command line."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from thzpatch import (SPECTRA_HEADER, SUMMARY_HEADER, NoBoundModeError,
                      Spectrum, SweepCellResult, ValidationError, circuit, cli,
                      cli_main, emit, evaluate, fdtd, mutual_conductance_ratio,
                      parse_config, run_sweep, sweep)
from thzpatch.errors import MAX_POINTS
from thzpatch.tables import (_json9, fmt9, format_table, summary_row,
                             write_table)

ROOT = Path(__file__).parent.parent


def json_records(columns, rows):
    """Rows as objects keyed by column, floats rounded to 9 digits: the
    reference that the JSON writers are held to, through json.dumps."""
    return [{k: float(fmt9(v)) if isinstance(v, float) else v
             for k, v in zip(columns, row)} for row in rows]


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


def _assert_emit_matches_reference(tmp_path, results, fmt):
    spectra, summary = _reference_tables(results)
    emit(results, fmt, str(tmp_path / "out"))
    if fmt == "csv":
        assert (tmp_path / "out_spectra.csv").read_text() == \
            format_table(SPECTRA_HEADER.split(","), spectra)
        assert (tmp_path / "out_summary.csv").read_text() == \
            format_table(SUMMARY_HEADER.split(","), summary)
    else:
        doc = {"spectra": json_records(SPECTRA_HEADER.split(","), spectra),
               "summary": json_records(SUMMARY_HEADER.split(","), summary)}
        assert (tmp_path / "out.json").read_text() == \
            json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("which", ["small", "failed_only"])
def test_emit_matches_the_reference_writer(tmp_path, small_results, which):
    results = small_results if which == "small" else FAILED_ONLY
    for fmt in ("csv", "json"):
        _assert_emit_matches_reference(tmp_path, results, fmt)


def test_emit_formats_each_frequency_grid_as_its_own(tmp_path, small_results):
    # The frequency texts are cached per grid: alternating grids that differ
    # in band, or in band and length, must never write one grid's texts for
    # another's rows.
    def sweep_over(band, points):
        return run_sweep(parse_config(SMALL_CONFIG.replace(
            "band = 220, 325 GHz\npoints = 11",
            f"band = {band} GHz\npoints = {points}")))

    same_length = sweep_over("230, 320", 11)
    longer = sweep_over("230, 320", 37)
    assert len(longer[0].spectrum) == 37
    for results in (small_results, longer, same_length, small_results, longer):
        for fmt in ("csv", "json", "csv"):
            _assert_emit_matches_reference(tmp_path, results, fmt)


def test_emit_matches_the_reference_across_block_edges(tmp_path,
                                                       monkeypatch,
                                                       small_results):
    # Blocks of 1, 2 and 3 cells, and one cell per block with more rows
    # than a block holds.
    for rows in (11, 22, 33, 5):
        monkeypatch.setattr(sweep, "SPECTRA_BLOCK_ROWS", rows)
        assert len(list(sweep._blocks(small_results))) == \
            {11: 5, 22: 3, 33: 2, 5: 5}[rows]
        for fmt in ("csv", "json"):
            _assert_emit_matches_reference(tmp_path, small_results, fmt)


def test_emit_matches_the_reference_on_mixed_grids(tmp_path, monkeypatch,
                                                   small_results):
    # Cells of 11 and of 37 points, whose frequency texts differ in length
    # too: all in one block, then in blocks of at most 48 rows, one of which
    # holds a cell of each grid.
    longer = run_sweep(parse_config(SMALL_CONFIG.replace(
        "band = 220, 325 GHz\npoints = 11",
        "band = 230, 320.5 GHz\npoints = 37")))
    mixed = small_results + longer
    for rows in (None, 48):
        if rows:
            monkeypatch.setattr(sweep, "SPECTRA_BLOCK_ROWS", rows)
        assert any(len({len(c.spectrum) for c in block}) == 2
                   for block in sweep._blocks(mixed))
        for fmt in ("csv", "json"):
            _assert_emit_matches_reference(tmp_path, mixed, fmt)


def _kernel_texts(values, json):
    return [row.tobytes().translate(None, b"\0").decode()
            for row in sweep._texts9(np.array(values, dtype=float), json)]


# Decimal ties first: an unguarded rint of |v| 10**(8 - e) gives the wrong
# last digit (89.6487718 for 89.6487719). Then the ends of the fixed-point
# range, before and after rounding to 9 digits (999999999.7 rounds to 1e+09,
# 99999.999996 to 100000).
@given(st.floats())
@example(89.64877185)
@example(0.0006691259615)
@example(0.01556770065)
@example(22.15539815)
@example(50883.56995)
@example(math.nextafter(1e-4, 0))
@example(1e-4)
@example(5e-5)
@example(99999999.95)
@example(123456789.5)
@example(999999999.5)
@example(999999999.7)
@example(99999.999996)
@example(1e9)
@example(-0.0)
@example(5e-324)
@example(1e15)
def test_texts9_is_exactly_the_per_value_text(value):
    assert _kernel_texts([value], False) == ["%.9g" % value]
    assert _kernel_texts([value], True) == [_json9(value)]


TIES = [89.64877185, 0.0006691259615, 0.01556770065, 22.15539815,
        50883.56995]


def test_texts9_formats_mixed_arrays_row_by_row():
    values = [*TIES, 1e-4, 999999999.5, 0.0, float("nan"), float("-inf"),
              -2.5e-300, 1e300, 3.0, -0.001, 1234.5678]
    values += [-v for v in values]
    for json in (False, True):
        assert _kernel_texts(values, json) == [
            _json9(v) if json else "%.9g" % v for v in values]


def test_emit_writes_non_finite_spectra_as_the_reference_writer(
        tmp_path, small_results):
    # JSON spells NaN and the infinities as json.dumps does, so json.load
    # reads the document back.
    s = small_results[1].spectrum
    s11 = np.array(s.s11_db)
    s11[:3] = [math.nan, math.inf, -math.inf]
    cell = dataclasses.replace(small_results[1], spectrum=Spectrum(
        s.frequency, s11, s.input_resistance, s.input_reactance))
    results = [small_results[0], cell]
    for fmt in ("csv", "json"):
        _assert_emit_matches_reference(tmp_path, results, fmt)
    with open(tmp_path / "out.json", encoding="utf-8") as fh:
        rows = json.load(fh)["spectra"][len(s):len(s) + 3]
    nan, inf, minus_inf = (row["s11_dB"] for row in rows)
    assert math.isnan(nan) and inf == math.inf and minus_inf == -math.inf


def _assert_spectra_formatters_match(columns):
    """_spectra of a cell with these four columns gives format_table's
    rows as CSV and json.dumps's layout of json_records as JSON."""
    cell = SweepCellResult("graphene", 0.3, 1.2, None,
                           Spectrum(*map(np.array, columns)), None)
    rows = [("graphene", 0.3, 1.2, p.frequency / 1e9, p.s11_db,
             p.input_resistance, p.input_reactance) for p in cell.spectrum]
    table = format_table(SPECTRA_HEADER.split(","), rows)
    assert sweep._spectra([cell], False).decode() == table.split("\n", 1)[1]
    # json.dumps lays a top-level list out two spaces shallower than the
    # objects of the sweep document's member lists.
    listed = json.dumps(json_records(SPECTRA_HEADER.split(","), rows),
                        indent=2)
    expected = "\n".join("  " + line for line in listed.splitlines()[1:-1])
    assert sweep._spectra([cell], True).decode() == expected


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
    _assert_spectra_formatters_match([[value]] * 4)


# Values at the edges of _texts9's fixed-point range [1e-4, 1e9): whole
# numbers, its ends before and after rounding to 9 digits, values that round
# to a whole number or to a power of ten, huge and subnormal magnitudes, and
# -0.0.
EDGE_VALUES = [3.0, -120.0, 2.0 ** 53, 1e-3, -1e-3, 0.000999999999, 1e8,
               -1e8, 99999999.99999, 99999999.5, 999999999.5, 1e16, -0.0,
               0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 0.5, 1.5,
               12345.0000001, 1e-4, math.nextafter(1e-4, 0), 99999.999996]


@given(st.integers(1, 40).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(EDGE_VALUES)),
             min_size=n, max_size=n),
    min_size=4, max_size=4)))
def test_spectra_formatters_match_on_mixed_columns(columns):
    # A column mixes values the kernel formats with values it formats one
    # by one (outside its range, zeros, near ties); each row's text is exact.
    _assert_spectra_formatters_match(columns)


def _written(columns, rows, fmt, record=False):
    """What write_table prints for these rows."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_table(columns, rows, fmt, None, record)
    return out.getvalue()


CELLS = st.one_of(st.floats(), st.none(), st.text())


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.text(min_size=1), min_size=n, max_size=n, unique=True),
    st.lists(st.lists(CELLS, min_size=n, max_size=n), max_size=4))))
@example((["a"], []))
@example((["f", "s", "none"], [[float("nan"), "x", None],
                               [float("-inf"), "", 1.0000000004999]]))
def test_write_table_matches_json_dumps_and_format_table(table):
    # Floats, inf and nan included, are rounded to 9 digits by fmt9.
    columns, rows = table
    assert _written(columns, rows, "json") == \
        json.dumps(json_records(columns, rows), indent=2) + "\n"
    assert _written(columns, rows, "csv") == format_table(columns, rows)
    assert _written(columns, rows, None) == \
        format_table(columns, rows, "\t")
    for row in rows[:1]:
        assert _written(columns, [row], "json", record=True) == \
            json.dumps(json_records(columns, [row])[0], indent=2) + "\n"
        assert _written(columns, [row], None, record=True) == "".join(
            f"{k} = {fmt9(v)}\n" for k, v in zip(columns, row))


def test_write_atomic_writes_every_path_or_none(tmp_path):
    # The second text fails after the first is complete: neither path is
    # replaced, and no temporary file is left.
    def failing():
        yield "partial\n"
        raise RuntimeError("chunk failed")

    (tmp_path / "a.txt").write_text("earlier run\n")
    with pytest.raises(RuntimeError):
        sweep.write_atomic([(str(tmp_path / "a.txt"), ["new\n"]),
                            (str(tmp_path / "b.txt"), failing())])
    assert os.listdir(tmp_path) == ["a.txt"]
    assert (tmp_path / "a.txt").read_text() == "earlier run\n"


@pytest.mark.parametrize("earlier", [False, True])
def test_write_atomic_undoes_the_first_rename_when_the_second_fails(
        tmp_path, monkeypatch, earlier):
    first, second = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    if earlier:
        for path in (first, second):
            Path(path).write_text("earlier run\n")
    real = os.replace

    def failing_second(src, dst):
        if dst == second:
            raise OSError("rename failed")
        real(src, dst)

    monkeypatch.setattr(os, "replace", failing_second)
    with pytest.raises(OSError, match="rename failed"):
        sweep.write_atomic([(first, ["new\n"]), (second, ["new\n"])])
    assert sorted(os.listdir(tmp_path)) == (["a.txt", "b.txt"] if earlier
                                            else [])
    for path in os.listdir(tmp_path):
        assert (tmp_path / path).read_text() == "earlier run\n"

    # Without the failure, both are replaced and nothing is left beside them.
    monkeypatch.setattr(os, "replace", real)
    sweep.write_atomic([(first, ["new\n"]), (second, ["new\n"])])
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]
    assert Path(first).read_text() == Path(second).read_text() == "new\n"


@pytest.mark.parametrize("fmt, target", [
    ("csv", "out_spectra.csv"),
    ("json", "out.json"),
])
def test_a_failed_emit_leaves_no_partial_file(tmp_path, monkeypatch,
                                              small_results, fmt, target):
    real = sweep._spectra
    written = []

    def fail_on_second_block(cells, json):
        if len(written) == 1:
            raise RuntimeError("formatter failed")
        written.append(cells)
        return real(cells, json)

    # One cell of 11 points per block: the file fails after its first block.
    monkeypatch.setattr(sweep, "SPECTRA_BLOCK_ROWS", 11)
    monkeypatch.setattr(sweep, "_spectra", fail_on_second_block)
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
    circuit._resonator.cache_clear()
    run_sweep(config)
    # 4 Fermi levels give 4 graphene resonances; metal adds one.
    assert mutual_conductance_ratio.cache_info().misses == 5


def test_sweep_solves_each_variant_once_and_the_feed_once(monkeypatch):
    config = parse_config((ROOT / "paper.cfg").read_text())
    solved = []

    def counting(*args):
        solved.append(args)
        return real(*args)

    real = circuit.q_factors
    monkeypatch.setattr(circuit, "q_factors", counting)
    circuit._resonator.cache_clear()
    run_sweep(config)
    # 16 graphene cells and the metal cell, which is also the feed.
    assert len(solved) == 17
    solved.clear()
    # Only the feed is kept from one sweep to the next.
    run_sweep(config)
    assert len(solved) == 16


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


def _python(*args):
    """A fresh interpreter on this checkout's src/, output captured."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def _modules_loaded_by(code):
    """sys.modules after code runs in a fresh interpreter."""
    run = _python("-c", code + "\nimport sys; print(sorted(sys.modules))")
    assert run.returncode == 0, run.stderr
    return set(eval(run.stdout.splitlines()[-1]))


SHEET = ["--ef", "1.2eV", "--tau", "1.2ps"]
NO_ARRAYS = ("numpy", "thzpatch.circuit", "thzpatch.fdtd", "thzpatch.sweep")


# A cold command loads only the layers it computes with, and none needs
# scipy. design, resize and a symmetric spp compute nothing with numpy.
@pytest.mark.parametrize("argv, unloaded", [
    (["design", "--f0", "280GHz"], NO_ARRAYS),
    (["resize", "--f0", "280GHz", *SHEET], NO_ARRAYS),
    (["spp", *SHEET, "--eps", "3.5"], NO_ARRAYS),
    (["analyze", "--f0", "280GHz", *SHEET, "--points", "11"],
     ["thzpatch.fdtd"]),
    (["sweep", str(ROOT / "paper.cfg"), "--out", "{tmp}", "--quiet"],
     ["thzpatch.fdtd"]),
    (["fdtd-check", *SHEET, "--resolution", "100", "--points", "3",
      "--quiet"], ["thzpatch.circuit", "thzpatch.sweep"]),
], ids=["design", "resize", "spp", "analyze", "sweep", "fdtd-check"])
def test_cold_command_loads_only_the_layers_it_uses(tmp_path, argv,
                                                    unloaded):
    argv = [arg.format(tmp=tmp_path / "paper") for arg in argv]
    loaded = _modules_loaded_by("from thzpatch.cli import cli_main\n"
                                f"assert cli_main({argv!r}) == 0")
    assert "thzpatch.cli" in loaded
    assert sorted(loaded & set(unloaded)) == []
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


@pytest.mark.parametrize("name", ["kubo_sigma", "fdtd"])
def test_package_root_loads_every_layer_on_first_use(name):
    bare = _modules_loaded_by("import thzpatch")
    assert [m for m in bare if m.startswith("thzpatch.")] == []
    assert "numpy" not in bare
    # bench/tracing.py reads sys.modules["thzpatch.<layer>"] for each layer
    # once a public name has been read.
    used = _modules_loaded_by(f"import thzpatch\nthzpatch.{name}")
    assert {f"thzpatch.{layer}" for layer in (
        "circuit", "cli", "config", "constants", "errors", "fdtd",
        "materials", "patch", "spp", "sweep")} <= used


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


def test_cli_sweep_config_not_in_utf8_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe" + SMALL_CONFIG.encode("utf-16-le"))
    assert cli_main(["sweep", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: not UTF-8 at byte 0" in err
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


def test_cli_spp_eps_with_halfspace_flags_is_a_usage_error(capsys):
    # --eps sets the symmetric environment; the asymmetric solve never
    # reads it, so naming both must not silently drop --eps.
    code = cli_main(["spp", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--f", "280GHz", "--eps", "4", "--eps-above", "1",
                     "--eps-below", "3.5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "--eps does not go with --eps-above/--eps-below" in err


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


def test_cli_fdtd_check_json_output(tmp_path, capsys):
    json_path = tmp_path / "scatter.json"
    code = cli_main(["fdtd-check", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--resolution", "100", "--points", "3",
                     "--format", "json", "--out", str(json_path), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out.startswith("max_abs_error = ")
    with open(json_path, encoding="utf-8") as fh:
        records = json.load(fh)
    assert [r["freq_GHz"] for r in records] == [220.0, 272.5, 325.0]
    assert all(r["variant"] == "graphene" and r["fermi_eV"] == 1.2
               for r in records)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_fdtd_check_format_without_out_is_a_usage_error(
        monkeypatch, capsys, fmt):
    # The format flag shapes only the --out table, so on its own it is
    # rejected before any FDTD work.
    def no_run(*args):
        raise AssertionError("ran the FDTD")

    monkeypatch.setattr(fdtd, "run_sheet_scattering", no_run)
    assert cli_main(["fdtd-check", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: fdtd-check prints only max_abs_error; "
                            "--format needs --out\n")


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


def test_cli_fdtd_check_too_hot_sheet_names_the_temperature(capsys):
    # Only --temp lifts a sheet past fdtd.MAX_DRUDE_WEIGHT, so the message
    # names the sheet and its temperature, not a drude_a the CLI has no
    # flag for.
    assert cli_main(["fdtd-check", "--ef", "2eV", "--tau", "5ps",
                     "--temp", "1e6K", "--resolution", "100",
                     "--points", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the 2 eV sheet at 1e+06 K has Drude "
                            "weight 1.41e+13 S/s, above 7e+11\n")


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


NARROW_BAND = ["--band-lo=280GHz", "--band-hi=280.000000000001GHz"]


def test_cli_analyze_band_too_narrow_for_its_points(capsys):
    # 211 samples over 1 mHz would repeat frequencies: rejected as a grid,
    # not later as an unsorted spectrum.
    assert cli_main(["analyze", "--f0", "280GHz", "--ef", "1.2eV",
                     "--tau", "1.2ps", *NARROW_BAND]) == 1
    err = capsys.readouterr().err
    assert err == ("error: band must be wide enough for 211 distinct "
                   "samples\n")


def test_cli_fdtd_check_band_too_narrow_for_its_points(capsys):
    # Rejected before marching, rather than run on repeated frequencies.
    assert cli_main(["fdtd-check", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--resolution", "100", *NARROW_BAND]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: band must be wide enough for 106 "
                            "distinct samples\n")


def test_cli_sweep_band_too_narrow_for_its_points(tmp_path, capsys):
    # Rejected at parse time with the key and line, before any cell fails
    # or any file is written.
    cfg = (ROOT / "paper.cfg").read_text()
    cfg = cfg.replace("band = 220, 325 GHz",
                      "band = 280, 280.000000000001 GHz")
    cfg = cfg.replace("path = paper_out", f"path = {tmp_path / 'out'}")
    (tmp_path / "narrow.cfg").write_text(cfg)
    assert cli_main(["sweep", str(tmp_path / "narrow.cfg")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: line 15: key 'band': must be wide enough for 211 "
                   "distinct samples\n")
    assert sorted(os.listdir(tmp_path)) == ["narrow.cfg"]


@pytest.mark.parametrize("threshold, code, message", [
    (0.01, 0, "within the 0.01 accuracy threshold"),
    (1e-12, 2, "error exceeds the 1e-12 accuracy threshold"),
])
def test_cli_fdtd_check_reports_the_threshold(monkeypatch, capsys, threshold,
                                              code, message):
    monkeypatch.setattr(cli, "FDTD_ERROR_THRESHOLD", threshold)
    assert cli_main(["fdtd-check", "--ef", "1.2eV", "--tau", "1.2ps",
                     "--resolution", "100", "--points", "11"]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith("max_abs_error = ")
    assert captured.err == message + "\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, code, message", [
    # The Drude weight's prefactor underflows to 0 here.
    (["analyze", "--f0=280GHz", "--temp=1e-300K"], 1,
     "temperature must be >= 1e-240 K"),
    # The metal's peak resistance, which scales as h^2, underflows here.
    (["analyze", "--f0=280GHz", "--h=1e-300um"], 1,
     "thickness must be >= 1e-150 m"),
    # The asymmetric quartic's coefficients overflow here.
    (["spp", "--eps-above=1", "--eps-below=1e300"], 2,
     "leaves double range"),
    # k0 underflows to 0 here, and the mode solvers divide by it.
    (["spp", "--f=1e-320Hz"], 1, "angular_frequency must be >= 1e-290"),
    # A lossless substrate: its dielectric Q is infinite.
    (["analyze", "--f0=280GHz", "--tand=0"], 0, ""),
], ids=["cold-sheet", "thin-substrate", "dense-halfspace",
        "subnormal-frequency", "lossless-substrate"])
def test_cli_inputs_that_raised_tracebacks(capsys, args, code, message):
    assert cli_main([*args, "--ef=1.2eV", "--tau=1.2ps"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def test_cli_sweep_reports_failed_cells(monkeypatch, tmp_path, capsys):
    # No real sweep input fails a single cell: evaluate is made to fail for
    # the 0.6 eV row. The cells record it, stderr names them, and the rest
    # is written.
    def failing(geometry, conductor, band, points):
        if conductor.sheet is not None and conductor.sheet.fermi_level == 0.6:
            raise NoBoundModeError("forced failure")
        return evaluate(geometry, conductor, band, points)

    monkeypatch.setattr(sweep, "evaluate", failing)
    cells = run_sweep(parse_config(SMALL_CONFIG))
    assert [c.error for c in cells] == [None, None, None, "forced failure",
                                        "forced failure"]
    assert all(c.report is None and c.spectrum is None
               for c in cells if c.error)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CONFIG.replace("path = out",
                                        f"path = {tmp_path / 'run'}"))
    assert cli_main(["sweep", str(cfg), "--quiet"]) == 0
    assert capsys.readouterr().err == (
        "cell (graphene, 0.6, 0.3) failed: forced failure\n"
        "cell (graphene, 0.6, 1.2) failed: forced failure\n")
    summary = (tmp_path / "run_summary.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in summary[1:]] == [
        ["metal", "", ""], ["graphene", "0.3", "0.3"],
        ["graphene", "0.3", "1.2"]]


def test_main_exits_with_the_cli_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["thzpatch", "design", "--f0", "280GHz"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 0
    assert "f_res_GHz = 280" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["thzpatch", "design", "--f0", "0GHz"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 1


def _run_module(*args):
    return _python("-m", *args)


@pytest.mark.parametrize("module", ["thzpatch", "thzpatch.cli"])
def test_python_dash_m_runs_the_cli(module):
    run = _run_module(module, "design", "--f0", "280GHz", "--er", "3.5",
                      "--tand", "0.0027", "--h", "50um")
    assert run.returncode == 0, run.stderr
    values = dict(line.split(" = ")
                  for line in run.stdout.strip().splitlines())
    assert float(values["f_res_GHz"]) == pytest.approx(280.0, rel=1e-9)
    assert float(values["L_um"]) == pytest.approx(262.195061, rel=1e-8)
    run = _run_module(module, "design", "--f0", "0GHz")
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1].startswith("error: frequency must be")
    assert "Traceback" not in run.stderr


def test_python_dash_m_cli_gets_no_runpy_warning():
    # runpy warns when the module it runs is already in sys.modules, so the
    # package root must not import thzpatch.cli.
    run = _python("-W", "error::RuntimeWarning", "-m", "thzpatch.cli",
                  "design", "--f0", "280GHz")
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


@pytest.mark.parametrize("argv", [
    ["sweep", str(ROOT / "paper.cfg"), "--format", "csv", "--quiet"],
    ["sweep", str(ROOT / "paper.cfg"), "--format", "json", "--quiet"],
    ["design", "--f0", "280GHz", "--format", "json"],
])
def test_output_files_do_not_depend_on_the_locale(tmp_path, argv):
    # Files are written as UTF-8 bytes: a writer that leaves the encoding
    # to the locale raises EncodingWarning here.
    run = _python("-X", "warn_default_encoding", "-W",
                  "error::EncodingWarning", "-m", "thzpatch", *argv,
                  "--out", str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    assert os.listdir(tmp_path)


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


def test_emit_onto_a_directory_is_rejected(tmp_path, small_results):
    # base + ".json" is a directory: emit fails with that path and leaves
    # the directory as it was, with no temporary file beside it.
    base = str(tmp_path / "out")
    (tmp_path / "out.json").mkdir()
    (tmp_path / "out.json" / "keep.txt").write_text("kept")
    with pytest.raises(ValidationError) as exc:
        emit(small_results, "json", base)
    assert str(exc.value) == (f"output path {base + '.json'!r} does not "
                              f"name a file")
    assert os.listdir(tmp_path) == ["out.json"]
    assert os.listdir(tmp_path / "out.json") == ["keep.txt"]
    assert (tmp_path / "out.json" / "keep.txt").read_text() == "kept"


def test_cli_sweep_runs_config(tmp_path, capsys):
    out_base = tmp_path / "run"
    cfg = SMALL_CONFIG.replace("path = out", f"path = {out_base}")
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(cfg)
    assert cli_main(["sweep", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (f"wrote {out_base}_spectra.csv, "
                            f"{out_base}_summary.csv\n")
    assert (tmp_path / "run_summary.csv").exists()
    assert (tmp_path / "run_spectra.csv").exists()

    # --format/--out override the config file
    assert cli_main(["sweep", str(cfg_path), "--format", "json",
                     "--out", str(tmp_path / "j"), "--quiet"]) == 0
    doc = json.loads((tmp_path / "j.json").read_text())
    assert len(doc["summary"]) == 5


def test_cli_out_makes_missing_directories(tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "d.json"
    assert cli_main(["design", "--f0", "280GHz", "--format", "json",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["f_res_GHz"] == 280.0
    assert os.listdir(out.parent) == ["d.json"]


@pytest.mark.parametrize("out", ["", "dir"], ids=["empty", "directory"])
def test_cli_out_that_names_no_file_is_a_usage_error(tmp_path, monkeypatch,
                                                     capsys, out):
    # Rejected with the path as given, before a temporary file is made
    # beside it, rather than as a failed rename of that file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "keep.txt").write_text("kept")
    if out:
        out = str(tmp_path / out)
    assert cli_main(["design", "--f0", "280GHz", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output path {out!r} does not name a file\n"
    assert os.listdir(tmp_path) == ["dir"]
    assert os.listdir(tmp_path / "dir") == ["keep.txt"]
    assert (tmp_path / "dir" / "keep.txt").read_text() == "kept"


def test_cli_sweep_csv_pair_is_written_whole_or_not_at_all(tmp_path,
                                                          monkeypatch, capsys):
    # out_summary.csv is a directory: the sweep fails before out_spectra.csv
    # is written, rather than leaving half of the pair.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(SMALL_CONFIG)
    (tmp_path / "out_summary.csv").mkdir()
    assert cli_main(["sweep", "sweep.cfg", "--format", "csv", "--out", "out",
                     "--quiet"]) == 1
    assert capsys.readouterr().err == \
        "error: output path 'out_summary.csv' does not name a file\n"
    assert sorted(os.listdir(tmp_path)) == ["out_summary.csv", "sweep.cfg"]
    assert os.listdir(tmp_path / "out_summary.csv") == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("out", ["", "dir/"], ids=["empty", "directory"])
def test_cli_sweep_out_that_names_no_file_is_a_usage_error(
        tmp_path, monkeypatch, capsys, out, fmt):
    # An empty --out does not fall back to the config's path, and a base
    # with an empty file name does not write "_spectra.csv" or ".json".
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "sweep.cfg").write_text(SMALL_CONFIG)
    assert cli_main(["sweep", "sweep.cfg", "--format", fmt, "--out", out,
                     "--quiet"]) == 1
    assert capsys.readouterr().err == \
        f"error: output path {out!r} does not name a file\n"
    assert sorted(os.listdir(tmp_path)) == ["dir", "sweep.cfg"]
    assert os.listdir(tmp_path / "dir") == []


def test_cli_sweep_missing_file(tmp_path, capsys):
    assert cli_main(["sweep", str(tmp_path / "nope.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CONFIG.replace("280 GHz", "280"))
    assert cli_main(["sweep", str(bad)]) == 1
    assert "missing unit suffix" in capsys.readouterr().err
