"""Reference sweep and CLI outputs pinned byte for byte.

tests/golden/ holds the summary CSV of `thzpatch sweep paper.cfg` verbatim,
the SHA-256 of the spectra CSV and the JSON document, the SHA-256 of all
three files of `thzpatch sweep tests/golden/dense.cfg` (metal and a 12 x 12
graphene grid at 211 points, 91,785 spectra values), and the stdout of
the design, analyze, resize and spp commands (cli_*.txt/csv/json) in each
output format. They were written once from a known-good build and are
never regenerated: a mismatch means a change moved an output byte.
FDTD output is not pinned: its DFT is a matrix product whose last bits
may differ between BLAS builds.
"""

import hashlib
from pathlib import Path

import pytest

from thzpatch import cli_main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"


def _digests(name: str = "paper") -> dict[str, str]:
    pairs = (line.split() for line in
             (GOLDEN / f"{name}.sha256").read_text().splitlines())
    return {name: digest for digest, name in pairs}


def _sweep(tmp_path, fmt: str, config: Path = ROOT / "paper.cfg",
           name: str = "paper") -> None:
    code = cli_main(["sweep", str(config), "--format", fmt,
                     "--out", str(tmp_path / name), "--quiet"])
    assert code == 0


def test_reference_sweep_csv_matches_golden(tmp_path):
    _sweep(tmp_path, "csv")
    assert (tmp_path / "paper_summary.csv").read_bytes() == \
        (GOLDEN / "paper_summary.csv").read_bytes()
    spectra = (tmp_path / "paper_spectra.csv").read_bytes()
    assert hashlib.sha256(spectra).hexdigest() == \
        _digests()["paper_spectra.csv"]


def test_reference_sweep_json_matches_golden(tmp_path):
    _sweep(tmp_path, "json")
    doc = (tmp_path / "paper.json").read_bytes()
    assert hashlib.sha256(doc).hexdigest() == _digests()["paper.json"]


def test_dense_sweep_matches_golden(tmp_path):
    for fmt in ("csv", "json"):
        _sweep(tmp_path, fmt, GOLDEN / "dense.cfg", "dense")
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == _digests("dense")


SHEET = ["--ef", "1.2eV", "--tau", "1.2ps"]
CLI_CASES = {
    "design": ["design", "--f0", "280GHz"],
    "analyze": ["analyze", "--f0", "280GHz", *SHEET],
    "resize": ["resize", "--f0", "280GHz", *SHEET],
    "spp": ["spp", *SHEET],
    "spp_halfspaces": ["spp", *SHEET, "--eps-above", "1", "--eps-below",
                       "3.5"],
}
FORMATS = {"txt": [], "csv": ["--format", "csv"], "json": ["--format", "json"]}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_stdout_matches_golden(capsysbinary, case, fmt):
    assert cli_main(CLI_CASES[case] + FORMATS[fmt]) == 0
    assert capsysbinary.readouterr().out == \
        (GOLDEN / f"cli_{case}.{fmt}").read_bytes()


def test_cli_out_file_matches_golden(tmp_path):
    out = tmp_path / "design.json"
    assert cli_main(CLI_CASES["design"] + FORMATS["json"]
                    + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "cli_design.json").read_bytes()
