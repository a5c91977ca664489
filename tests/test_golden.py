"""Reference sweep pinned byte for byte.

tests/golden/ holds the summary CSV of `thzpatch sweep paper.cfg` verbatim
and the SHA-256 of the spectra CSV and the JSON document. They were
written once from a known-good build and are never regenerated: a
mismatch means a change moved an output byte.
"""

import hashlib
from pathlib import Path

from thzpatch import cli_main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"


def _digests() -> dict[str, str]:
    pairs = (line.split() for line in
             (GOLDEN / "paper.sha256").read_text().splitlines())
    return {name: digest for digest, name in pairs}


def _sweep(tmp_path, fmt: str) -> None:
    code = cli_main(["sweep", str(ROOT / "paper.cfg"), "--format", fmt,
                     "--out", str(tmp_path / "paper"), "--quiet"])
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
