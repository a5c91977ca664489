"""Parameter-sweep orchestration and result serialization.

A sweep designs the patch once from the config, then evaluates every
conductor variant: the metal baseline as a single cell, graphene as the
full Fermi-level x relaxation-time grid. Cells fail independently; an
error in one parameter combination is recorded in that cell and the rest
of the sweep continues.

Serialization is deterministic: identical inputs produce byte-identical
files. Numbers are written with 9 significant digits, which round-trips
a double for golden-file comparison without noise-level churn. CSV output
is a pair of files (spectra and summary); JSON mirrors the same fields in
one document. Metal cells have no Fermi level or relaxation time: empty
fields in CSV, null in JSON.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .circuit import (AntennaReport, ConductorSpec, SpectrumResult,
                      gain_report, s11_spectrum)
from .config import RunConfig
from .constants import CODATA2018, PhysicalConstants
from .errors import ThzPatchError, ValidationError
from .materials import GrapheneSheet
from .patch import design_patch

SPECTRA_HEADER = "variant,fermi_eV,tau_ps,freq_GHz,s11_dB,Rin_ohm,Xin_ohm"
SUMMARY_HEADER = ("variant,fermi_eV,tau_ps,f_res_GHz,min_s11_dB,bw_GHz,"
                  "eff,D_dBi,G_dBi")


@dataclass(frozen=True)
class SweepCellResult:
    """One variant/parameter cell: either a report+spectrum or an error."""

    variant: str
    fermi_ev: float | None
    tau_ps: float | None
    report: AntennaReport | None
    spectrum: list[SpectrumResult] | None
    error: str | None


def run_sweep(config: RunConfig,
              constants: PhysicalConstants = CODATA2018,
              ) -> list[SweepCellResult]:
    """Evaluate every cell of the sweep; cells record their own failures."""
    geometry = design_patch(config.design_frequency, config.substrate,
                            constants)
    band = config.sweep.frequency_band
    points = config.sweep.frequency_points

    cells: list[SweepCellResult] = []

    def evaluate(variant: str, fermi_ev: float | None, tau_ps: float | None,
                 conductor: ConductorSpec) -> SweepCellResult:
        try:
            report = gain_report(geometry, conductor, band, points, constants)
            spectrum = s11_spectrum(geometry, conductor, band, points,
                                    constants)
            return SweepCellResult(variant, fermi_ev, tau_ps, report,
                                   spectrum, None)
        except ThzPatchError as exc:
            return SweepCellResult(variant, fermi_ev, tau_ps, None, None,
                                   str(exc))

    for variant in config.sweep.variants:
        if variant == "metal":
            cells.append(evaluate("metal", None, None, ConductorSpec.metal()))
            continue
        for ef in config.sweep.fermi_levels:
            for tau_ps in config.sweep.relaxation_times:
                sheet = GrapheneSheet(fermi_level=ef,
                                      relaxation_time=tau_ps * 1e-12,
                                      temperature=config.temperature)
                cells.append(evaluate("graphene", ef, tau_ps,
                                      ConductorSpec.graphene(sheet)))
    return cells


def fmt9(x: float) -> str:
    """A number as text with 9 significant digits."""
    return f"{x:.9g}"


def round9(value):
    """Floats rounded to 9 significant digits; other values unchanged."""
    if isinstance(value, float):
        return float(fmt9(value))
    return value


def _summary_rows(results: list[SweepCellResult]) -> list[dict]:
    rows = []
    for cell in results:
        if cell.report is None:
            continue
        r = cell.report
        rows.append({
            "variant": cell.variant,
            "fermi_eV": cell.fermi_ev,
            "tau_ps": cell.tau_ps,
            "f_res_GHz": r.resonant_frequency / 1e9,
            "min_s11_dB": r.min_s11_db,
            "bw_GHz": r.bandwidth_minus10db / 1e9,
            "eff": r.efficiency,
            "D_dBi": r.directivity_dbi,
            "G_dBi": r.gain_dbi,
        })
    return rows


def _spectra_rows(results: list[SweepCellResult]) -> list[dict]:
    rows = []
    for cell in results:
        if cell.spectrum is None:
            continue
        for p in cell.spectrum:
            rows.append({
                "variant": cell.variant,
                "fermi_eV": cell.fermi_ev,
                "tau_ps": cell.tau_ps,
                "freq_GHz": p.frequency / 1e9,
                "s11_dB": p.s11_db,
                "Rin_ohm": p.input_resistance,
                "Xin_ohm": p.input_reactance,
            })
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return fmt9(value)


def _write_csv(path: str, header: str, rows: list[dict]) -> None:
    columns = header.split(",")
    lines = [header]
    lines.extend(",".join(_csv_cell(row[col]) for col in columns)
                 for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit(results: list[SweepCellResult], output_format: str,
         path: str) -> None:
    """Write results to `path`-derived files in the requested format.

    csv: {path}_spectra.csv and {path}_summary.csv.
    json: {path}.json with "spectra" and "summary" arrays.
    """
    if output_format not in ("csv", "json"):
        raise ValidationError("output_format must be csv or json")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)

    summary = _summary_rows(results)
    spectra = _spectra_rows(results)

    if output_format == "csv":
        _write_csv(f"{path}_spectra.csv", SPECTRA_HEADER, spectra)
        _write_csv(f"{path}_summary.csv", SUMMARY_HEADER, summary)
        return

    def rounded(rows: list[dict]) -> list[dict]:
        return [{k: round9(v) for k, v in row.items()} for row in rows]

    doc = {"spectra": rounded(spectra), "summary": rounded(summary)}
    with open(f"{path}.json", "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
