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
fields in CSV, null in JSON. The CLI writes its tables with the same
format_table and json_records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .circuit import (AntennaReport, ConductorSpec, SpectrumResult,
                      gain_report, s11_spectrum)
from .config import RunConfig
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


def run_sweep(config: RunConfig) -> list[SweepCellResult]:
    """Evaluate every cell of the sweep; cells record their own failures."""
    geometry = design_patch(config.design_frequency, config.substrate)
    band = config.sweep.frequency_band
    points = config.sweep.frequency_points

    cells: list[SweepCellResult] = []

    def evaluate(variant: str, fermi_ev: float | None, tau_ps: float | None,
                 conductor: ConductorSpec) -> SweepCellResult:
        try:
            report = gain_report(geometry, conductor, band, points)
            spectrum = s11_spectrum(geometry, conductor, band, points)
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


def fmt9(value) -> str:
    """One output cell as text: a float with 9 significant digits, None
    as an empty field, anything else through str."""
    if value is None:
        return ""
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def round9(value):
    """Floats rounded to 9 significant digits; other values unchanged."""
    if isinstance(value, float):
        return float(fmt9(value))
    return value


def format_table(columns: Sequence[str], rows: Iterable[Sequence],
                 sep: str = ",") -> str:
    """A header line plus one line per row, cells joined by sep."""
    lines = [sep.join(columns)]
    lines.extend(sep.join(map(fmt9, row)) for row in rows)
    return "\n".join(lines) + "\n"


def json_records(columns: Sequence[str],
                 rows: Iterable[Sequence]) -> list[dict]:
    """Rows as JSON-ready objects keyed by column, floats rounded by round9."""
    return [{k: round9(v) for k, v in zip(columns, row)} for row in rows]


def summary_row(variant: str, fermi_ev: float | None, tau_ps: float | None,
                report: AntennaReport) -> tuple:
    """The SUMMARY_HEADER fields of one solved cell, in header order."""
    return (variant, fermi_ev, tau_ps, report.resonant_frequency / 1e9,
            report.min_s11_db, report.bandwidth_minus10db / 1e9,
            report.efficiency, report.directivity_dbi, report.gain_dbi)


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

    solved = [cell for cell in results if cell.report is not None]
    tables = {
        "spectra": (SPECTRA_HEADER.split(","), [
            (c.variant, c.fermi_ev, c.tau_ps, p.frequency / 1e9, p.s11_db,
             p.input_resistance, p.input_reactance)
            for c in solved for p in c.spectrum]),
        "summary": (SUMMARY_HEADER.split(","), [
            summary_row(c.variant, c.fermi_ev, c.tau_ps, c.report)
            for c in solved]),
    }

    if output_format == "csv":
        for name, (columns, rows) in tables.items():
            with open(f"{path}_{name}.csv", "w", newline="\n") as fh:
                fh.write(format_table(columns, rows))
        return

    doc = {name: json_records(columns, rows)
           for name, (columns, rows) in tables.items()}
    # json.dump streams the document; json.dumps would hold it whole.
    with open(f"{path}.json", "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
