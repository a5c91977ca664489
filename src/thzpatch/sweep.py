"""Parameter-sweep orchestration and result serialization.

A sweep designs the patch once from the config, then evaluates every
conductor variant: the metal baseline as a single cell, graphene as the
full Fermi-level x relaxation-time grid. Cells fail independently; an
error in one parameter combination is recorded in that cell and the rest
of the sweep continues.

Serialization is deterministic: identical inputs produce byte-identical
files. The number format, the headers, the summary rows and the file
writer live in tables (numpy-free, so the CLI can write without this
module); sweep re-binds them and keeps only what needs numpy. CSV output
is a pair of files (spectra and summary); JSON mirrors the same fields in
one document. Metal cells have no Fermi level or relaxation time: empty
fields in CSV, null in JSON. emit writes the spectra, the bulk of a
sweep's output, one %-template per cell, in the bytes fmt9 and _json9 give
(see the note above _ghz_texts). Outputs, the csv pair as one, are written
whole or not at all (write_atomic).
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .circuit import AntennaReport, Spectrum, evaluate
from .config import RunConfig
from .errors import ThzPatchError, ValidationError
from .materials import GrapheneSheet
from .patch import ConductorSpec, design_patch
# write_table stays bound here for callers that import it from sweep.
from .tables import (SPECTRA_HEADER, SUMMARY_HEADER, _json9, _json_list,
                     _json_object, fmt9, format_table, summary_row,
                     write_atomic, write_table)


@dataclass(frozen=True)
class SweepCellResult:
    """One variant/parameter cell: either a report+spectrum or an error."""

    variant: str
    fermi_ev: float | None
    tau_ps: float | None
    report: AntennaReport | None
    spectrum: Spectrum | None
    error: str | None


def run_sweep(config: RunConfig) -> list[SweepCellResult]:
    """Evaluate every cell of the sweep; cells record their own failures."""
    geometry = design_patch(config.design_frequency, config.substrate)
    band = config.frequency_band
    points = config.frequency_points

    cells: list[SweepCellResult] = []

    def solve(variant: str, fermi_ev: float | None, tau_ps: float | None,
              conductor: ConductorSpec) -> SweepCellResult:
        try:
            report, spectrum = evaluate(geometry, conductor, band, points)
        except ThzPatchError as exc:
            return SweepCellResult(variant, fermi_ev, tau_ps, None, None,
                                   str(exc))
        return SweepCellResult(variant, fermi_ev, tau_ps, report, spectrum,
                               None)

    for variant in config.variants:
        if variant == "metal":
            cells.append(solve("metal", None, None, ConductorSpec.metal()))
            continue
        for ef in config.fermi_levels:
            for tau_ps in config.relaxation_times:
                sheet = GrapheneSheet(fermi_level=ef,
                                      relaxation_time=tau_ps * 1e-12,
                                      temperature=config.temperature)
                cells.append(solve("graphene", ef, tau_ps,
                                   ConductorSpec.graphene(sheet)))
    return cells


# Spectra rows are written a cell at a time: the cell's identifying fields
# are formatted once into a %-template that takes the four numeric columns.
# "%.9g" is fmt9 of a float. It is also _json9's text of it, the repr of
# float(fmt9(v)), whenever 1e-3 <= |v| < 1e8 and v is further than
# 1e-8 |v| from a whole number: %g writes no exponent in that range, a
# decimal of 9 significant digits survives the trip through a double so
# repr gives back the same digits, and the rounding (at most 0.5e-8 |v|)
# cannot reach a whole number, so the "." that repr keeps is there. A
# column whose every value passes goes through the template as "%.9g"; any
# other column as per-value texts through "%s". The frequency column holds
# whole GHz values, so it is formatted as text once per distinct grid.

@functools.lru_cache(maxsize=16)
def _ghz_texts(frequency: bytes) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A frequency grid, float64 Hz as bytes, as (csv, json) GHz texts."""
    csv = tuple(map("%.9g".__mod__,
                    (np.frombuffer(frequency) / 1e9).tolist()))
    return csv, tuple(repr(float(text)) for text in csv)


def _frequency_texts(spectrum: Spectrum) -> tuple[tuple[str, ...],
                                                  tuple[str, ...]]:
    """The frequency column as (csv, json) texts, formatted once per grid."""
    return _ghz_texts(np.asarray(spectrum.frequency, dtype=float).tobytes())


def _value_columns(spectrum: Spectrum) -> np.ndarray:
    return np.stack((spectrum.s11_db, spectrum.input_resistance,
                     spectrum.input_reactance))


def _csv_spectra(cell: SweepCellResult) -> str:
    """The cell's SPECTRA_HEADER rows as CSV lines."""
    key = ",".join(map(fmt9, (cell.variant, cell.fermi_ev, cell.tau_ps)))
    template = key.replace("%", "%%") + ",%s,%.9g,%.9g,%.9g\n"
    return "".join(map(template.__mod__, zip(
        _frequency_texts(cell.spectrum)[0],
        *_value_columns(cell.spectrum).tolist())))


def _json_spectra(cell: SweepCellResult) -> str:
    """The cell's SPECTRA_HEADER rows as JSON objects joined by ",\\n"."""
    key = [_json9(v).replace("%", "%%")
           for v in (cell.variant, cell.fermi_ev, cell.tau_ps)]
    values = _value_columns(cell.spectrum)
    size = np.abs(values)
    direct = ((size >= 1e-3) & (size < 1e8)
              & (np.abs(values - np.rint(values)) > 1e-8 * size)).all(axis=1)
    columns = [_frequency_texts(cell.spectrum)[1]]
    conversions = ["%s"]
    for column, exact in zip(values.tolist(), direct.tolist()):
        columns.append(column if exact else
                       [repr(float("%.9g" % v)) for v in column])
        conversions.append("%.9g" if exact else "%s")
    template = _json_object(SPECTRA_HEADER.split(","), key + conversions,
                            "    ")
    return ",\n".join(map(template.__mod__, zip(*columns)))


def emit(results: list[SweepCellResult], output_format: str,
         path: str) -> list[str]:
    """Write results to `path`-derived files in the requested format, and
    return the paths written.

    csv: {path}_spectra.csv and {path}_summary.csv.
    json: {path}.json with "spectra" and "summary" arrays.
    The files are written whole or not at all (see write_atomic).
    """
    if output_format not in ("csv", "json"):
        raise ValidationError("output_format must be csv or json")
    if not os.path.basename(path):
        raise ValidationError(f"output path {path!r} does not name a file")

    solved = [cell for cell in results if cell.report is not None]
    summary = [summary_row(c.variant, c.fermi_ev, c.tau_ps, c.report)
               for c in solved]
    if output_format == "csv":
        files = [
            (f"{path}_spectra.csv", itertools.chain(
                [SPECTRA_HEADER + "\n"], map(_csv_spectra, solved))),
            (f"{path}_summary.csv",
             [format_table(SUMMARY_HEADER.split(","), summary)])]
    else:
        columns = SUMMARY_HEADER.split(",")
        files = [(f"{path}.json", itertools.chain(
            ['{\n  "spectra": '], _json_list(map(_json_spectra, solved), "  "),
            [',\n  "summary": '], _json_list((
                _json_object(columns, map(_json9, row), "    ")
                for row in summary), "  "),
            ["\n}\n"]))]
    write_atomic(files)
    return [file for file, _ in files]
