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
format_table and json_records; emit writes the spectra, the bulk of a
sweep's output, with one %-template per cell that gives the same bytes.
Its "%.9g" conversion is also the exact JSON text of a value rounded to 9
digits when 1e-3 <= |v| < 1e8 and v is not within 1e-8 |v| of a whole
number (no exponent, the same shortest digits, and a "." that cannot round
away), so a column where every value passes is formatted straight from the
floats, in C; any other column goes through per-value texts, and the
frequency column, shared by every cell, is formatted once per grid.
Every file is written whole or not at all (write_atomic).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuit import AntennaReport, Spectrum, evaluate
from .config import RunConfig
from .errors import ThzPatchError, ValidationError
from .materials import GrapheneSheet
from .patch import ConductorSpec, design_patch

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
    spectrum: Spectrum | None
    error: str | None


def run_sweep(config: RunConfig) -> list[SweepCellResult]:
    """Evaluate every cell of the sweep; cells record their own failures."""
    geometry = design_patch(config.design_frequency, config.substrate)
    band = config.sweep.frequency_band
    points = config.sweep.frequency_points

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

    for variant in config.sweep.variants:
        if variant == "metal":
            cells.append(solve("metal", None, None, ConductorSpec.metal()))
            continue
        for ef in config.sweep.fermi_levels:
            for tau_ps in config.sweep.relaxation_times:
                sheet = GrapheneSheet(fermi_level=ef,
                                      relaxation_time=tau_ps * 1e-12,
                                      temperature=config.temperature)
                cells.append(solve("graphene", ef, tau_ps,
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


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to path, or leave path as it was.

    The text goes to a temporary file beside path, which replaces path
    only once it is complete; on any error the temporary file is removed.
    A missing parent directory of path is made first.
    """
    head, name = os.path.split(path)
    if head:
        os.makedirs(head, exist_ok=True)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "w", newline="\n")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


# Spectra rows are written a cell at a time: the cell's identifying fields
# are formatted once into a %-template that takes the four numeric columns.
# "%.9g" is fmt9 of a float. It is also the JSON text of the round9-rounded
# value, repr(round9(v)), whenever 1e-3 <= |v| < 1e8 and v is further than
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


def _json9(value) -> str:
    """One output cell as JSON text, floats rounded by round9."""
    return json.dumps(round9(value))


def _json_object(columns: Sequence[str], texts: Iterable[str]) -> str:
    """An object as json.dump(indent=2) lays out a row of a top-level list."""
    fields = ",\n".join(f"      {json.dumps(k)}: {v}"
                        for k, v in zip(columns, texts))
    return f"    {{\n{fields}\n    }}"


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
    template = _json_object(SPECTRA_HEADER.split(","), key + conversions)
    return ",\n".join(map(template.__mod__, zip(*columns)))


def _json_list(key: str, objects: Iterable[str]) -> Iterator[str]:
    """A top-level list member as json.dump(indent=2) lays it out."""
    yield f"  {json.dumps(key)}: ["
    sep = "\n"
    for text in objects:
        yield sep + text
        sep = ",\n"
    yield "]" if sep == "\n" else "\n  ]"


def emit(results: list[SweepCellResult], output_format: str,
         path: str) -> None:
    """Write results to `path`-derived files in the requested format.

    csv: {path}_spectra.csv and {path}_summary.csv.
    json: {path}.json with "spectra" and "summary" arrays.
    Each file is written whole or not at all (see write_atomic).
    """
    if output_format not in ("csv", "json"):
        raise ValidationError("output_format must be csv or json")

    solved = [cell for cell in results if cell.report is not None]
    summary = [summary_row(c.variant, c.fermi_ev, c.tau_ps, c.report)
               for c in solved]
    if output_format == "csv":
        write_atomic(f"{path}_spectra.csv",
                     itertools.chain([SPECTRA_HEADER + "\n"],
                                     map(_csv_spectra, solved)))
        write_atomic(f"{path}_summary.csv",
                     [format_table(SUMMARY_HEADER.split(","), summary)])
    else:
        columns = SUMMARY_HEADER.split(",")
        write_atomic(f"{path}.json", itertools.chain(
            ["{\n"], _json_list("spectra", map(_json_spectra, solved)),
            [",\n"], _json_list("summary", (
                _json_object(columns, map(_json9, row))
                for row in summary)),
            ["\n}\n"]))
