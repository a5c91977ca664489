"""Text tables and records: the one number format and the one file writer.

fmt9 writes floats with 9 significant digits; write_table writes records
and tables as text, CSV or JSON as json.dumps(indent=2) lays it out;
write_atomic writes files whole or not at all. No numpy and no other layer
is imported, so a command that computes nothing with arrays (design,
resize, a symmetric spp) writes its output without loading them.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

SPECTRA_HEADER = "variant,fermi_eV,tau_ps,freq_GHz,s11_dB,Rin_ohm,Xin_ohm"
SUMMARY_HEADER = ("variant,fermi_eV,tau_ps,f_res_GHz,min_s11_dB,bw_GHz,"
                  "eff,D_dBi,G_dBi")


def fmt9(value) -> str:
    """One output cell as text: a float with 9 significant digits, None
    as an empty field, anything else through str."""
    if value is None:
        return ""
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def format_table(columns: Sequence[str], rows: Iterable[Sequence],
                 sep: str = ",") -> str:
    """A header line plus one line per row, cells joined by sep."""
    lines = [sep.join(columns)]
    lines.extend(sep.join(map(fmt9, row)) for row in rows)
    return "\n".join(lines) + "\n"


def summary_row(variant: str, fermi_ev: float | None, tau_ps: float | None,
                report) -> tuple:
    """The SUMMARY_HEADER fields of a solved cell's AntennaReport, in order."""
    return (variant, fermi_ev, tau_ps, report.resonant_frequency / 1e9,
            report.min_s11_db, report.bandwidth_minus10db / 1e9,
            report.efficiency, report.directivity_dbi, report.gain_dbi)


def _check_path(path: str) -> None:
    """Fail unless path can name a file to write: it has a file name, holds
    no NUL byte and is not a directory."""
    if "\0" in path or not os.path.basename(path) or os.path.isdir(path):
        raise ValidationError(f"output path {path!r} does not name a file")


def write_atomic(files: list[tuple[str, Iterable[str | bytes]]]) -> None:
    """Write each (path, chunks) pair's chunks to its path: all or none.

    Every path is checked first (_check_path).
    Missing parents are made. A bytes chunk is written as it is, a str
    chunk as UTF-8 whatever the locale. Each file goes to a temporary file
    beside its path; the temporary files replace their paths only once all
    of them are complete. Each path but the last, which no later rename can
    undo, has its earlier file kept aside until every path is replaced. On
    any error the kept files are put back, the paths that had none are
    removed, and so are the temporary files.
    """
    for path, _ in files:
        _check_path(path)
    tmps: list[str] = []
    replaced: list[tuple[str, str | None]] = []   # (path, its kept file)
    try:
        for path, chunks in files:
            head, name = os.path.split(path)
            if head:
                os.makedirs(head, exist_ok=True)
            tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
            with open(tmp, "wb") as fh:
                tmps.append(tmp)
                fh.writelines(chunk if isinstance(chunk, bytes)
                              else chunk.encode() for chunk in chunks)
        for i, (tmp, (path, _)) in enumerate(zip(tmps, files)):
            if i < len(files) - 1:
                kept = f"{tmp}.old" if os.path.exists(path) else None
                if kept is not None:
                    os.replace(path, kept)
                replaced.append((path, kept))
            os.replace(tmp, path)
    except BaseException:
        for path, kept in reversed(replaced):
            if kept is not None:
                os.replace(kept, path)
            elif os.path.exists(path):
                os.remove(path)
        for tmp in filter(os.path.exists, tmps):
            os.remove(tmp)
        raise
    for _, kept in replaced:
        if kept is not None:
            os.remove(kept)


def write_table(columns: Sequence[str], rows: list[Sequence], fmt: str | None,
                path: str | None, record: bool = False) -> None:
    """Rows as a tab-separated table, CSV or JSON, to path or stdout.

    A record is a single row; as plain text it reads `key = value` per
    line, and as JSON it is one object rather than a list.
    """
    if fmt == "json":
        objects = [_json_object(columns, map(_json9, row),
                                "" if record else "  ") for row in rows]
        body = (objects[0] if record else "".join(_json_list(objects))) + "\n"
    elif fmt is None and record:
        body = "".join(f"{k} = {fmt9(v)}\n" for k, v in zip(columns, rows[0]))
    else:
        body = format_table(columns, rows, "," if fmt == "csv" else "\t")
    if path is None:
        sys.stdout.write(body)
    else:
        write_atomic([(path, [body])])


def _json9(value) -> str:
    """One output cell as JSON text, floats rounded to 9 digits by fmt9.
    A finite float's JSON text is its repr, as json.dumps writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return repr(float(fmt9(value)))
    return json.dumps(value)


def _json_object(columns: Sequence[str], texts: Iterable[str],
                 indent: str) -> str:
    """An object as json.dumps lays it out at indent, two spaces a level."""
    fields = ",\n".join(f"{indent}  {json.dumps(k)}: {v}"
                        for k, v in zip(columns, texts))
    return f"{indent}{{\n{fields}\n{indent}}}"


def _json_list(objects: Iterable[str | bytes],
               indent: str = "") -> Iterator[str | bytes]:
    """Object texts as a list, as json.dumps lays it out at indent."""
    yield "["
    sep = "\n"
    for text in objects:
        yield sep
        yield text
        sep = ",\n"
    yield "]" if sep == "\n" else f"\n{indent}]"
