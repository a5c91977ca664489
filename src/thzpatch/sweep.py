"""Parameter-sweep orchestration and result serialization.

A sweep designs the patch once from the config, then evaluates every
conductor variant: the metal baseline as a single cell, graphene as the
full Fermi-level x relaxation-time grid. Cells fail independently; an
error in one parameter combination is recorded in that cell and the rest
of the sweep continues. The solved cells' spectra and bands are formed
together, one row each of shared (cells, points) arrays that are read-only.

Serialization is deterministic: identical inputs produce byte-identical
files. The number format, the headers, the summary rows and the file
writer live in tables (numpy-free, so the CLI can write without this
module); sweep keeps only what needs numpy. CSV output is a pair of files
(spectra and summary); JSON mirrors the same fields in one document. Metal
cells have no Fermi level or relaxation time: empty fields in CSV, null in
JSON. emit formats each cell's key fields once and writes the spectra, the
bulk of a sweep's output, in runs of cells of at most SPECTRA_BLOCK_ROWS
rows, and the summary, each one byte matrix whose numbers come from
_texts9: exactly the text fmt9 and _json9 give, in numpy where the note
above _texts9 says it can be and per value elsewhere.
Outputs, the csv pair as one, are written whole or not at all
(write_atomic).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuit import (AntennaReport, Spectrum, _bandwidths, _report,
                      _s11_rows, _solve, directivity_dbi)
from .config import RunConfig
from .errors import ThzPatchError, ValidationError
from .materials import GrapheneSheet
from .patch import ConductorSpec, design_patch
from .tables import (SPECTRA_HEADER, SUMMARY_HEADER, _check_path, _json9,
                     _json_list, _json_object, fmt9, summary_row,
                     write_atomic)


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
    """Evaluate every cell of the sweep; cells record their own failures.

    Each cell is solved and checked alone, in evaluate's order, so a failing
    cell records the message evaluate raises; the solved cells are then
    sampled together, one row each of read-only (cells, points) arrays.
    """
    geometry = design_patch(config.design_frequency, config.substrate)
    band, points = config.frequency_band, config.frequency_points
    grid = []
    for variant in config.variants:
        grid += ([("metal", None, None, ConductorSpec.metal())]
                 if variant == "metal" else
                 [("graphene", ef, tau_ps, ConductorSpec.graphene(
                     GrapheneSheet(ef, tau_ps * 1e-12, config.temperature)))
                  for ef in config.fermi_levels
                  for tau_ps in config.relaxation_times])

    errors, solved = [], []
    for *_, conductor in grid:
        try:
            f_res, qf, r_peak, n_sq = _solve(geometry, conductor, band, points)
            solved.append((f_res, qf, r_peak, n_sq,
                           directivity_dbi(geometry, f_res)))
            errors.append(None)
        except ThzPatchError as exc:
            errors.append(str(exc))

    outcomes: Iterator[tuple[AntennaReport, Spectrum]] = iter(())
    if solved:
        freqs = np.linspace(band[0], band[1], points)
        columns = np.array([(f, q.q_total, r, n) for f, q, r, n, _ in solved])
        arrays = (freqs, *_s11_rows(freqs, *columns.T[:, :, None]))
        for array in arrays:
            array.setflags(write=False)
        f_res, qf, _, _, d_dbi = zip(*solved)
        outcomes = zip(map(_report, f_res, qf, d_dbi, arrays[1].min(axis=1),
                           _bandwidths(freqs, arrays[1])),
                       (Spectrum(freqs, *rows) for rows in zip(*arrays[1:])))
    return [SweepCellResult(variant, ef, tau_ps, *(
        (None, None) if error is not None else next(outcomes)), error)
        for (variant, ef, tau_ps, _), error in zip(grid, errors)]


# The spectra are written in blocks, each as many cells (at least one) as
# SPECTRA_BLOCK_ROWS holds at the longest spectrum's length. A block is one
# byte matrix with a row per spectrum point and a fixed-width slot per
# field; a slot's unused tail holds NUL bytes, dropped in the text.
# A JSON row's slots take 136 bytes (CSV's 76) for |values| < 1000, so a
# block of SPECTRA_BLOCK_ROWS is at most about 1 MiB of matrix.
SPECTRA_BLOCK_ROWS = 7710

# _texts9 writes "%.9g" % v, or _json9(v) for JSON, for a
# whole array at once wherever that text is fixed-point: v finite and
# non-zero, and 1e-4 <= |v| < 1e9 once rounded to 9 digits. There
# e = floor(log10 |v|), corrected by one wherever m = |v| 10**(8 - e) falls
# outside [1e8, 1e9). The power of ten is exact, so m carries one rounding
# (under 1e-7) and rint(m) gives the nine digits, unless m's fraction lies
# within 1e-6 of 0.5, where that rounding could flip the last digit. Every
# other value, a zero, inf, nan, an exponent form or a near tie, is
# formatted by the per-value expression. A fast text is laid out as a sign,
# the whole part's digits in groups of three, the bytes between the whole
# and the fraction (_POINTS) and the fraction's groups: each group is one
# little-endian uint32 of three ASCII digits and a NUL, written left to
# right at three-byte steps so that the next group overwrites that NUL.
# Zeros that %g does not print (leading in the whole part, trailing in the
# fraction) are NUL, from the group's variant in _GROUPS.
_POW10 = np.array([float(10 ** k) for k in range(13)])
_LEADING, _TRAILING = 1000, 2000
# [4 json + 2 (whole part is 0) + (fraction is non-zero)]
_POINTS = np.frombuffer(b"".join(text.ljust(4, b"\0") for text in (
    b"", b".", b"0", b"0.", b".0", b".", b"0.0", b"0.")), "<u4")


def _group_table() -> np.ndarray:
    """[variant + g]: g in 0..999 as three ASCII digits and a NUL, one
    little-endian uint32; the variant _LEADING makes g's leading zeros NUL,
    _TRAILING its trailing zeros, so either makes 0 all NUL."""
    g = np.arange(1000)
    digits = np.stack((g // 100, g // 10 % 10, g % 10)) + ord("0")
    shown = np.stack((np.ones((3, 1000), bool),
                      (g >= 100, g >= 10, g >= 1),
                      (g >= 1, g % 100 > 0, g % 10 > 0)))
    chars = (digits * shown).astype(np.uint32)
    return (chars[:, 0] | chars[:, 1] << 8 | chars[:, 2] << 16).ravel()


_GROUPS = _group_table()


def _texts9(values: np.ndarray, json: bool) -> np.ndarray:
    """Each float64 of values as the ASCII of "%.9g" % v, or of _json9(v)
    if json is set: one row of a uint8 matrix each, NUL in the unused
    slots."""
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.fmin(np.fmax(np.floor(np.log10(a)), -4), 8).astype(np.intp)
        m = a * _POW10[8 - e]
        # log10 can miss by one next to a power of ten; a zero, inf, nan or
        # value out of range stays out of [1e8, 1e9) and goes slow.
        off = np.flatnonzero(~((m >= 1e8) & (m < 1e9)))
        e[off] = np.clip(e[off] + (m[off] >= 1e9) - (m[off] < 1e8), -4, 8)
        m[off] = a[off] * _POW10[8 - e[off]]
        n = np.rint(m)
        fast = np.abs(m - n) < 0.5 - 1e-6
    fast[off] &= (m[off] >= 1e8) & (m[off] < 1e9)
    carry = np.flatnonzero(n == 1e9)
    n[carry] = 1e8
    e[carry] += 1
    fast[carry] &= e[carry] <= 8
    slow = np.flatnonzero(~fast)
    n[slow] = 1e8
    e[slow] = 0
    scale = _POW10[8 - e]
    whole = (n / scale).astype(np.int64)      # exact: n < 2**53
    fraction = ((n - whole * scale) * _POW10[e + 4]).astype(np.int64)
    groups = []                               # right to left, then reversed
    above = whole
    while above.any():
        high = above // 1000
        groups.append(_GROUPS.take(above - high * 1000
                                   + (high == 0) * _LEADING))
        above = high
    groups.reverse()
    groups.append(_POINTS.take(4 * json + 2 * (whole == 0) + (fraction > 0)))
    rest = fraction                           # 12 digits, left-aligned
    for place in range(3, -1, -1):
        if not rest.any():
            break
        g = rest // 1000 ** place
        rest = rest - g * 1000 ** place
        groups.append(_GROUPS.take(g + (rest == 0) * _TRAILING))
    texts = list(map(_json9 if json else fmt9, v[slow].tolist()))
    width = max([2 + 3 * len(groups), *map(len, texts)])
    out = np.zeros((len(v), width), np.uint8)
    out[:, 0] = (v < 0) * np.uint8(ord("-"))
    for i, group in enumerate(groups):
        out[:, 1 + 3 * i:5 + 3 * i].view("<u4")[:, 0] = group
    if texts:
        out[slow] = np.array(texts, f"S{width}").view(np.uint8).reshape(
            -1, width)
    return out


@functools.lru_cache(maxsize=16)
def _ghz_texts(frequency: bytes) -> tuple[np.ndarray, np.ndarray]:
    """A frequency grid, float64 Hz as bytes, as (csv, json) GHz texts."""
    texts = tuple(_texts9(np.frombuffer(frequency) / 1e9, json)
                  for json in (False, True))
    for matrix in texts:
        matrix.setflags(write=False)
    return texts


def _rows(header: str, json: bool, keys: list[tuple[str, str, str]],
          counts: list[int], numbers: list[np.ndarray]) -> bytes:
    """The rows of header's columns, as CSV lines or as JSON objects joined
    by ",\\n", in bytes from one byte matrix. Cell k fills counts[k] rows:
    each opens with a \\1 that becomes keys[k], its three key texts, one
    replace a cell, and numbers holds the other columns' _texts9 matrices."""
    columns = header.split(",")
    slots = ["%s"] * 3 + ["\0"] * len(numbers)
    if json:
        row = _json_object(columns, slots, "    ") + ",\n"
    else:
        row = ",".join(slots) + "\n"
    head, *seps = row.split("\0")
    rows = len(numbers[0])
    block = np.concatenate([np.ones((rows, 1), np.uint8)] + [
        np.broadcast_to(part, (rows, part.shape[-1]))
        for texts, sep in zip(numbers, seps)
        for part in (texts, np.frombuffer(sep.encode(), np.uint8))], axis=1)
    out = [block[end - count:end].tobytes().translate(None, b"\0").replace(
        b"\1", (head % key).encode())
        for key, count, end in zip(keys, counts, itertools.accumulate(counts))]
    if json:
        out[-1] = out[-1][:-2]
    return b"".join(out)


def _spectra(spectra: list[Spectrum], keys: list[tuple[str, str, str]],
             json: bool) -> bytes:
    """The SPECTRA_HEADER rows of spectra, keyed by keys (see _rows)."""
    # Formatted once per grid; _ghz_texts reads the key back as float64.
    frequencies = [_ghz_texts(np.asarray(s.frequency, dtype=float).tobytes())
                   [json] for s in spectra]
    width = max(texts.shape[1] for texts in frequencies)
    values = _texts9(np.concatenate([getattr(s, name) for name in (
        "s11_db", "input_resistance", "input_reactance") for s in spectra]),
        json)
    return _rows(SPECTRA_HEADER, json, keys, list(map(len, spectra)), [
        np.concatenate([texts if texts.shape[1] == width else
                        np.pad(texts, ((0, 0), (0, width - texts.shape[1])))
                        for texts in frequencies]),
        *values.reshape(3, -1, values.shape[1])])


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
    _check_path(path)

    solved = [cell for cell in results if cell.report is not None]
    json = output_format == "json"
    key = _json9 if json else fmt9
    keys = [(key(c.variant), key(c.fermi_ev), key(c.tau_ps)) for c in solved]
    spectra = [cell.spectrum for cell in solved]
    run = max(1, SPECTRA_BLOCK_ROWS // max(map(len, spectra), default=1))
    blocks = (_spectra(spectra[i:i + run], keys[i:i + run], json)
              for i in range(0, len(solved), run))
    summary = []
    if solved:
        numbers = np.array([summary_row(c.variant, c.fermi_ev, c.tau_ps,
                                        c.report)[3:] for c in solved])
        texts = _texts9(numbers, json).reshape(len(solved), 6, -1)
        summary = [_rows(SUMMARY_HEADER, json, keys, [1] * len(solved),
                         list(texts.transpose(1, 0, 2)))]
    if json:
        files = [(f"{path}.json", itertools.chain(
            ['{\n  "spectra": '], _json_list(blocks, "  "),
            [',\n  "summary": '], _json_list(summary, "  "), ["\n}\n"]))]
    else:
        files = [(f"{path}_spectra.csv", itertools.chain(
                     [SPECTRA_HEADER + "\n"], blocks)),
                 (f"{path}_summary.csv", [SUMMARY_HEADER + "\n", *summary])]
    write_atomic(files)
    return [file for file, _ in files]
