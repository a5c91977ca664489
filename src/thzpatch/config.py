"""Config-file grammar for sweep runs.

Flat INI-like sections of `key = value` lines. Dimensioned values carry a
mandatory unit suffix; lists are comma separated; arithmetic ranges use
start:stop:step (inclusive stop). A unit written once at the end of a list
or range applies to every element before it.

    # reference setup
    [substrate]
    rel_permittivity = 3.5
    loss_tangent = 0.0027
    thickness = 50 um

    [design]
    frequency = 280 GHz

    [sweep]
    fermi_levels = 0.3:1.2:0.3 eV
    relaxation_times = 0.3, 0.6, 0.9, 1.2 ps
    band = 220, 325 GHz
    points = 211
    variants = metal, graphene
    temperature = 300 K

    [output]
    format = csv
    path = paper_out

Every parse or validation problem is reported with the offending key and
line number. Value bounds live in the domain types (SubstrateSpec,
GrapheneSheet) and the sample-grid rule in errors.require_grid, shared with
the CLI and the API; their errors are re-raised here with the key and line.
Validation is fail-fast: nothing is computed from a config that has any
invalid value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from .errors import ConfigError, UnitError, ValidationError, require_grid
from .materials import GrapheneSheet
from .patch import FREQUENCY_RANGE_HZ, SubstrateSpec

_UNIT_TABLES: dict[str, dict[str, float]] = {
    # canonical units: length m, frequency Hz, energy eV, time ps, temperature K
    "length": {"nm": 1e-9, "um": 1e-6, "µm": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12},
    "energy": {"meV": 1e-3, "eV": 1.0},
    "time": {"fs": 1e-3, "ps": 1.0, "ns": 1e3, "us": 1e9, "s": 1e12},
    "temperature": {"K": 1.0},
}

MAX_LIST_LENGTH = 10_000  # longest start:stop:step range; spp runs it in < 1 s
# Cells x points of one sweep. Writing dominates a sweep's cost: 500 cells x
# 1000 points take 1.1 s of CPU and 102 MB as json (the larger format), 1.0 s
# and 31 MB as csv, 49 MiB peak either way (Python 3.11, one core of a 2-vCPU
# VM).
MAX_SWEEP_SAMPLES = 500_000

_QUANTITY_RE = re.compile(r"^([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-zµ]*)$")


@dataclass(frozen=True)
class SweepGrid:
    """Parameter grid of one sweep.

    fermi_levels in eV, relaxation_times in ps, frequency_band in Hz.
    variants names the conductors ("metal", "graphene") in input order;
    graphene is evaluated at every (fermi, tau) cell.
    """

    fermi_levels: list[float]
    relaxation_times: list[float]
    frequency_band: tuple[float, float]
    frequency_points: int
    variants: list[str]


@dataclass(frozen=True)
class RunConfig:
    """Everything one sweep run needs, fully validated."""

    substrate: SubstrateSpec
    design_frequency: float
    sweep: SweepGrid
    output_format: str
    output_path: str
    temperature: float = 300.0


def _ctx(key: str, line: int) -> str:
    """Error-message prefix: config keys carry their line, flags do not."""
    if line > 0:
        return f"line {line}: key '{key}'"
    return f"'{key}'"


def _parse_number(text: str, key: str, line: int, kind=float):
    try:
        return kind(text)
    except (ValueError, InvalidOperation):
        raise ConfigError(f"{_ctx(key, line)}: not a number: {text!r}")


def parse_quantity(text: str, dimension: str, key: str, line: int = 0,
                   unit: str | None = None) -> float:
    """One number with unit suffix, converted to the canonical unit.

    `unit` supplies an inherited suffix for list elements written without
    their own. line = 0 marks a command-line flag rather than a file key.
    """
    number, scale = _quantity(text, dimension, key, line, unit)
    return float(number) * scale


def _quantity(text: str, dimension: str, key: str, line: int,
              unit: str | None) -> tuple[Decimal, float]:
    """The literal number of a quantity and the scale of its unit."""
    table = _UNIT_TABLES[dimension]
    m = _QUANTITY_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{_ctx(key, line)}: cannot parse quantity {text!r}")
    number, suffix = m.group(1), m.group(2)
    if not suffix:
        suffix = unit or ""
    if not suffix:
        raise UnitError(
            f"{_ctx(key, line)}: missing unit suffix on {text!r} "
            f"(expected one of {', '.join(sorted(table))})")
    if suffix not in table:
        raise UnitError(
            f"{_ctx(key, line)}: unknown unit {suffix!r} "
            f"(expected one of {', '.join(sorted(table))})")
    return _parse_number(number, key, line, Decimal), table[suffix]


def _trailing_unit(text: str) -> tuple[str, str | None]:
    """Split a trailing alphabetic unit off a numeric expression."""
    m = re.match(r"^(.*?)\s*([A-Za-zµ]+)$", text.strip())
    if m:
        return m.group(1), m.group(2)
    return text.strip(), None


def parse_quantity_list(text: str, dimension: str, key: str,
                        line: int = 0) -> list[float]:
    """Comma list or start:stop:step range, with unit inheritance."""
    table = _UNIT_TABLES[dimension]
    if ":" in text:
        body, unit = _trailing_unit(text)
        parts = body.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{_ctx(key, line)}: range must be "
                              f"start:stop:step, got {text!r}")
        if unit is None:
            raise UnitError(f"{_ctx(key, line)}: range needs a unit "
                            f"suffix (one of {', '.join(sorted(table))})")
        quantities = [_quantity(p, dimension, key, line, unit) for p in parts]
        scale = quantities[2][1]
        # Step the literals exactly, in the step's unit, from an integer
        # count: a range yields the floats of the comma list it abbreviates.
        start, stop, step = (n * Decimal(str(s)) / Decimal(str(scale))
                             for n, s in quantities)
        if step <= 0 or stop < start:
            raise ConfigError(f"{_ctx(key, line)}: need step > 0 and "
                              f"stop >= start")
        count = int((stop - start) / step)
        if count + 1 > MAX_LIST_LENGTH:
            raise ConfigError(f"{_ctx(key, line)}: range has {count + 1} "
                              f"entries, more than {MAX_LIST_LENGTH}")
        return [float(start + k * step) * scale for k in range(count + 1)]

    items = [item.strip() for item in text.split(",")]
    if any(not item for item in items):
        raise ConfigError(f"{_ctx(key, line)}: empty list element")
    # Walk right to left so a final unit annotates the bare values before it.
    unit: str | None = None
    out: list[float] = []
    for item in reversed(items):
        _, own_unit = _trailing_unit(item)
        if own_unit is not None:
            unit = own_unit
        out.append(parse_quantity(item, dimension, key, line, unit))
    out.reverse()
    return out


# Every key of each section, in the order a missing one is reported.
_KNOWN_KEYS = {
    "substrate": ("rel_permittivity", "loss_tangent", "thickness"),
    "design": ("frequency",),
    "sweep": ("fermi_levels", "relaxation_times", "band", "points",
              "variants", "temperature"),
    "output": ("format", "path"),
}
_OPTIONAL_KEY = ("sweep", "temperature")

# Domain-type field -> the (section, key) that supplies it.
_FIELD_KEYS = {
    "rel_permittivity": ("substrate", "rel_permittivity"),
    "loss_tangent": ("substrate", "loss_tangent"),
    "thickness": ("substrate", "thickness"),
    "fermi_level": ("sweep", "fermi_levels"),
    "relaxation_time": ("sweep", "relaxation_times"),
    "temperature": ("sweep", "temperature"),
    "band": ("sweep", "band"),
    "points": ("sweep", "points"),
}


def _read_pairs(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    pairs: dict[tuple[str, str], tuple[str, int]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header "
                                  f"{raw.strip()!r}")
            section = line[1:-1].strip()
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section "
                                  f"[{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in "
                              f"[{section}]")
        if (section, key) in pairs:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in "
                              f"[{section}]")
        if not value:
            raise ConfigError(f"line {lineno}: key '{key}': empty value")
        pairs[(section, key)] = (value, lineno)
    return pairs


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; raises ConfigError/UnitError on problems."""
    pairs = _read_pairs(text)

    for section, keys in _KNOWN_KEYS.items():
        for key in keys:
            if (section, key) in pairs or (section, key) == _OPTIONAL_KEY:
                continue
            raise ConfigError(f"missing required key '{section}.{key}'")

    def get(section: str, key: str) -> tuple[str, int]:
        return pairs[(section, key)]

    def in_context(exc: ValidationError) -> ConfigError:
        section, key = _FIELD_KEYS[exc.field]
        return ConfigError(f"{_ctx(key, get(section, key)[1])}: {exc.reason}")

    val, ln = get("substrate", "rel_permittivity")
    eps_r = _parse_number(val, "rel_permittivity", ln)
    val, ln = get("substrate", "loss_tangent")
    tan_d = _parse_number(val, "loss_tangent", ln)
    val, ln = get("substrate", "thickness")
    thickness = parse_quantity(val, "length", "thickness", ln)
    try:
        substrate = SubstrateSpec(rel_permittivity=eps_r, loss_tangent=tan_d,
                                  thickness=thickness)
    except ValidationError as exc:
        raise in_context(exc) from None

    val, ln = get("design", "frequency")
    f_design = parse_quantity(val, "frequency", "frequency", ln)
    f_min, f_max = FREQUENCY_RANGE_HZ
    if not (f_min <= f_design <= f_max):
        raise ConfigError(f"line {ln}: key 'frequency': must be within "
                          f"[{f_min:.0e}, {f_max:.0e}] Hz")

    val, ln = get("sweep", "fermi_levels")
    fermi = parse_quantity_list(val, "energy", "fermi_levels", ln)
    val, ln = get("sweep", "relaxation_times")
    taus = parse_quantity_list(val, "time", "relaxation_times", ln)
    temperature = 300.0
    if _OPTIONAL_KEY in pairs:
        val, ln = get("sweep", "temperature")
        temperature = parse_quantity(val, "temperature", "temperature", ln)
    # One sheet per value, failing first where the full (ef, tau) grid would.
    try:
        for tau_ps in taus:
            GrapheneSheet(fermi[0], tau_ps * 1e-12, temperature)
        for ef in fermi[1:]:
            GrapheneSheet(ef, taus[0] * 1e-12, temperature)
    except ValidationError as exc:
        raise in_context(exc) from None

    val, ln = get("sweep", "band")
    band_vals = parse_quantity_list(val, "frequency", "band", ln)
    if len(band_vals) != 2:
        raise ConfigError(f"line {ln}: key 'band': need exactly two "
                          f"frequencies with lo < hi")
    band = (band_vals[0], band_vals[1])

    val, ln = get("sweep", "variants")
    variants = [item.strip() for item in val.split(",")]
    for i, name in enumerate(variants):
        if name not in ("metal", "graphene"):
            raise ConfigError(f"line {ln}: key 'variants': unknown variant "
                              f"{name!r} (metal or graphene)")
        if name in variants[:i]:
            raise ConfigError(f"line {ln}: key 'variants': duplicate "
                              f"{name!r}")

    val, ln = get("sweep", "points")
    try:
        points = int(val)
    except ValueError:
        raise ConfigError(f"line {ln}: key 'points': not an integer: {val!r}")
    try:
        require_grid(band, points)
    except ValidationError as exc:
        raise in_context(exc) from None
    cells = (("metal" in variants)
             + ("graphene" in variants) * len(fermi) * len(taus))
    if cells * points > MAX_SWEEP_SAMPLES:
        raise ConfigError(f"line {ln}: key 'points': {cells} cells x {points} "
                          f"points exceed {MAX_SWEEP_SAMPLES} samples")

    val, ln = get("output", "format")
    fmt = val.strip()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"line {ln}: key 'format': must be csv or json")

    path, _ = get("output", "path")

    grid = SweepGrid(fermi_levels=fermi, relaxation_times=taus,
                     frequency_band=band,
                     frequency_points=points, variants=variants)
    return RunConfig(substrate=substrate, design_frequency=f_design,
                     sweep=grid, output_format=fmt, output_path=path,
                     temperature=temperature)
