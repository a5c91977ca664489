"""Config-file grammar for sweep runs.

Flat INI-like sections of `key = value` lines. Dimensioned values carry a
mandatory unit suffix; lists are comma separated; arithmetic ranges use
start:stop:step (inclusive stop). In a list or a range, a value written
without a unit takes the unit of the nearest value after it, and any text
after a value's unit is an error.

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
the CLI and the API. Their errors name a field, not a key; parse_config
re-keys them in one handler, which maps the field to the key and line that
supplied it. Validation is fail-fast: keys are checked in a fixed order, and
nothing is computed from a config that has any invalid value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from .errors import ConfigError, UnitError, ValidationError, require_grid
from .materials import GrapheneSheet
from .patch import SubstrateSpec, require_design_frequency

_UNIT_TABLES: dict[str, dict[str, float]] = {
    # canonical units: length m, frequency Hz, energy eV, time ps, temperature K
    "length": {"nm": 1e-9, "um": 1e-6, "µm": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12},
    "energy": {"meV": 1e-3, "eV": 1.0},
    "time": {"fs": 1e-3, "ps": 1.0, "ns": 1e3, "us": 1e9, "s": 1e12},
    "temperature": {"K": 1.0},
}

MAX_LIST_LENGTH = 10_000  # longest start:stop:step range; spp runs it in < 1 s
# Cells x points of one sweep. 500 cells x 1000 points take 0.3 s of CPU to
# solve, then 0.5 s to write as json (102 MB, the larger format) or 0.3 s as
# csv (32 MB); the process peaks at 61 MiB RSS (Python 3.11, one core of a
# 2-vCPU VM).
MAX_SWEEP_SAMPLES = 500_000

_QUANTITY_RE = re.compile(r"^([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-zµ]*)$")


@dataclass(frozen=True)
class RunConfig:
    """Everything one sweep run needs, fully validated.

    fermi_levels in eV, relaxation_times in ps, frequency_band in Hz.
    variants names the conductors ("metal", "graphene") in input order;
    graphene is evaluated at every (fermi, tau) cell.
    """

    substrate: SubstrateSpec
    design_frequency: float
    fermi_levels: list[float]
    relaxation_times: list[float]
    frequency_band: tuple[float, float]
    frequency_points: int
    variants: list[str]
    temperature: float
    output_format: str
    output_path: str


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


def parse_quantity(text: str, dimension: str, key: str,
                   line: int = 0) -> float:
    """One number with unit suffix, converted to the canonical unit.

    line = 0 marks a command-line flag rather than a file key.
    """
    number, scale, _ = _quantity(text, dimension, key, line)
    return float(number) * scale


def _quantity(text: str, dimension: str, key: str, line: int,
              unit: str | None = None) -> tuple[Decimal, float, str]:
    """The literal number of a quantity, the scale of its unit and the
    unit, which is `unit` for a number written without a suffix."""
    table = _UNIT_TABLES[dimension]
    m = _QUANTITY_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{_ctx(key, line)}: cannot parse quantity {text!r}")
    number, suffix = m.group(1), m.group(2) or unit
    if not suffix:
        raise UnitError(
            f"{_ctx(key, line)}: missing unit suffix on {text!r} "
            f"(expected one of {', '.join(sorted(table))})")
    if suffix not in table:
        raise UnitError(
            f"{_ctx(key, line)}: unknown unit {suffix!r} "
            f"(expected one of {', '.join(sorted(table))})")
    return _parse_number(number, key, line, Decimal), table[suffix], suffix


def parse_quantity_list(text: str, dimension: str, key: str,
                        line: int = 0) -> list[float]:
    """Comma list or start:stop:step range; a value written without a
    unit takes the unit of the nearest value after it."""
    is_range = ":" in text
    items = [item.strip() for item in text.split(":" if is_range else ",")]
    if is_range and len(items) != 3:
        raise ConfigError(f"{_ctx(key, line)}: range must be "
                          f"start:stop:step, got {text!r}")
    if not is_range and not all(items):
        raise ConfigError(f"{_ctx(key, line)}: empty list element")
    last = _QUANTITY_RE.match(items[-1])
    if is_range and last and not last.group(2):
        units = ", ".join(sorted(_UNIT_TABLES[dimension]))
        raise UnitError(f"{_ctx(key, line)}: range needs a unit suffix "
                        f"(one of {units})")
    # Walk right to left so a unit annotates the bare values before it.
    quantities, unit = [], None
    for item in reversed(items):
        number, scale, unit = _quantity(item, dimension, key, line, unit)
        quantities.append((number, scale))
    quantities.reverse()
    if not is_range:
        return [float(number) * scale for number, scale in quantities]
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


# Every key of each section, in the order a missing one is reported. No
# two sections share a key name, so a key's name alone identifies it.
_KNOWN_KEYS = {
    "substrate": ("rel_permittivity", "loss_tangent", "thickness"),
    "design": ("frequency",),
    "sweep": ("fermi_levels", "relaxation_times", "band", "points",
              "variants", "temperature"),
    "output": ("format", "path"),
}
_OPTIONAL_KEY = "temperature"
# A ValidationError's field -> the key that supplies it, where they differ.
_FIELD_KEYS = {"fermi_level": "fermi_levels",
               "relaxation_time": "relaxation_times"}


def _read_pairs(text: str) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
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
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in "
                              f"[{section}]")
        if not value:
            raise ConfigError(f"line {lineno}: key '{key}': empty value")
        pairs[key] = (value, lineno)
    return pairs


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; raises ConfigError/UnitError on problems."""
    pairs = _read_pairs(text)

    for section, keys in _KNOWN_KEYS.items():
        for key in keys:
            if key not in pairs and key != _OPTIONAL_KEY:
                raise ConfigError(f"missing required key '{section}.{key}'")

    def read(key: str, dimension: str | None = None, parse=parse_quantity):
        """A key's number, or its quantity (list) in `dimension`."""
        value, line = pairs[key]
        if dimension is None:
            return _parse_number(value, key, line)
        return parse(value, dimension, key, line)

    # Keys are read and checked in order, and the first bad one is reported:
    # a failed check names its field, which the handler maps to its key.
    try:
        substrate = SubstrateSpec(read("rel_permittivity"),
                                  read("loss_tangent"),
                                  read("thickness", "length"))
        f_design = read("frequency", "frequency")
        require_design_frequency(f_design)

        fermi = read("fermi_levels", "energy", parse_quantity_list)
        taus = read("relaxation_times", "time", parse_quantity_list)
        temperature = (read("temperature", "temperature")
                       if _OPTIONAL_KEY in pairs else 300.0)
        # One sheet per value, failing first where the full grid would.
        for tau_ps in taus:
            GrapheneSheet(fermi[0], tau_ps * 1e-12, temperature)
        for ef in fermi[1:]:
            GrapheneSheet(ef, taus[0] * 1e-12, temperature)

        band = tuple(read("band", "frequency", parse_quantity_list))
        if len(band) != 2:
            raise ValidationError("need exactly two frequencies with lo < hi",
                                  field="band")

        variants = [item.strip() for item in pairs["variants"][0].split(",")]
        for i, name in enumerate(variants):
            if name not in ("metal", "graphene"):
                raise ValidationError(f"unknown variant {name!r} (metal or "
                                      f"graphene)", field="variants")
            if name in variants[:i]:
                raise ValidationError(f"duplicate {name!r}", field="variants")

        points_text = pairs["points"][0]
        try:
            points = int(points_text)
        except ValueError:
            raise ValidationError(f"not an integer: {points_text!r}",
                                  field="points")
        require_grid(band, points)
        cells = (("metal" in variants)
                 + ("graphene" in variants) * len(fermi) * len(taus))
        if cells * points > MAX_SWEEP_SAMPLES:
            raise ValidationError(f"{cells} cells x {points} points exceed "
                                  f"{MAX_SWEEP_SAMPLES} samples",
                                  field="points")

        fmt = pairs["format"][0]
        if fmt not in ("csv", "json"):
            raise ValidationError("must be csv or json", field="format")
    except ValidationError as exc:
        if exc.field is None:   # a ConfigError or UnitError names its key
            raise
        key = _FIELD_KEYS.get(exc.field, exc.field)
        raise ConfigError(f"{_ctx(key, pairs[key][1])}: {exc.reason}") \
            from None

    return RunConfig(substrate, f_design, fermi, taus, band, points,
                     variants, temperature, fmt, pairs["path"][0])
