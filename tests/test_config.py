"""Config grammar: units, lists, ranges, and fail-fast validation."""

import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import thzpatch.config as config
from thzpatch import (ConfigError, GrapheneSheet, UnitError, ValidationError,
                      parse_config, parse_quantity, parse_quantity_list)
from thzpatch.config import MAX_LIST_LENGTH, MAX_SWEEP_SAMPLES
from thzpatch.errors import MAX_POINTS

GOOD = """\
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
path = out
"""


def _with(replacements: dict[str, str]) -> str:
    lines = GOOD.splitlines()
    for i, line in enumerate(lines):
        key = line.split("=")[0].strip()
        if key in replacements:
            lines[i] = f"{key} = {replacements[key]}"
    return "\n".join(lines) + "\n"


# quantities


def test_parse_quantity_conversions():
    um = pytest.approx(50e-6, rel=1e-15)
    assert parse_quantity("50 um", "length", "thickness") == um
    assert parse_quantity("50um", "length", "thickness") == um
    assert parse_quantity("50 µm", "length", "thickness") == um
    assert parse_quantity("280 GHz", "frequency", "f") == 280e9
    assert parse_quantity("1.2 ps", "time", "tau") == 1.2
    assert parse_quantity("500 fs", "time", "tau") \
        == pytest.approx(0.5, rel=1e-15)
    assert parse_quantity("300 K", "temperature", "t") == 300.0
    assert parse_quantity("900 meV", "energy", "ef") \
        == pytest.approx(0.9, rel=1e-15)


def test_parse_quantity_missing_unit():
    with pytest.raises(UnitError, match=r"'thickness': missing unit suffix"):
        parse_quantity("50", "length", "thickness")


def test_parse_quantity_unknown_unit():
    with pytest.raises(UnitError, match=r"unknown unit 'parsec'"):
        parse_quantity("50 parsec", "length", "thickness")


def test_parse_quantity_garbage():
    with pytest.raises(ConfigError, match=r"cannot parse quantity"):
        parse_quantity("fifty um", "length", "thickness")


def test_parse_quantity_line_number_in_message():
    with pytest.raises(UnitError, match=r"line 7: key 'thickness'"):
        parse_quantity("50", "length", "thickness", line=7)


@given(value=st.floats(1e-3, 1e3, allow_nan=False),
       unit=st.sampled_from(["nm", "um", "mm", "m"]))
def test_parse_quantity_format_roundtrip(value, unit):
    scale = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}[unit]
    assert parse_quantity(f"{value!r} {unit}", "length", "x") == value * scale


def test_list_inherits_unit_right_to_left():
    values = parse_quantity_list("0.3, 0.6 eV, 900 meV", "energy", "ef")
    assert values == pytest.approx([0.3, 0.6, 0.9], rel=1e-12)


def test_list_without_any_unit_fails():
    with pytest.raises(UnitError):
        parse_quantity_list("0.3, 0.6", "energy", "ef")


def test_list_rejects_empty_element():
    with pytest.raises(ConfigError, match=r"empty list element"):
        parse_quantity_list("0.3,, 0.9 eV", "energy", "ef")


def test_range_is_inclusive_of_stop():
    values = parse_quantity_list("0.3:1.2:0.3 eV", "energy", "ef")
    assert values == parse_quantity_list("0.3, 0.6, 0.9, 1.2 eV", "energy",
                                         "ef")
    freqs = parse_quantity_list("220:325:5 GHz", "frequency", "f")
    assert len(freqs) == 22
    assert freqs[0] == 220e9
    assert freqs[-1] == pytest.approx(325e9, rel=1e-9)


@given(start=st.integers(-10**6, 10**6), step=st.integers(1, 10**6),
       steps=st.integers(0, 50), tenths=st.integers(0, 9),
       places=st.integers(0, 6),
       unit=st.sampled_from(["Hz", "kHz", "MHz", "GHz", "THz"]))
def test_range_is_the_comma_list_written_out(start, step, steps, tenths,
                                             places, unit):
    # Decimal literals, and a stop that may lie short of the next step.
    start, step = (Decimal(n).scaleb(-places) for n in (start, step))
    stop = start + steps * step + tenths * step / 10
    written = ", ".join(str(start + k * step) for k in range(steps + 1))
    assert parse_quantity_list(f"{start}:{stop}:{step} {unit}", "frequency",
                               "f") == \
        parse_quantity_list(f"{written} {unit}", "frequency", "f")


@pytest.mark.parametrize("text, dimension",
                         [("220 GHz:230 GHz:5 GHz banana", "frequency"),
                          ("0.3 eV:1.2 eV:0.3 eV GHz", "energy")])
def test_range_rejects_text_after_a_unit(text, dimension):
    with pytest.raises(ConfigError, match=r"cannot parse quantity"):
        parse_quantity_list(text, dimension, "f")


def test_range_element_takes_the_unit_after_it_as_in_a_list():
    assert parse_quantity_list("0.3:1.2 eV:300 meV", "energy", "ef") == \
        parse_quantity_list("0.3, 0.6, 0.9, 1.2 eV", "energy", "ef")


def test_range_needs_unit():
    with pytest.raises(UnitError, match=r"range needs a unit suffix"):
        parse_quantity_list("0.3:1.2:0.3", "energy", "ef")


def test_range_shape_errors():
    with pytest.raises(ConfigError, match=r"start:stop:step"):
        parse_quantity_list("0.3:1.2 eV", "energy", "ef")
    with pytest.raises(ConfigError, match=r"step > 0"):
        parse_quantity_list("0.3:1.2:-0.3 eV", "energy", "ef")
    with pytest.raises(ConfigError, match=r"stop >= start"):
        parse_quantity_list("1.2:0.3:0.3 eV", "energy", "ef")


def test_range_longer_than_the_cap_is_rejected():
    at_cap = parse_quantity_list(f"1:{MAX_LIST_LENGTH}:1 GHz", "frequency", "f")
    assert len(at_cap) == MAX_LIST_LENGTH
    with pytest.raises(ConfigError, match=rf"line 7: key 'f': range has "
                       rf"{MAX_LIST_LENGTH + 1} entries, more than "
                       rf"{MAX_LIST_LENGTH}"):
        parse_quantity_list(f"0:{MAX_LIST_LENGTH}:1 GHz", "frequency", "f", 7)


# whole-file parsing


def test_good_config_parses():
    cfg = parse_config(GOOD)
    assert cfg.substrate.rel_permittivity == 3.5
    assert cfg.substrate.loss_tangent == 0.0027
    assert cfg.substrate.thickness == pytest.approx(50e-6, rel=1e-15)
    assert cfg.design_frequency == 280e9
    assert cfg.fermi_levels == pytest.approx([0.3, 0.6, 0.9, 1.2])
    assert cfg.relaxation_times == pytest.approx([0.3, 0.6, 0.9, 1.2])
    assert cfg.frequency_band == (220e9, 325e9)
    assert cfg.frequency_points == 211
    assert cfg.variants == ["metal", "graphene"]
    assert cfg.output_format == "csv"
    assert cfg.output_path == "out"
    assert cfg.temperature == 300.0


def test_bundled_reference_config_parses():
    text = (Path(__file__).parent.parent / "paper.cfg").read_text()
    cfg = parse_config(text)
    assert cfg.design_frequency == 280e9
    assert cfg.output_path == "paper_out"


def test_temperature_is_optional():
    lines = [ln for ln in GOOD.splitlines() if "temperature" not in ln]
    cfg = parse_config("\n".join(lines))
    assert cfg.temperature == 300.0
    hot = parse_config(_with({"temperature": "350 K"}))
    assert hot.temperature == 350.0


def test_empty_config_names_first_missing_key():
    with pytest.raises(ConfigError,
                       match=r"missing required key 'substrate.rel_permittivity'"):
        parse_config("")


REQUIRED_KEYS = [
    "substrate.rel_permittivity", "substrate.loss_tangent",
    "substrate.thickness", "design.frequency", "sweep.fermi_levels",
    "sweep.relaxation_times", "sweep.band", "sweep.points", "sweep.variants",
    "output.format", "output.path",
]


@pytest.mark.parametrize("name", REQUIRED_KEYS)
def test_missing_required_key_is_named(name):
    key = name.split(".")[1]
    lines = [ln for ln in GOOD.splitlines() if ln.split("=")[0].strip() != key]
    assert len(lines) == len(GOOD.splitlines()) - 1
    with pytest.raises(ConfigError,
                       match=rf"^missing required key '{re.escape(name)}'$"):
        parse_config("\n".join(lines))


def test_section_and_key_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=r"line 1: malformed section header"):
        parse_config("[substrate\nrel_permittivity = 3.5")
    with pytest.raises(ConfigError, match=r"line 1: unknown section \[stuff\]"):
        parse_config("[stuff]\nx = 1")
    with pytest.raises(ConfigError, match=r"line 1: key outside any \[section\]"):
        parse_config("rel_permittivity = 3.5")
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'color'"):
        parse_config("[substrate]\ncolor = blue")
    with pytest.raises(ConfigError, match=r"line 3: duplicate key"):
        parse_config("[substrate]\nthickness = 50 um\nthickness = 60 um")
    with pytest.raises(ConfigError, match=r"line 2: key 'thickness': empty value"):
        parse_config("[substrate]\nthickness =")
    with pytest.raises(ConfigError, match=r"line 2: expected 'key = value'"):
        parse_config("[substrate]\nthickness 50 um")


def test_comments_and_blank_lines_are_ignored():
    text = GOOD.replace("points = 211",
                        "points = 211  # fine grid\n\n; trailing note")
    assert parse_config(text).frequency_points == 211


def test_value_range_checks():
    with pytest.raises(ConfigError, match=r"'rel_permittivity': must be > 1"):
        parse_config(_with({"rel_permittivity": "0.8"}))
    with pytest.raises(ConfigError,
                       match=r"^line 3: key 'rel_permittivity': not a number: "
                             r"'3\.5\.1'$"):
        parse_config(_with({"rel_permittivity": "3.5.1"}))
    with pytest.raises(ConfigError, match=r"'loss_tangent': must be in"):
        parse_config(_with({"loss_tangent": "0.5"}))
    with pytest.raises(ConfigError, match=r"'thickness': must be > 0"):
        parse_config(_with({"thickness": "-50 um"}))
    with pytest.raises(ConfigError, match=r"outside accepted range \[0.05, 2.0\] eV"):
        parse_config(_with({"fermi_levels": "3.0 eV"}))
    with pytest.raises(ConfigError, match=r"outside accepted range"):
        parse_config(_with({"relaxation_times": "90 ps"}))
    with pytest.raises(ConfigError, match=r"'band': need exactly two"):
        parse_config(_with({"band": "220 GHz"}))
    with pytest.raises(ConfigError, match=r"'points': not an integer"):
        parse_config(_with({"points": "many"}))
    with pytest.raises(ConfigError, match=r"'points': must be >= 2"):
        parse_config(_with({"points": "1"}))
    with pytest.raises(ConfigError, match=r"unknown variant 'gold'"):
        parse_config(_with({"variants": "gold"}))
    with pytest.raises(ConfigError, match=r"duplicate 'metal'"):
        parse_config(_with({"variants": "metal, metal"}))
    with pytest.raises(ConfigError, match=r"'format': must be csv or json"):
        parse_config(_with({"format": "yaml"}))
    with pytest.raises(ConfigError, match=r"'frequency': must be within"):
        parse_config(_with({"frequency": "50 THz"}))


def test_non_finite_values_name_key_and_line():
    with pytest.raises(ConfigError,
                       match=r"^line 3: key 'rel_permittivity': "
                             r"must be finite$"):
        parse_config(_with({"rel_permittivity": "inf"}))
    with pytest.raises(ConfigError,
                       match=r"^line 4: key 'loss_tangent': must be finite$"):
        parse_config(_with({"loss_tangent": "nan"}))


def test_domain_bounds_carry_key_and_line():
    # the bounds live in SubstrateSpec/GrapheneSheet; the config adds context
    with pytest.raises(ConfigError, match=r"^line 12: key 'relaxation_times': "):
        parse_config(_with({"relaxation_times": "0.3, 9 ps"}))
    with pytest.raises(ConfigError, match=r"^line 11: key 'fermi_levels': "):
        parse_config(_with({"fermi_levels": "0.3, 0.6, 3.0 eV"}))
    with pytest.raises(ConfigError,
                       match=r"^line 16: key 'temperature': must be > 0 K$"):
        parse_config(_with({"temperature": "0 K"}))


def test_points_above_the_cap_name_key_and_line():
    parse_config(_with({"points": str(MAX_POINTS)}))
    with pytest.raises(ConfigError,
                       match=rf"^line 14: key 'points': must be >= 2 and "
                             rf"<= {MAX_POINTS}$"):
        parse_config(_with({"points": str(MAX_POINTS + 1)}))
    with pytest.raises(ConfigError, match=r"^line 14: key 'points': "):
        parse_config(_with({"points": "1000000000"}))


@pytest.mark.parametrize("band, points, reason", [
    ("325, 220 GHz", "211", "must satisfy 0 < f_lo < f_hi"),
    ("0, 325 GHz", "211", "must satisfy 0 < f_lo < f_hi"),
    ("280, 280.000000000001 GHz", "211",
     "must be wide enough for 211 distinct samples"),
    ("280, 280.000000000001 GHz", "2", None),
    ("100 MHz, 20 THz", "211", None),
])
def test_sample_grid_rule_names_key_and_line(band, points, reason):
    # errors.require_grid is the one rule, shared with the CLI and the API;
    # the config adds no band range of its own.
    text = _with({"band": band, "points": points})
    if reason is None:
        assert parse_config(text).frequency_band[1] > 0
        return
    with pytest.raises(ConfigError,
                       match=rf"^line 13: key 'band': {re.escape(reason)}$"):
        parse_config(text)


def test_reversed_band_is_reported_after_variants():
    # The grid is checked once points is read, which comes after variants.
    with pytest.raises(ConfigError, match=r"unknown variant 'gold'"):
        parse_config(_with({"band": "325, 220 GHz", "variants": "gold"}))
    with pytest.raises(ConfigError, match=r"'points': not an integer"):
        parse_config(_with({"band": "325, 220 GHz", "points": "many"}))


def test_sweep_samples_are_capped_at_parse_time():
    # 500 Fermi levels x 1 relaxation time x 1000 points is the cap exactly;
    # the metal cell adds one cell too many. Nothing is swept.
    assert MAX_SWEEP_SAMPLES == 500 * MAX_POINTS
    grid = {"fermi_levels": "0.1:0.599:0.001 eV", "relaxation_times": "1 ps",
            "points": str(MAX_POINTS)}
    cfg = parse_config(_with({**grid, "variants": "graphene"}))
    assert len(cfg.fermi_levels) == 500
    with pytest.raises(ConfigError,
                       match=rf"^line 14: key 'points': 501 cells x "
                             rf"{MAX_POINTS} points exceed "
                             rf"{MAX_SWEEP_SAMPLES} samples$"):
        parse_config(_with({**grid, "variants": "metal, graphene"}))
    # A 9,751 x 991 grid is about 10^7 cells, too many at the fewest points.
    with pytest.raises(ConfigError, match=r": 9663242 cells x 2 points"):
        parse_config(_with({"fermi_levels": "0.05:2.0:0.0002 eV",
                            "relaxation_times": "0.05:5:0.005 ps",
                            "points": "2"}))


def test_sheet_values_are_validated_once_each(monkeypatch):
    built = []

    def counting_sheet(*args):
        built.append(args)
        return GrapheneSheet(*args)

    monkeypatch.setattr(config, "GrapheneSheet", counting_sheet)
    cfg = parse_config(_with({"fermi_levels": "0.1:1.5:0.1 eV",
                              "relaxation_times": "0.1:3.0:0.1 ps"}))
    n, m = len(cfg.fermi_levels), len(cfg.relaxation_times)
    assert (n, m) == (15, 30)
    assert len(built) <= n + m
    assert sorted({ef for ef, _, _ in built}) == cfg.fermi_levels
    assert sorted({tau for _, tau, _ in built}) == pytest.approx(
        [tau_ps * 1e-12 for tau_ps in cfg.relaxation_times])


def test_pads_section_is_unknown():
    with pytest.raises(ConfigError, match=r"unknown section \[pads\]"):
        parse_config(GOOD + "\n[pads]\ngap = 5 um\n")


def test_config_errors_are_validation_errors():
    # the CLI maps the whole input-problem family to one exit code
    assert issubclass(ConfigError, ValidationError)
    assert issubclass(UnitError, ConfigError)
