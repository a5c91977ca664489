"""Fuzz the command line: every subcommand, hostile flag values.

Each draw runs cli_main in-process and must end in exit code 0, 1 or 2
with no traceback; pyproject.toml turns any RuntimeWarning into an error.
A draw gives most flags a value from the edges of the accepted domain, so
that it reaches the numerics, and up to two flags a hostile one: nan, inf,
negatives, 0, extreme exponents, unknown units, huge counts, inverted
ranges. Sizes are drawn either far above their caps (rejected before
anything is allocated) or small, so every accepted draw stays cheap:
fdtd-check runs at resolution <= 150 with <= 50 points, spp lists hold
<= 50 entries and sweeps <= 3 x 3 cells of <= 50 points.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thzpatch import cli_main

UNITS = {
    "length": ["um", "nm", "mm", "m"],
    "frequency": ["GHz", "THz", "Hz"],
    "energy": ["eV", "meV"],
    "time": ["ps", "fs", "s"],
    "temperature": ["K"],
}

NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e-300",
                     "1e300", "1e400", "5e-324", "1", "3.5", "280"]),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    st.floats(1e-320, 1e308, allow_nan=False).map(repr),
)


def hostile(dimension=None):
    """A value meant to be rejected or to stress the numerics."""
    if dimension is None:
        return NUMBERS
    unit = st.sampled_from(UNITS[dimension] + ["", "furlong"])
    return st.builds(lambda n, u: n + u, NUMBERS, unit)


def edges(*values):
    """In-domain values, None keeping the flag at its default."""
    return st.sampled_from(values)


FREQ = edges("1GHz", "220GHz", "280GHz", "325GHz", "10THz",
             "280.000000000001GHz")
HUGE = st.sampled_from(["-1", "0", "1", "1001", "1000000000", "x"])
SHEET = [("--ef", edges("0.05eV", "50meV", "1.2eV", "2eV"),
          hostile("energy")),
         ("--tau", edges("0.05ps", "50fs", "1.2ps", "5ps"),
          hostile("time")),
         ("--temp", edges(None, "300K", "4K", "1e-240K", "1e300K"),
          hostile("temperature"))]
SUBSTRATE = [("--er", edges(None, "1.0001", "3.5", "11.9", "1e6"),
              NUMBERS),
             ("--tand", edges(None, "0", "0.0027", "0.0999", "1e-300"),
              NUMBERS),
             ("--h", edges(None, "50um", "1e-150m", "1mm"),
              hostile("length"))]
BAND = [("--band-lo", edges(None, "1GHz", "220GHz", "280GHz"),
         hostile("frequency")),
        ("--band-hi", edges(None, "325GHz", "10THz", "280.000000000001GHz"),
         hostile("frequency"))]
POINTS = edges(None, "2", "11", "50")


def frequency_ranges(steps, counts):
    """start:stop:step ranges of count steps, in a drawn unit."""
    return st.builds(
        lambda start, step, count, unit: f"{start}:{start + count * step}"
                                         f":{step}{unit}",
        st.floats(-1e3, 1e3, allow_nan=False), steps,
        st.sampled_from(counts), st.sampled_from(UNITS["frequency"]))


# A comma list or a range of <= 50 entries; hostile: far too many entries,
# inverted ranges, or a single hostile value.
SPP_FREQUENCIES = st.one_of(
    st.lists(FREQ, min_size=1, max_size=3).map(",".join),
    frequency_ranges(st.floats(1e-3, 10), [0, 1, 49]))
SPP_HOSTILE = st.one_of(
    hostile("frequency"),
    frequency_ranges(st.floats(-10, 10, allow_nan=False), [-1, 10**6, 10**15]))
PERMITTIVITY = edges(None, "1", "3.5", "12", "1e300")
COMMANDS = {
    "design": [("--f0", FREQ, hostile("frequency")), *SUBSTRATE],
    "analyze": [("--f0", FREQ, hostile("frequency")), *SUBSTRATE, *SHEET,
                *BAND, ("--points", POINTS | edges("1000"), HUGE)],
    "resize": [("--f0", FREQ, hostile("frequency")), *SUBSTRATE, *SHEET],
    "spp": [*SHEET, ("--f", SPP_FREQUENCIES, SPP_HOSTILE),
            ("--eps", PERMITTIVITY, NUMBERS),
            ("--eps-above", PERMITTIVITY, NUMBERS),
            ("--eps-below", PERMITTIVITY, NUMBERS)],
    "fdtd-check": [*SHEET, *BAND,
                   ("--resolution", edges("100", "150"), HUGE),
                   ("--points", POINTS, HUGE)],
}


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[name]
    bad = draw(st.sets(st.sampled_from(range(len(flags))), max_size=2))
    args = [name]
    for i, (flag, good, hostile_values) in enumerate(flags):
        value = draw(hostile_values if i in bad else good)
        if value is not None:
            args.append(f"{flag}={value}")
    if name == "fdtd-check":
        return args + ["--quiet"]
    return args + draw(st.sampled_from([[], ["--format=csv"],
                                        ["--format=json"]]))


SWEEP_CONFIG = """\
[substrate]
rel_permittivity = {er}
loss_tangent = {tand}
thickness = {h}

[design]
frequency = {f0}

[sweep]
fermi_levels = {fermi}
relaxation_times = {taus}
band = {band_lo}, {band_hi}
points = {points}
variants = {variants}
temperature = {temp}

[output]
format = {fmt}
path = {path}
"""

SWEEP_KEYS = {
    "er": (edges("1.0001", "3.5", "1e6"), NUMBERS),
    "tand": (edges("0", "0.0027"), NUMBERS),
    "h": (edges("50 um", "1e-150 m"), hostile("length")),
    "f0": (FREQ, hostile("frequency")),
    "fermi": (st.lists(SHEET[0][1], min_size=1, max_size=3).map(", ".join),
              hostile("energy")),
    "taus": (st.lists(SHEET[1][1], min_size=1, max_size=3).map(", ".join),
             hostile("time")),
    "band_lo": (edges("1 GHz", "220 GHz", "280 GHz"), hostile("frequency")),
    "band_hi": (edges("325 GHz", "10 THz", "280.000000000001 GHz"),
                hostile("frequency")),
    "points": (edges("2", "11", "50"), HUGE),
    "variants": (edges("metal", "graphene", "metal, graphene"),
                 edges("gold", "metal, metal")),
    "temp": (edges("300 K", "1e-240 K", "1e300 K"), hostile("temperature")),
    "fmt": (edges("csv", "json"), edges("yaml")),
}


@st.composite
def sweep_configs(draw):
    bad = draw(st.sets(st.sampled_from(sorted(SWEEP_KEYS)), max_size=2))
    return {key: draw(hostile_values if key in bad else good)
            for key, (good, hostile_values) in SWEEP_KEYS.items()}


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(args)
    return code, err.getvalue()


def assert_clean_exit(args):
    code, err = run(args)
    assert code in (0, 1, 2), (args, code, err)
    assert "Traceback" not in err, (args, err)


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_cli_survives_hostile_flags(args):
    assert_clean_exit(args)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweep_configs())
def test_cli_sweep_survives_hostile_configs(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SWEEP_CONFIG.format(path=os.path.join(tmp, "out"),
                                         **values))
        assert_clean_exit(["sweep", path])
