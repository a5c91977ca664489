"""thzpatch benchmark: one workload per run, every metric by name and unit.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 48 --trace 0

Workloads: sweep-grid, design-scan, fdtd-refine, cli-cold (see README.md).
A run spends --seconds on rounds of its own workload, which give that
workload's end-to-end figures. So that every run reports every metric, a
fixed number of rounds of each other workload (the probes) is spread evenly
over the same seconds, step by step. Every output is checked. Afterwards
the run times the set-up (a fresh interpreter importing thzpatch and
building the inputs) several times, and measures peak memory.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's
public functions, records spans and prints the per-layer metrics instead,
with the tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

The package is imported from src/ of the checkout this file sits in; the
run fails (exit 2, no result) if that is missing or another copy loads.
Exit status is 1 when any output check fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

# One process, no threads: numpy's BLAS pool would otherwise start a thread
# per core at import, in this process and in every child it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3

SPEC = os.path.join(ROOT, "BENCHMARK.json")

CLI_COMMANDS = ("design", "analyze", "spp", "resize", "fdtd-check", "sweep")


def import_package():
    """thzpatch from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "thzpatch", "__init__.py")):
        print(f"error: no thzpatch package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import thzpatch
    if not os.path.abspath(thzpatch.__file__).startswith(SRC + os.sep):
        print(f"error: thzpatch imported from {thzpatch.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        sys.exit(2)
    return thzpatch


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one round: for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true",
                   help="import thzpatch, build the inputs and exit "
                        "(what setup_s times)")
    p.add_argument("--rss-only", action="store_true",
                   help="run one round of the workload and print the "
                        "process's peak RSS in KiB (what peak_rss_mb reads)")
    return p.parse_args(argv)


def run_schedule(own, others, ctx, seconds: float, own_rounds: int,
                 probe_rounds) -> list[float]:
    """Rounds of `own` until `seconds` have passed (and at least
    `own_rounds`), with the steps of `probe_rounds(w)` rounds of each other
    workload spread evenly over the same seconds, between own steps.
    Returns the timed seconds of each own round."""
    due = []
    for w in others:
        steps = [s for _ in range(probe_rounds(w)) for s in w.steps(ctx)]
        due += [(seconds * (j + 0.5) / len(steps), len(due) + j, s)
                for j, s in enumerate(steps)]
    due.sort(key=lambda item: item[:2])
    pending = collections.deque(step for _, _, step in due)
    times = collections.deque(t for t, _, _ in due)
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < own_rounds or time.perf_counter() - t0 < seconds:
        total = 0.0
        for step in own.steps(ctx):
            total += step()
            while times and times[0] <= time.perf_counter() - t0:
                times.popleft()
                pending.popleft()()
        rounds.append(total)
    while pending:
        pending.popleft()()
    return rounds


def _child(args, flag: str) -> list[str]:
    return ([sys.executable, os.path.join(HERE, "run.py"), flag,
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"] + (["--smoke"] if args.smoke else []))


def setup_seconds(args, repeats: int) -> float:
    """Median CPU time of fresh interpreters doing the set-up."""
    from workloads import children_cpu
    samples = []
    for _ in range(repeats):
        t0 = children_cpu()
        subprocess.run(_child(args, "--setup-only"), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        samples.append(children_cpu() - t0)
    return statistics.median(samples)


def peak_rss_mib(args, own) -> float:
    """Peak RSS of a process that runs one round of the workload.

    A separate process, because the measuring process also runs the other
    workloads' probes. For cli-cold, the largest thzpatch command the run
    started.
    """
    if own.name == "cli-cold":
        return own.peak_kib / 1024
    proc = subprocess.run(_child(args, "--rss-only"), cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=170)
    return int(proc.stdout.split()[-1]) / 1024


def import_times(ctx) -> tuple[float, float]:
    """(thzpatch import ms, scipy share ms) from `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import thzpatch.cli"],
        cwd=ROOT, env=ctx.env, capture_output=True, text=True, check=True,
        timeout=120)
    total_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if not m:
            continue
        self_us, cumulative, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "thzpatch" or name.startswith("thzpatch."):
            total_us = max(total_us, cumulative)
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return total_us / 1e3, scipy_us / 1e3


# ------------------------------------------------------------ traced metrics

def _mutual_key(tracer):
    def attr_of(args, kwargs):
        geometry = args[0] if args else kwargs["geometry"]
        frequency = args[1] if len(args) > 1 else kwargs["frequency"]
        return tracer.key_id((geometry.width, geometry.length,
                              geometry.fringing_extension, frequency))
    return attr_of


def _resolution(grid, tp) -> int:
    return round(tp.CODATA2018.light_speed / tp.fdtd.DESIGN_F_MAX
                 / grid.cell_size)


def _cell_steps(tp, tau: float, grid) -> float:
    """Cells x steps x 2 marches of one run_drude_scattering, from the grid.

    Mirrors the step count rule of thzpatch.fdtd: source delay 6 t_w, the
    transit of the grid, then RINGDOWN_TAUS tau + RINGDOWN_WIDTHS t_w.
    """
    fd = tp.fdtd
    t_w = 1.0 / (2 * math.pi * fd.SOURCE_CENTER_HZ)
    c = tp.CODATA2018.light_speed
    t_end = (6 * t_w + grid.cell_count * grid.cell_size / c
             + fd.RINGDOWN_TAUS * tau + fd.RINGDOWN_WIDTHS * t_w)
    return 2.0 * grid.cell_count * math.ceil(t_end / grid.time_step)


def naming(tracer, tp) -> dict:
    def emit_name(args, kwargs):
        fmt = args[1] if len(args) > 1 else kwargs["output_format"]
        return f"sweep.emit_{fmt}"

    def scattering_name(args, kwargs):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        return f"fdtd.scattering.r{_resolution(grid, tp)}"

    def drude_work(args, kwargs):
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        return _cell_steps(tp, tau, grid)

    def conf_cells(args, kwargs):
        sheets = args[0] if args else kwargs["sheets"]
        freqs = args[1] if len(args) > 1 else kwargs["frequencies"]
        return float(len(sheets) * len(freqs))

    return {
        "emit": (emit_name, None),
        "run_sheet_scattering": (scattering_name, None),
        "run_drude_scattering": (None, drude_work),
        "mutual_conductance_ratio": (None, _mutual_key(tracer)),
        "confinement_sweep": (None, conf_cells),
    }


def layer_metrics(table, workloads, import_ms, overhead) -> dict:
    import numpy as np
    t = table
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    n_designs = max(t.count("op.design"), 1)
    put("materials.kubo_sigma.calls",
        t.under("materials.kubo_sigma", "op.design").sum() / n_designs,
        "count")
    put("materials.kubo_sigma.us", t.mean_us("materials.kubo_sigma"), "us")
    put("spp.symmetric.us", t.mean_us("spp.spp_wavenumber_symmetric"), "us")
    put("spp.asymmetric.us", t.mean_us("spp.spp_wavenumber_asymmetric"), "us")
    conf = t.mask("spp.confinement_sweep")
    put("spp.confinement_sweep.us_per_cell",
        t.dur[conf].sum() / t.attr[conf].sum() * 1e6, "us")
    put("patch.design_patch.us", t.mean_us("patch.design_patch"), "us")
    put("patch.patch_for_target.us", t.mean_us("patch.patch_for_target"), "us")
    put("patch.resonance_evals_per_target",
        t.child_count("circuit.graphene_resonance",
                      "patch.patch_for_target").mean(), "count")

    # Radiation integrals per sweep: calls, and distinct (geometry, f) keys.
    in_sweep = t.under("circuit.mutual_conductance_ratio", "op.sweep")
    n_sweeps = max(t.count("op.sweep"), 1)
    calls = in_sweep.sum() / n_sweeps
    distinct = len(set(zip(t.op[in_sweep].tolist(),
                           t.attr[in_sweep].tolist()))) / n_sweeps
    put("circuit.mutual_ratio.calls", calls, "count")
    put("circuit.mutual_ratio.distinct", distinct, "count")
    put("circuit.mutual_ratio.useful_share", distinct / calls, "ratio")
    put("circuit.mutual_ratio.us",
        t.mean_us("circuit.mutual_conductance_ratio"), "us")
    put("circuit.q_factors.us", t.mean_us("circuit.q_factors"), "us")
    put("circuit.s11_spectrum.us", t.mean_us("circuit.s11_spectrum"), "us")
    put("circuit.bandwidth.us", t.mean_us("circuit.bandwidth_minus10db"), "us")
    put("circuit.gain_report.us", t.mean_us("circuit.gain_report"), "us")

    grid = workloads["sweep-grid"]
    put("config.parse_config.ms", t.mean_us("config.parse_config") / 1e3, "ms")
    put("sweep.run_sweep.ms_per_cell",
        t.mean_us("sweep.run_sweep") / 1e3 / grid.n_cells, "ms")
    put("sweep.emit_csv.ms", t.mean_us("sweep.emit_csv") / 1e3, "ms")
    put("sweep.emit_json.ms", t.mean_us("sweep.emit_json") / 1e3, "ms")
    put("sweep.bytes_written", grid.bytes_written, "bytes")

    for res in (100, 200, 400):
        put(f"fdtd.scattering.ms.r{res}",
            t.mean_us(f"fdtd.scattering.r{res}") / 1e3, "ms")
    drude = t.mask("fdtd.run_drude_scattering")
    per_sheet = t.under("fdtd.run_drude_scattering", "op.fdtd_sheet")
    put("fdtd.cell_steps",
        t.attr[per_sheet].sum() / max(t.count("op.fdtd_sheet"), 1), "count")
    put("fdtd.ns_per_cell_step",
        t.dur[drude].sum() / t.attr[drude].sum() * 1e9, "ns")
    put("fdtd.analytic.us", t.mean_us("fdtd.analytic_sheet_coefficients"),
        "us")

    put("cli.import.ms", import_ms[0], "ms")
    put("cli.import.scipy_ms", import_ms[1], "ms")
    for cmd in CLI_COMMANDS:
        put(f"cli.{cmd}.ms", t.mean_us(f"cli.{cmd}") / 1e3, "ms")

    for layer, (self_s, count) in t.layer_self().items():
        put(f"layer.{layer}.self_ms", self_s * 1e3, "ms")
        put(f"layer.{layer}.calls", count, "count")
    untraced, traced = overhead
    put("trace.overhead_ms", (traced - untraced) * 1e3, "ms")
    put("trace.overhead_pct", (traced / untraced - 1) * 100, "%")
    bad = [k for k, (v, _) in m.items() if not np.isfinite(v)]
    if bad:
        raise RuntimeError(f"per-layer metrics without data: {bad}")
    return m


def in_spec_order(metrics: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, in its order."""
    with open(SPEC) as fh:
        names = [m["name"] for m in json.load(fh)[kind]]
    if set(names) != set(metrics):
        raise RuntimeError(f"measured metrics differ from {kind} in "
                           f"BENCHMARK.json: {sorted(set(names) ^ set(metrics))}")
    return {name: metrics[name] for name in names}


# ----------------------------------------------------------------------- run

def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    tp = import_package()
    from workloads import WORKLOADS, Context

    workloads = {name: cls(args.seed, args.smoke)
                 for name, cls in WORKLOADS.items()}
    if args.setup_only:
        return 0
    own = workloads[args.workload]
    if args.rss_only:
        return rss_only(own, tp)

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    tmp = os.path.join(tmp_root, str(os.getpid()))
    os.makedirs(tmp)
    try:
        return measure(args, tp, workloads, own, Context(tp, ROOT, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass


def rss_only(own, tp) -> int:
    from workloads import Context, peak_rss_kib
    tmp = os.path.join(ROOT, ".bench_tmp", f"rss-{os.getpid()}")
    os.makedirs(tmp)
    try:
        for step in own.steps(Context(tp, ROOT, tmp)):
            step()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(peak_rss_kib())
    return 0


def measure(args, tp, workloads, own, ctx) -> int:
    import numpy
    import scipy
    print(f"env: python {platform.python_version()}, numpy "
          f"{numpy.__version__}, scipy {scipy.__version__}, nproc "
          f"{os.cpu_count()}, thzpatch {tp.__version__} from "
          f"{os.path.dirname(tp.__file__)}")
    others = [w for w in workloads.values() if w is not own]

    def schedule():
        return run_schedule(own, others, ctx, args.seconds, own.min_rounds,
                            lambda w: 1 if args.smoke else w.probe_rounds)

    if args.trace:
        from tracing import SpanTable, Tracer
        untraced = sum(step() for step in own.steps(ctx))
        tracer = Tracer()
        ctx.tracer = tracer
        tracer.install(naming(tracer, tp))
        try:
            traced = schedule()
            for w in workloads.values():
                w.finish(ctx)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        untraced = (untraced + sum(step() for step in own.steps(ctx))) / 2
        out = os.path.join(ROOT, ".bench_out",
                           f"spans-{args.workload}-{args.seed}.npz")
        tracer.write(out)
        print(f"spans: {len(tracer.start)} written to "
              f"{os.path.relpath(out, ROOT)}")
        metrics = in_spec_order(
            layer_metrics(SpanTable(tracer), workloads, import_times(ctx),
                          (untraced, statistics.median(traced))), "per_layer")
    else:
        schedule()
        for w in workloads.values():
            w.finish(ctx)
        metrics = {"setup_s": (setup_seconds(args, 1 if args.smoke
                                             else SETUP_REPEATS), "s"),
                   "peak_rss_mb": (peak_rss_mib(args, own), "MiB")}
        for w in workloads.values():
            metrics.update(w.metrics())
        metrics = in_spec_order(metrics, "end_to_end")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"checks: {ctx.checks} made, {len(ctx.problems)} did not hold; "
          f"operations: {ctx.attempted} attempted, {ctx.failed} failed")
    for what in ctx.failures[:10] + ctx.problems[:20]:
        print(f"  {what}", file=sys.stderr)
    correct = not ctx.problems
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
