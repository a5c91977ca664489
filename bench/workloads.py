"""The four workloads: inputs drawn from the seed, one round each, checks.

A workload object holds its inputs (built from the seed alone, without
calling the package), gives one round of its operations as a list of steps,
checks every output of each step outside the timed region, and turns the
timings of all its rounds into end-to-end metrics.

The package is reached only as `ctx.tp.<public name>` (attribute lookup at
call time, so the traced run's wrappers see every call) and, for cli-cold,
through the `thzpatch.cli:main` entry point in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import reference as ref

BAND = (220e9, 325e9)
POINTS = 211
SPP_FREQS = [220e9 + 5e9 * k for k in range(22)]          # 220:325:5 GHz
CONF_FREQS = [220e9 + 15e9 * k for k in range(8)]         # 220:325:15 GHz
FDTD_POINTS = 106
RESOLUTIONS = (100, 200, 400)
FDTD_ERROR_LIMIT = 0.01
CLI_TIMEOUT_S = 120
WARM_DESIGNS = 3

PEAK_TAG = "bench: peak_rss_kib"

# Timed regions measure CPU time, not wall time. This VM's hypervisor steals
# the virtual CPU in bursts: steal time reached 200 s in an hour, and it turned
# single runs 2-6x slower. The kernel accounts steal apart from a thread's
# CPU time (CONFIG_PARAVIRT_TIME_ACCOUNTING). Every timed operation is
# single-threaded and CPU-bound, so on an idle machine its CPU time is its
# wall time.
cpu_clock = time.thread_time


def children_cpu() -> float:
    """User plus system CPU seconds of all waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime

# Runs cli.main() in a fresh interpreter, after making sure the package
# came from this checkout's src/ (passed as the first argument). At exit it
# appends its peak RSS to stderr, which the harness strips again.
CLI_LAUNCHER = (
    "import atexit, sys\n"
    "src = sys.argv.pop(1)\n"
    "def peak():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        kib = [l.split()[1] for l in fh if l.startswith('VmHWM:')]\n"
    f"    sys.stderr.write('\\n{PEAK_TAG} ' + kib[0] + '\\n')\n"
    "atexit.register(peak)\n"
    "import thzpatch.cli\n"
    "if not thzpatch.cli.__file__.startswith(src):\n"
    "    sys.exit('thzpatch imported from ' + thzpatch.cli.__file__)\n"
    "sys.argv[0] = 'thzpatch'\n"
    "thzpatch.cli.main()\n")


def peak_rss_kib() -> int:
    """This process's peak RSS since it started its program (VmHWM).

    ru_maxrss would also count the parent's pages at fork time.
    """
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh
                        if line.startswith("VmHWM:")))


median = statistics.median


def quantile(values, q: int) -> float:
    """The q-th percentile cut of the values (statistics.quantiles, n=100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Context:
    """What every round needs: the package, scratch space and the tallies."""

    def __init__(self, tp, root: str, tmp: str) -> None:
        self.tp = tp
        self.root = root
        self.src = os.path.join(root, "src")
        self.tmp = tmp
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.problems: list[str] = []    # checks that did not hold
        self.failures: list[str] = []    # operations that failed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)

    def span(self, name: str):
        """A span of the benchmark's own (an operation or a command)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(what)

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        self.failures.append(what)


class Workload:
    """A round is a fixed list of steps; a step runs, times and checks."""

    name = ""
    min_rounds = 1       # rounds a run of this workload makes at least
    probe_rounds = 1     # rounds a run of another workload makes of this one

    def steps(self, ctx: Context) -> list:
        """One round as zero-argument callables, each returning its timed
        seconds."""
        raise NotImplementedError

    def finish(self, ctx: Context) -> None:
        """Checks made once per run, after the last round."""

    def metrics(self) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


# ---------------------------------------------------------------- sweep-grid

class SweepGrid(Workload):
    """Parse a dense generated config, run the sweep, emit csv and json."""

    name = "sweep-grid"
    probe_rounds = 5

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(f"sweep-grid:{seed}")
        n_ef, n_tau = (3, 3) if smoke else (12, 12)
        # One value per equal slice of the range, so the grid stays dense
        # and its values distinct at 4 decimals.
        self.fermi = [float(f"{0.2 + (i + 0.05 + 0.9 * rng.random()) * 1.3 / n_ef:.4f}")
                      for i in range(n_ef)]
        self.taus = [float(f"{0.1 + (i + 0.05 + 0.9 * rng.random()) * 1.9 / n_tau:.4f}")
                     for i in range(n_tau)]
        self.f0 = float(f"{rng.uniform(265.0, 295.0):.3f}") * 1e9
        self.eps_r, self.tan_d, self.h = 3.5, 0.0027, 50e-6
        self.n_cells = 1 + n_ef * n_tau
        # Besides metal and the last cell, the oracle checks one drawn cell.
        self.oracle_cell = 1 + rng.randrange(n_ef * n_tau)
        self.text = "\n".join([
            "# generated sweep-grid config",
            "[substrate]",
            f"rel_permittivity = {self.eps_r}",
            f"loss_tangent = {self.tan_d}",
            "thickness = 50 um",
            "[design]",
            f"frequency = {self.f0 / 1e9:.3f} GHz",
            "[sweep]",
            "fermi_levels = " + ", ".join(f"{x:.4f}" for x in self.fermi) + " eV",
            "relaxation_times = " + ", ".join(f"{x:.4f}" for x in self.taus) + " ps",
            "band = 220, 325 GHz",
            f"points = {POINTS}",
            "variants = metal, graphene",
            "temperature = 300 K",
            "[output]",
            "format = csv",
            "path = unused",
            ""])
        self.rates: list[float] = []
        self.digests = None        # of round one's files
        self.bytes_written = 0

    def _files(self, base: str) -> list[str]:
        return [f"{base}_spectra.csv", f"{base}_summary.csv", f"{base}.json"]

    def _emit_all(self, tp, results, base: str) -> None:
        tp.emit(results, "csv", base)
        tp.emit(results, "json", base)

    def steps(self, ctx: Context) -> list:
        return [lambda: self._round(ctx)]

    def _round(self, ctx: Context) -> float:
        tp = ctx.tp
        base = os.path.join(ctx.tmp, "grid")
        ctx.attempted += self.n_cells
        with ctx.span("op.sweep"):
            t0 = cpu_clock()
            try:
                results = tp.run_sweep(tp.parse_config(self.text))
                self._emit_all(tp, results, base)
            except Exception as exc:     # the run goes on; the cells failed
                ctx.fail(self.n_cells, f"sweep raised {exc!r}")
                return cpu_clock() - t0
            dt = cpu_clock() - t0
        self.rates.append(self.n_cells / dt)
        bad = [c for c in results if c.error is not None]
        if bad:
            ctx.fail(len(bad), f"{len(bad)} sweep cells: {bad[0].error}")
        self._check_results(ctx, results)
        digests = [_digest(p) for p in self._files(base)]
        if self.digests is None:
            # Once per run, and without keeping the results: a harness that
            # holds 30,000 result objects makes every later garbage
            # collection in the measured process slower.
            self.digests = digests
            self.bytes_written = sum(os.path.getsize(p)
                                     for p in self._files(base))
            self._check_files(ctx, results, base)
            again = os.path.join(ctx.tmp, "grid_again")
            self._emit_all(tp, results, again)
            ctx.expect([_digest(p) for p in self._files(again)] == digests,
                       "sweep-grid: a second emit is not byte-identical")
            self._check_oracle(ctx, results)
        else:
            ctx.expect(digests == self.digests,
                       "sweep-grid: output bytes differ between rounds")
        return dt

    def _check_results(self, ctx: Context, results) -> None:
        ok = ctx.expect
        ok(len(results) == self.n_cells,
           f"sweep-grid: {len(results)} cells, expected {self.n_cells}")
        if not results or results[0].report is None:
            return
        w, length = ref.design(self.f0, self.eps_r, self.h)
        metal = results[0]
        ok(metal.variant == "metal", "sweep-grid: first cell is not metal")
        f_metal = ref.f_metal(w, length, self.eps_r, self.h)
        ok(ref.rel_diff(metal.report.resonant_frequency, f_metal) < 1e-12,
           "sweep-grid: metal f_res differs from the closed form")
        expected = [(ef, tau) for ef in self.fermi for tau in self.taus]
        got = [(c.fermi_ev, c.tau_ps) for c in results[1:]]
        ok(got == expected, "sweep-grid: graphene cells out of grid order")
        by_ef: dict[float, set] = {}
        for cell in results:
            r = cell.report
            if r is None:
                continue
            if cell.variant == "graphene":
                f_closed = ref.f_graphene(w, length, self.eps_r, self.h,
                                          cell.fermi_ev)
                ok(ref.rel_diff(r.resonant_frequency, f_closed) < 1e-12,
                   f"sweep-grid: f_res of {cell.fermi_ev} eV off the closed form")
                ok(r.resonant_frequency < metal.report.resonant_frequency,
                   "sweep-grid: graphene cell resonates above metal")
                by_ef.setdefault(cell.fermi_ev, set()).add(r.resonant_frequency)
            _check_report(ctx, "sweep-grid", r, w)
            s11 = [p.s11_db for p in cell.spectrum]
            ok(len(s11) == POINTS and -120.0 <= min(s11)
               and max(s11) <= 0.0, "sweep-grid: S11 outside [-120, 0] dB")
            ok(min(s11) == r.min_s11_db, "sweep-grid: min S11 not the dip")
        ok(all(len(v) == 1 for v in by_ef.values()),
           "sweep-grid: f_res varies with tau at a fixed Fermi level")

    def _check_files(self, ctx: Context, results, base: str) -> None:
        spectra_path, summary_path, json_path = self._files(base)
        with open(spectra_path, newline="") as fh:
            spectra = list(csv.DictReader(fh))
        with open(summary_path, newline="") as fh:
            summary = list(csv.DictReader(fh))
        with open(json_path) as fh:
            doc = json.load(fh)
        ok = ctx.expect
        cells = [c for c in results if c.report is not None]
        ok(len(spectra) == len(cells) * POINTS,
           f"sweep-grid: {len(spectra)} spectra rows, expected "
           f"{len(cells)} x {POINTS}")
        ok(len(summary) == len(cells), "sweep-grid: summary row count")

        def sheet_fields(cell, row):
            if cell.variant == "metal":
                return row["fermi_eV"] in ("", None) and row["tau_ps"] in ("", None)
            return (float(row["fermi_eV"]) == ref.fmt9(cell.fermi_ev)
                    and float(row["tau_ps"]) == ref.fmt9(cell.tau_ps))

        mismatches = 0
        rows = iter(spectra)
        for cell in cells:
            for p in cell.spectrum:
                row = next(rows, None)
                if row is None:
                    break
                values = (p.frequency / 1e9, p.s11_db, p.input_resistance,
                          p.input_reactance)
                keys = ("freq_GHz", "s11_dB", "Rin_ohm", "Xin_ohm")
                if (row["variant"] != cell.variant or not sheet_fields(cell, row)
                        or any(float(row[k]) != ref.fmt9(v)
                               for k, v in zip(keys, values))):
                    mismatches += 1
        for cell, row in zip(cells, summary):
            r = cell.report
            values = (r.resonant_frequency / 1e9, r.min_s11_db,
                      r.bandwidth_minus10db / 1e9, r.efficiency,
                      r.directivity_dbi, r.gain_dbi)
            keys = ("f_res_GHz", "min_s11_dB", "bw_GHz", "eff", "D_dBi",
                    "G_dBi")
            if (row["variant"] != cell.variant or not sheet_fields(cell, row)
                    or any(float(row[k]) != ref.fmt9(v)
                           for k, v in zip(keys, values))):
                mismatches += 1
        ok(mismatches == 0,
           f"sweep-grid: {mismatches} csv rows differ from the results at "
           "9 significant digits")

        def as_csv(rows):
            return [{k: (None if v == "" else v if k == "variant" else float(v))
                     for k, v in row.items()} for row in rows]

        ok(doc.get("spectra") == as_csv(spectra)
           and doc.get("summary") == as_csv(summary),
           "sweep-grid: json differs from csv")

    def _check_oracle(self, ctx: Context, results) -> None:
        """A few cells against the mpmath chain of tests/oracles.py."""
        oracles = load_oracles(ctx.root)
        from mpmath import mp, mpc, mpf

        f0, er, h, tand = self.f0, self.eps_r, self.h, self.tan_d
        w, e_eff, dl, length = oracles.design(f0, er, h)
        fm = oracles.f_res(w, length, er, h)
        qm = oracles.q_chain(w, length, dl, e_eff, h, tand, fm,
                             ("metal", oracles.ALUMINUM))
        n_sq = qm[3] / (2 * mp.pi * fm * qm[4]) / oracles.Z_REF
        sampled = [results[0], results[-1], results[self.oracle_cell]]
        freqs = [mpf(f) for f in _linspace(BAND[0], BAND[1], POINTS)]
        for cell in sampled:
            if cell.variant == "metal":
                f_res, q = fm, qm
            else:
                f_res = oracles.f_graphene(w, length, er, h, cell.fermi_ev)
                q = oracles.q_chain(w, length, dl, e_eff, h, tand, f_res,
                                    ("graphene", cell.fermi_ev, cell.tau_ps))
            q_rad, q_total, cap = q[0], q[3], q[4]
            r_peak = q_total / (2 * mp.pi * f_res * cap)
            dip, bw = oracles.dip_and_bandwidth(f_res, q_total, r_peak, n_sq)
            r = cell.report
            tag = f"sweep-grid oracle ({cell.variant}, {cell.fermi_ev}, {cell.tau_ps})"
            ctx.expect(ref.rel_diff(r.resonant_frequency, float(f_res)) < 1e-12,
                       f"{tag}: f_res")
            ctx.expect(ref.rel_diff(r.efficiency, float(q_total / q_rad)) < 1e-8,
                       f"{tag}: efficiency")

            def gamma_sq(f):
                nu = f / f_res - f_res / f
                z = (r_peak / (1 + mpc(0, 1) * q_total * nu)) / n_sq
                return abs((z - oracles.Z_REF) / (z + oracles.Z_REF)) ** 2

            # The program samples the band at `points` frequencies: its dip is
            # the smallest sample, never below the continuous minimum.
            sampled_min = max(float(10 * mp.log10(min(gamma_sq(f) for f in freqs))),
                              -120.0)
            ctx.expect(abs(r.min_s11_db - sampled_min) < 1e-4,
                       f"{tag}: sampled dip {r.min_s11_db} vs {sampled_min}")
            ctx.expect(r.min_s11_db >= float(dip) - 1e-6,
                       f"{tag}: dip below the continuous minimum")
            # Each -10 dB crossing the program interpolates lies in the same
            # sample interval as the true one, so the sampled bandwidth is
            # within two sample steps of the continuous one (a resonance
            # that reaches -10 dB only between two samples reads 0 here).
            # Past a band edge the program clips the interval.
            step = (BAND[1] - BAND[0]) / (POINTS - 1)
            bw = float(bw)
            inside = (float(f_res) - bw / 2 > BAND[0]
                      and float(f_res) + bw / 2 < BAND[1])
            ctx.expect(abs(r.bandwidth_minus10db - bw) < 2 * step if inside
                       else r.bandwidth_minus10db < bw + 2 * step,
                       f"{tag}: bandwidth {r.bandwidth_minus10db} vs {bw}")

    def metrics(self):
        return {"sweep_cells_per_s": (median(self.rates), "cells/s")}


def _check_report(ctx: Context, tag: str, r, width: float) -> None:
    """Properties every antenna report has, whatever its inputs."""
    ok = ctx.expect
    ok(0.0 < r.efficiency < 1.0, f"{tag}: efficiency outside (0, 1)")
    d_closed = ref.directivity_dbi(width, r.resonant_frequency)
    ok(abs(r.directivity_dbi - d_closed) < 1e-12,
       f"{tag}: directivity off the closed form")
    ok(abs(r.gain_dbi - (r.directivity_dbi + 10 * math.log10(r.efficiency)))
       < 1e-12, f"{tag}: G != D + 10 log10(eff)")
    ok(-120.0 <= r.min_s11_db <= 0.0, f"{tag}: min S11 outside [-120, 0] dB")
    ok((r.bandwidth_minus10db == 0.0) == (r.min_s11_db > -10.0),
       f"{tag}: bandwidth is 0 exactly when the dip is shallower than -10 dB")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("thzpatch_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------- design-scan

class DesignScan(Workload):
    """Independent single designs, each through patch, circuit, materials, spp."""

    name = "design-scan"
    pool_size = 200
    batch = 50
    min_rounds = 5       # 1000 designs, so p99 has ten samples above it
    probe_rounds = 8

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(f"design-scan:{seed}")
        if smoke:
            self.pool_size, self.batch = 10, 10
            self.min_rounds = 1
        # The all-bound region: E_F 0.4-1.5 eV with tau >= 0.8 ps and
        # eps_r 2-4 binds a TM mode at every band frequency. Below about
        # 0.35 eV with tau >= 1.65 ps the asymmetric Newton solve can stall
        # (ConvergenceError) at a few frequencies, so E_F starts at 0.4 eV.
        self.pool = [dict(f0=rng.uniform(240e9, 300e9),
                          eps_r=rng.uniform(2.0, 4.0),
                          tan_d=rng.uniform(0.0005, 0.005),
                          h=rng.uniform(30e-6, 80e-6),
                          ef=rng.uniform(0.4, 1.5),
                          tau=rng.uniform(0.8e-12, 2.0e-12))
                     for _ in range(self.pool_size)]
        self.times: list[float] = []
        self.rates: list[float] = []

    def _design(self, tp, d):
        substrate = tp.SubstrateSpec(d["eps_r"], d["tan_d"], d["h"])
        sheet = tp.GrapheneSheet(d["ef"], d["tau"])
        geometry = tp.design_patch(d["f0"], substrate)
        resized = tp.patch_for_target(d["f0"], substrate, sheet)
        report = tp.gain_report(geometry, tp.ConductorSpec.graphene(sheet),
                                BAND, POINTS)
        halfspaces = tp.DielectricHalfspaces(1.0, d["eps_r"])
        modes = []
        for f in SPP_FREQS:
            w = 2 * math.pi * f
            sigma = tp.kubo_sigma(sheet, w)
            modes.append((sigma,
                          tp.spp_wavenumber_symmetric(sigma, 1.0, w),
                          tp.spp_wavenumber_asymmetric(sigma, halfspaces, w)))
        cells = tp.confinement_sweep([sheet], CONF_FREQS, 1.0)
        return geometry, resized, report, modes, cells

    def steps(self, ctx: Context) -> list:
        return [lambda k=k: self._batch(ctx, self.pool[k:k + self.batch])
                for k in range(0, len(self.pool), self.batch)]

    def _batch(self, ctx: Context, designs: list[dict]) -> float:
        tp = ctx.tp
        # Untimed designs first: a batch often follows a subprocess or an
        # FDTD step, and the first few designs after one run slow, which
        # would put a probe's 20 batch starts into its p99.
        for d in designs[:WARM_DESIGNS]:
            ctx.attempted += 1
            try:
                self._design(tp, d)
            except Exception as exc:
                ctx.fail(1, f"design {d} raised {exc!r}")
        total = 0.0
        for d in designs:
            ctx.attempted += 1
            with ctx.span("op.design"):
                t0 = cpu_clock()
                try:
                    out = self._design(tp, d)
                except Exception as exc:
                    ctx.fail(1, f"design {d} raised {exc!r}")
                    continue
                dt = cpu_clock() - t0
            total += dt
            self.times.append(dt)
            self._check(ctx, d, *out)
        if total > 0:
            self.rates.append(len(designs) / total)
        return total

    def _check(self, ctx, d, geometry, resized, report, modes, cells) -> None:
        ok = ctx.expect
        tag = "design-scan"
        w, length = ref.design(d["f0"], d["eps_r"], d["h"])
        ok(ref.rel_diff(geometry.width, w) < 1e-12
           and ref.rel_diff(geometry.length, length) < 1e-12,
           f"{tag}: W, L off the closed form")
        f_resized = ref.f_graphene(resized.width, resized.length, d["eps_r"],
                                   d["h"], d["ef"])
        # 1 kHz bisection tolerance, plus rounding of the recomputation.
        ok(resized.width == geometry.width
           and abs(f_resized - d["f0"]) <= 1e3 + 1e-12 * d["f0"],
           f"{tag}: resized patch resonates {f_resized - d['f0']:.4g} Hz "
           "off target")
        f_closed = ref.f_graphene(w, length, d["eps_r"], d["h"], d["ef"])
        ok(ref.rel_diff(report.resonant_frequency, f_closed) < 1e-12,
           f"{tag}: graphene f_res off the closed form")
        _check_report(ctx, tag, report, w)
        k0_of = 2 * math.pi / ref.C0
        for f, (sigma, sym, asym) in zip(SPP_FREQS, modes):
            s = sigma.value
            ok(ref.rel_diff(s.imag / s.real,
                            2 * math.pi * f * d["tau"]) < 1e-12,
               f"{tag}: Im/Re sigma != omega tau")
            k0 = k0_of * f
            for sol, eps_b in ((sym, 1.0), (asym, d["eps_r"])):
                q = sol.wavenumber
                ok(ref.spp_residual(q, s, f, 1.0, eps_b) < 1e-9,
                   f"{tag}: SPP dispersion residual at {f / 1e9:g} GHz")
                # Light line of the lighter (air) half-space.
                ok(q.real > k0 and q.imag > 0,
                   f"{tag}: SPP mode not bound at {f / 1e9:g} GHz")
        ok(len(cells) == len(CONF_FREQS)
           and all(c.solution is not None
                   and c.solution.wavenumber.real > k0_of * c.frequency
                   and c.solution.wavenumber.imag > 0 for c in cells),
           f"{tag}: confinement sweep cell not bound")

    def metrics(self):
        # p99 of each round's designs, then the median over rounds (at
        # least 5, so at least 1000 designs): a burst of machine noise moves
        # one round's tail, not the figure.
        n = len(self.pool)
        p99 = [quantile(self.times[k:k + n], 99)
               for k in range(0, len(self.times) - n + 1, n)]
        return {"designs_per_s": (median(self.rates), "designs/s"),
                "design_ms_p50": (median(self.times) * 1e3, "ms"),
                "design_ms_p99": (median(p99) * 1e3, "ms")}


# -------------------------------------------------------------- fdtd-refine

class FdtdRefine(Workload):
    """compare_fdtd_analytic and a 100/200/400 study per corner sheet."""

    name = "fdtd-refine"
    probe_rounds = 5

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(f"fdtd-refine:{seed}")
        corners = [(0.3, 0.3)] if smoke else [(0.3, 0.3), (0.3, 1.2),
                                              (1.2, 0.3), (1.2, 1.2)]
        # Small jitter around each corner of the (E_F, tau) grid; tau sets
        # the ring-down, so it moves the step count only slightly.
        self.sheets = [(ef * rng.uniform(0.95, 1.05),
                        tau * rng.uniform(0.97, 1.03) * 1e-12)
                       for ef, tau in corners]
        self.check_s: list[float] = []
        self.refine_s: list[float] = []

    def steps(self, ctx: Context) -> list:
        return [lambda ef=ef, tau=tau: self._sheet(ctx, ef, tau)
                for ef, tau in self.sheets]

    def _sheet(self, ctx: Context, ef: float, tau: float) -> float:
        tp = ctx.tp
        ctx.attempted += 1 + len(RESOLUTIONS)
        with ctx.span("op.fdtd_sheet"):
            try:
                sheet = tp.GrapheneSheet(ef, tau)
                t0 = cpu_clock()
                err = tp.compare_fdtd_analytic(
                    sheet, tp.Grid1D.for_resolution(200), BAND, FDTD_POINTS)
                t1 = cpu_clock()
                study = [tp.run_sheet_scattering(
                    sheet, tp.Grid1D.for_resolution(res), BAND, FDTD_POINTS)
                    for res in RESOLUTIONS]
                t2 = cpu_clock()
            except Exception as exc:
                ctx.fail(1 + len(RESOLUTIONS),
                         f"fdtd sheet ({ef}, {tau}) raised {exc!r}")
                return 0.0
        self.check_s.append(t1 - t0)
        self.refine_s.append(t2 - t1)
        self._check(ctx, ef, tau, err, study)
        return t2 - t0

    def _check(self, ctx, ef, tau, err_check, study) -> None:
        ok = ctx.expect
        tag = f"fdtd-refine ({ef:.3f} eV, {tau * 1e12:.3f} ps)"
        errors = []
        for res, result in zip(RESOLUTIONS, study):
            err = 0.0
            worst_defect = 0.0
            for f, r, t, a in zip(result.frequencies, result.reflection,
                                  result.transmission, result.absorption):
                r_exact, t_exact = ref.thin_sheet(ref.sigma(ef, tau, float(f)))
                err = max(err, abs(r - r_exact), abs(t - t_exact))
                worst_defect = max(worst_defect,
                                   abs(abs(r) ** 2 + abs(t) ** 2 + a - 1))
            errors.append(err)
            ok(err < FDTD_ERROR_LIMIT, f"{tag}: error {err:.3g} at {res}")
            ok(worst_defect < 0.01, f"{tag}: energy defect {worst_defect:.3g}")
        ok(abs(err_check - errors[1]) < 1e-9,
           f"{tag}: compare_fdtd_analytic {err_check:.6g} vs {errors[1]:.6g}")
        for coarse, fine in zip(errors, errors[1:]):
            order = math.log2(coarse / fine) if fine > 0 else float("inf")
            ok(fine < coarse and abs(order - 2.0) < 0.25,
               f"{tag}: observed order {order:.3f}, expected about 2")

    def finish(self, ctx: Context) -> None:
        tp = ctx.tp
        ctx.attempted += 1
        with ctx.span("op.fdtd_vacuum"):
            try:
                result = tp.run_drude_scattering(
                    0.0, 1e-12, tp.Grid1D.for_resolution(100), BAND, FDTD_POINTS)
            except Exception as exc:
                ctx.fail(1, f"vacuum run raised {exc!r}")
                return
        r_max = max(abs(r) for r in result.reflection)
        t_max = max(abs(t - 1) for t in result.transmission)
        ctx.expect(r_max < 1e-12 and t_max < 1e-12,
                   f"fdtd-refine vacuum run: |r| {r_max:.3g}, |t-1| {t_max:.3g}")

    def metrics(self):
        # Mean over the sheets of each round (their costs differ by about
        # 2x with tau), then the median over rounds.
        n = len(self.sheets)

        def per_round(xs):
            return median([statistics.fmean(xs[k:k + n])
                           for k in range(0, len(xs) - n + 1, n)])

        return {"fdtd_check_ms": (per_round(self.check_s) * 1e3, "ms"),
                "fdtd_refine_s": (per_round(self.refine_s), "s")}


# ------------------------------------------------------------------ cli-cold

class CliCold(Workload):
    """Every subcommand as a fresh thzpatch process, one at a time."""

    name = "cli-cold"
    probe_rounds = 3

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(f"cli-cold:{seed}")
        self.f0_ghz = float(f"{rng.uniform(250.0, 300.0):.3f}")
        self.eps_r = float(f"{rng.uniform(2.0, 4.0):.4f}")
        self.tan_d = float(f"{rng.uniform(0.0005, 0.005):.5f}")
        self.h_um = float(f"{rng.uniform(30.0, 80.0):.2f}")
        self.ef = float(f"{rng.uniform(0.4, 1.5):.4f}")   # as design-scan
        self.tau_ps = float(f"{rng.uniform(0.8, 2.0):.4f}")
        self.times: list[float] = []
        self.peak_kib = 0          # largest thzpatch process so far

    def commands(self, tmp: str) -> list[tuple[str, list[str]]]:
        substrate = ["--er", f"{self.eps_r}", "--tand", f"{self.tan_d}",
                     "--h", f"{self.h_um}um"]
        sheet = ["--ef", f"{self.ef}eV", "--tau", f"{self.tau_ps}ps"]
        f0 = ["--f0", f"{self.f0_ghz}GHz"]
        return [
            ("design", ["design", *f0, *substrate, "--format", "json"]),
            ("analyze", ["analyze", *f0, *substrate, *sheet, "--format", "json"]),
            ("spp", ["spp", *sheet, "--eps-above", "1",
                     "--eps-below", f"{self.eps_r}", "--format", "csv"]),
            ("resize", ["resize", *f0, *substrate, *sheet, "--format", "json"]),
            ("fdtd-check", ["fdtd-check", *sheet, "--out",
                            os.path.join(tmp, "fdtd.csv")]),
            ("sweep", ["sweep", "paper.cfg", "--out",
                       os.path.join(tmp, "paper")]),
        ]

    def steps(self, ctx: Context) -> list:
        return [lambda name=name, args=args: self._command(ctx, name, args)
                for name, args in self.commands(ctx.tmp)]

    def _command(self, ctx: Context, name: str, args: list[str]) -> float:
        ctx.attempted += 1
        argv = [sys.executable, "-c", CLI_LAUNCHER, ctx.src, *args]
        with ctx.span(f"cli.{name}"):
            t0 = children_cpu()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, cwd=ctx.root,
                                    env=ctx.env, text=True)
            try:
                out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                ctx.fail(1, f"thzpatch {name} timed out")
                return 0.0
            dt = children_cpu() - t0       # the command's own CPU time
        err, _, peak = err.rpartition(f"\n{PEAK_TAG} ")
        if peak.strip().isdigit():
            self.peak_kib = max(self.peak_kib, int(peak))
        else:
            err += peak
        if proc.returncode != 0 or "Traceback" in err:
            ctx.fail(1, f"thzpatch {name} exited {proc.returncode}: "
                     f"{err.strip()[-300:]}")
            return 0.0
        self.times.append(dt)
        try:
            self._check(ctx, name, out)
        except (ValueError, KeyError, OSError) as exc:
            ctx.expect(False, f"cli-cold {name}: unreadable output {exc!r}")
        return dt

    def _check(self, ctx: Context, name: str, out: str) -> None:
        ok = ctx.expect
        er, h = self.eps_r, self.h_um * 1e-6
        f0 = self.f0_ghz * 1e9
        w, length = ref.design(f0, er, h)
        tag = f"cli-cold {name}"
        if name == "design":
            rec = json.loads(out)
            ok(ref.rel_diff(rec["W_um"], w * 1e6) < 1e-8
               and ref.rel_diff(rec["L_um"], length * 1e6) < 1e-8
               and ref.rel_diff(rec["f_res_GHz"], self.f0_ghz) < 1e-8,
               f"{tag}: values off the closed form")
        elif name == "analyze":
            rec = json.loads(out)
            f_res = ref.f_graphene(w, length, er, h, self.ef)
            ok(ref.rel_diff(rec["f_res_GHz"], f_res / 1e9) < 1e-8,
               f"{tag}: f_res off the closed form")
            ok(abs(rec["D_dBi"] - ref.directivity_dbi(w, f_res)) < 1e-7,
               f"{tag}: directivity off the closed form")
            ok(0 < rec["eff"] < 1 and abs(
                rec["G_dBi"] - rec["D_dBi"] - 10 * math.log10(rec["eff"])) < 1e-7,
               f"{tag}: G != D + 10 log10(eff)")
            ok((rec["bw_GHz"] == 0) == (rec["min_s11_dB"] > -10),
               f"{tag}: bandwidth vs dip depth")
        elif name == "spp":
            rows = list(csv.DictReader(out.splitlines()))
            ok(len(rows) == len(SPP_FREQS), f"{tag}: {len(rows)} rows")
            ok(all(float(r["q_im_rad_per_m"]) > 0 and float(r["q_re_rad_per_m"])
                   > 2 * math.pi * float(r["freq_GHz"]) * 1e9 / ref.C0
                   for r in rows), f"{tag}: mode not bound")
        elif name == "resize":
            rec = json.loads(out)
            ok(abs(rec["f_res_GHz"] - self.f0_ghz) <= 2e-6,
               f"{tag}: f_res {rec['f_res_GHz']} GHz, target {self.f0_ghz}")
            ok(rec["L_resized_um"] < rec["L_metal_um"]
               and ref.rel_diff(rec["W_um"], w * 1e6) < 1e-8,
               f"{tag}: resized geometry")
        elif name == "fdtd-check":
            err = float(out.split("=", 1)[1])
            ok(err < FDTD_ERROR_LIMIT, f"{tag}: max_abs_error {err}")
            with open(os.path.join(ctx.tmp, "fdtd.csv")) as fh:
                rows = list(csv.DictReader(fh))
            ok(len(rows) == FDTD_POINTS, f"{tag}: --out has {len(rows)} rows")
        elif name == "sweep":
            cells = paper_cells(os.path.join(ctx.root, "paper.cfg"))
            with open(os.path.join(ctx.tmp, "paper_spectra.csv")) as fh:
                n_spectra = sum(1 for _ in fh) - 1
            with open(os.path.join(ctx.tmp, "paper_summary.csv")) as fh:
                n_summary = sum(1 for _ in fh) - 1
            ok(n_spectra == cells * POINTS and n_summary == cells,
               f"{tag}: {n_spectra} / {n_summary} rows for {cells} cells")

    def metrics(self):
        return {"cli_ms_p50": (median(self.times) * 1e3, "ms")}


def paper_cells(path: str) -> int:
    """Cells of a sweep config, counted without the package's parser."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0]
            if "=" in line:
                key, value = (s.strip() for s in line.split("=", 1))
                values[key] = value

    def count(text: str) -> int:
        body = text.rstrip("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ ")
        if ":" in body:
            start, stop, step = (float(x) for x in body.split(":"))
            return round((stop - start) / step) + 1
        return len(body.split(","))

    variants = [v.strip() for v in values["variants"].split(",")]
    graphene = ("graphene" in variants) * count(values["fermi_levels"]) * count(
        values["relaxation_times"])
    return ("metal" in variants) + graphene


WORKLOADS = {cls.name: cls for cls in (SweepGrid, DesignScan, FdtdRefine,
                                       CliCold)}
