"""Tests of the benchmark itself, at its smoke size (seconds per run).

    python3 -m pytest bench/test_smoke.py

Every workload runs once untraced and the traced mode once, with the same
output checks as a measured run; the printed metric names and units must
be those in BENCHMARK.json. Two tests break a package function on purpose
and expect the checks to notice, and one runs the benchmark without the
package beside it and expects it to refuse.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_checks_and_reports_end_to_end(workload):
    result = result_of(bench(workload, 0))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    result = result_of(bench("design-scan", 1))
    assert_metrics(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Smoke grid: 3 x 3 graphene cells plus metal, 5 integrals per cell.
    assert metrics["circuit.mutual_ratio.calls"] == 50
    assert metrics["circuit.mutual_ratio.distinct"] == 4
    assert metrics["materials.kubo_sigma.calls"] == 30


@pytest.fixture
def scratch(request):
    """A directory inside the checkout, like the benchmark's own scratch."""
    path = os.path.join(ROOT, ".bench_tmp", f"test-{os.getpid()}-"
                        f"{request.node.name}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path)


@pytest.fixture
def ctx(scratch):
    tp = run.import_package()
    from workloads import Context
    return Context(tp, ROOT, scratch)


def test_checks_catch_a_wrong_conductivity(ctx, monkeypatch):
    from workloads import DesignScan
    real = ctx.tp.kubo_sigma

    def skewed(sheet, w, *rest):
        s = real(sheet, w, *rest)
        return type(s)(s.real_part * 1.001, s.imag_part)

    monkeypatch.setattr(ctx.tp, "kubo_sigma", skewed)
    for step in DesignScan(7, smoke=True).steps(ctx):
        step()
    assert any("omega tau" in p for p in ctx.problems)


def test_checks_catch_a_wrong_output_file(ctx, monkeypatch):
    from workloads import SweepGrid
    real = ctx.tp.emit

    def lossy(results, fmt, path):
        real(results[:-1], fmt, path)

    monkeypatch.setattr(ctx.tp, "emit", lossy)
    for step in SweepGrid(7, smoke=True).steps(ctx):
        step()
    assert any("rows" in p for p in ctx.problems)


def test_refuses_to_run_without_the_package(scratch):
    shutil.copytree(HERE, os.path.join(scratch, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    proc = bench("sweep-grid", 0, cwd=scratch)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
