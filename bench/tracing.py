"""Span tracing from outside the package.

The traced run replaces the package's public functions, in every thzpatch
module that binds them, with wrappers that record a span per call: its
name, start, end and parent span. Nothing under src/ changes; the wrappers
are removed again when the traced part of the run ends.

Spans are kept in memory in flat arrays and written out once, at the end,
as an .npz file. Per-layer figures are derived from them afterwards:
inclusive time per call, self time per layer (a span's duration minus the
time its direct children cover), and call counts attributed to the
benchmark operation that caused them.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("materials", "spp", "patch", "circuit", "fdtd", "sweep", "config",
          "cli")

# (module, function) pairs wrapped in a traced run. Small helpers that the
# bisection calls tens of times per design (f_res_metal,
# patch_from_dimensions) stay unwrapped to keep the overhead down; their
# time counts as self time of the caller.
WRAPPED = {
    "materials": ("kubo_sigma", "sheet_impedance", "drude_weight"),
    "spp": ("spp_wavenumber_symmetric", "spp_wavenumber_asymmetric",
            "confinement_sweep"),
    "patch": ("design_patch", "patch_for_target"),
    "circuit": ("graphene_resonance", "mutual_conductance_ratio",
                "q_factors", "s11_spectrum", "bandwidth_minus10db",
                "gain_report"),
    "fdtd": ("run_sheet_scattering", "run_drude_scattering",
             "analytic_sheet_coefficients", "compare_fdtd_analytic"),
    "sweep": ("run_sweep", "emit"),
    "config": ("parse_config",),
}


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.attr = array("d")     # a number a span carries (work, key id)
        self.keys: dict[object, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str, attr: float = 0.0) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.attr.append(attr)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def key_id(self, key: object) -> int:
        """A small integer per distinct argument key (for distinct counts)."""
        return self.keys.setdefault(key, len(self.keys))

    def wrap(self, name, fn, name_of=None, attr_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if name_of is None else name_of(args, kwargs)
            attr = 0.0 if attr_of is None else attr_of(args, kwargs)
            idx = tracer.open(span, attr)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    def install(self, naming: dict) -> None:
        """Wrap every WRAPPED function wherever a thzpatch module binds it.

        naming maps a function name to (name_of, attr_of) callables for the
        functions whose span name or number depends on the arguments.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "thzpatch" or n.startswith("thzpatch.")]
        for layer, funcs in WRAPPED.items():
            home = sys.modules[f"thzpatch.{layer}"]
            for fname in funcs:
                original = getattr(home, fname)
                name_of, attr_of = naming.get(fname, (None, None))
                wrapper = self.wrap(f"{layer}.{fname}", original, name_of,
                                    attr_of)
                for mod in modules:
                    for attr_name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr_name, wrapper)
                            self._patched.append((mod, attr_name, original))

    def uninstall(self) -> None:
        for mod, attr_name, original in reversed(self._patched):
            setattr(mod, attr_name, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent), attr=np.array(self.attr))


class SpanTable:
    """Read-only view of a finished trace for computing per-layer figures."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.attr = np.frombuffer(tracer.attr, dtype=np.float64)
        start = np.frombuffer(tracer.start, dtype=np.float64)
        self.dur = np.frombuffer(tracer.end, dtype=np.float64) - start
        n = len(self.dur)
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        # Nearest enclosing benchmark operation ("op.*" span) of each span.
        is_op = np.array([nm.startswith("op.") for nm in self.names],
                         dtype=bool)[self.name_id] if n else np.zeros(0, bool)
        parent = self.parent.tolist()
        is_op_list = is_op.tolist()
        op = [-1] * n
        for i in range(n):     # a parent always precedes its children
            if is_op_list[i]:
                op[i] = i
            elif parent[i] >= 0:
                op[i] = op[parent[i]]
        self.op = np.array(op, dtype=np.int64)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def mean_us(self, name: str) -> float:
        m = self.mask(name)
        return float(self.dur[m].mean() * 1e6) if m.any() else float("nan")

    def under(self, name: str, op_name: str) -> np.ndarray:
        """Mask of `name` spans whose enclosing operation is `op_name`."""
        ops = self.mask(op_name)
        m = self.mask(name) & (self.op >= 0)
        m[m] = ops[self.op[m]]
        return m

    def child_count(self, name: str, parent_name: str) -> np.ndarray:
        """Per `parent_name` span: how many direct `name` children it has."""
        parents = np.flatnonzero(self.mask(parent_name))
        kids = self.parent[self.mask(name) & (self.parent >= 0)]
        return np.bincount(kids, minlength=len(self.dur))[parents]

    def layer_self(self) -> dict[str, tuple[float, int]]:
        """Self seconds and span count of each layer."""
        layer_of = np.array([nm.split(".", 1)[0] for nm in self.names])
        out = {}
        for layer in LAYERS:
            ids = np.flatnonzero(layer_of == layer) if self.names else []
            m = np.isin(self.name_id, ids)
            out[layer] = (float(self.self_time[m].sum()), int(m.sum()))
        return out
