"""In-memory span tracer that instruments the cauchyls package from outside.

The tracer replaces public functions and methods of each layer with thin
wrappers that record one span per call: (name, start, end, parent). Spans
live in flat arrays while the run goes on and are written once at the end.
A function that other modules re-bind with ``from .module import name`` is
replaced in every module that holds it, otherwise those calls go unseen.

Per-layer metrics follow the span names: ``<span>.count`` is calls per op,
``<span>.s`` inclusive seconds per op and ``<span>.self_s`` seconds per op
minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PACKAGE = "cauchyls"

# (span name, module, attribute or Class.method); several callables may
# share one span name
INSTRUMENTED = (
    ("pde.factorize", "pde", "MixedSolver.__init__"),
    ("pde.solve", "pde", "MixedSolver.solve"),
    ("operator.forward", "operator", "apply_forward"),
    ("operator.adjoint", "operator", "apply_adjoint"),
    ("operator.offset", "operator", "compute_offset_z"),
    ("data.synthesize", "data", "synthesize_cauchy_data"),
    ("data.noise", "data", "with_noise"),
    ("data.norm", "data", "l2_norm_trace"),
    ("levelset.helmholtz", "levelset", "solve_helmholtz_neumann"),
    ("levelset.curvature", "levelset", "curvature_term"),
    ("levelset.heaviside", "levelset", "smoothed_heaviside"),
    ("levelset.heaviside", "levelset", "smoothed_heaviside_deriv"),
    ("levelset.heaviside", "levelset", "sharp_indicator"),
    ("levelset.components", "levelset", "component_count"),
    ("grid.trace", "grid", "TraceFn.__post_init__"),
    ("tikhonov.step", "tikhonov", "tikhonov_step"),
    ("tikhonov.loop", "tikhonov", "run_tikhonov"),
    ("transport.velocity", "transport", "front_velocity"),
    ("transport.step", "transport", "transport_step"),
    ("transport.upwind", "transport", "upwind_step"),
    ("transport.loop", "transport", "run_transport"),
    ("record.observe", "record", "observe"),
    ("record.record", "record", "RunRecord.record"),
    ("experiments.prepare", "experiments", "prepare"),
    ("experiments.execute", "experiments", "execute"),
    ("experiments.write", "experiments", "write_run_outputs"),
    ("config.parse", "config", "parse_config"),
)

OP_SPAN = "op"


class Tracer:
    """Span store; spans are appended in start order, parents by index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_index(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Write every span once, as arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int32))


def _wrap(tracer: Tracer, fn, name: str):
    nid = tracer.name_index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every INSTRUMENTED callable for the duration of the block."""
    importlib.import_module(PACKAGE)
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    undo = []
    for span_name, mod_name, attr in INSTRUMENTED:
        mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, orig, span_name))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(mod, attr)
        wrapped = _wrap(tracer, orig, span_name)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))
    try:
        yield tracer
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)


@dataclass(frozen=True)
class TracedOp:
    """Span index range [lo, hi) of one traced op and its iteration count."""

    lo: int
    hi: int
    iterations: int


def layer_metrics(tracer: Tracer, ops: list[TracedOp]) -> dict[str, float]:
    """Per-op and per-iteration layer figures over the traced ops.

    Returns '<span>.count', '<span>.s' and '<span>.self_s' for every span
    name, plus the per-iteration ratios measured inside execute().
    """
    n = len(tracer)
    name_id = np.array(tracer.name_id, dtype=np.int64)
    start = np.array(tracer.start, dtype=np.int64)
    end = np.array(tracer.end, dtype=np.int64)
    parent = np.array(tracer.parent, dtype=np.int64)
    dur = (end - start) * 1e-9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_s = dur - child

    in_ops = np.zeros(n, dtype=bool)
    for op in ops:
        in_ops[op.lo:op.hi] = True
    n_ops = max(len(ops), 1)
    k = len(tracer.names)
    ids = name_id[in_ops]
    counts = np.bincount(ids, minlength=k)
    incl = np.bincount(ids, weights=dur[in_ops], minlength=k)
    excl = np.bincount(ids, weights=self_s[in_ops], minlength=k)

    out: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        out[f"{name}.count"] = float(counts[i]) / n_ops
        out[f"{name}.s"] = float(incl[i]) / n_ops
        out[f"{name}.self_s"] = float(excl[i]) / n_ops

    # counts inside execute(): its subtree is the contiguous index range
    # from the execute span up to the first later span that starts after it
    exec_id = tracer.name_index("experiments.execute")
    exec_counts = np.zeros(k)
    iterations = sum(op.iterations for op in ops)
    for op in ops:
        rows = np.flatnonzero(name_id[op.lo:op.hi] == exec_id) + op.lo
        for r in rows:
            hi = r + 1 + int(np.searchsorted(start[r + 1:op.hi], end[r],
                                             side="right"))
            exec_counts += np.bincount(name_id[r:hi], minlength=k)

    def per_iter(span: str) -> float:
        return exec_counts[tracer.name_index(span)] / iterations \
            if iterations else 0.0

    out["operator.solves_per_iter"] = per_iter("pde.solve")
    out["grid.traces_per_iter"] = per_iter("grid.trace")
    steps = counts[tracer.name_index("transport.step")]
    out["transport.substeps_per_iter"] = (
        float(counts[tracer.name_index("transport.upwind")] / steps)
        if steps else 0.0)
    return out
