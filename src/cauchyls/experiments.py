"""End-to-end run pipeline, output writers and the built-in experiments.

Each experiment is an ordinary RunConfig. Data is always synthesized on a
refine-times finer nested grid so the inversion never commits the inverse
crime, and noise (when requested) is calibrated to the exact relative level
before the run starts. The noise-free part of a setup is built once per
geometry and process (exact_problem), so runs that differ only in their
noise share it.
"""

from __future__ import annotations

import os
import re
from itertools import chain
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import (METHOD_TIKHONOV, METHOD_TRANSPORT, ConfigError,
                     Interval, RunConfig)
from .data import l2_norm_trace, synthesize_cauchy_data, with_noise
from .grid import GAMMA1, GAMMA2, Grid, TraceFn, build_grid, zero_trace
from .levelset import init_levelset, interval_mask
from .operator import (GRID_CACHE_SIZE, CauchyData, OperatorContext,
                       operator_context)
from .record import RunRecord
from .tikhonov import STEP_IMPLICIT, run_tikhonov
from .transport import run_transport

OUTPUT_ROOT_ENV = "CAUCHYLS_OUTPUT_ROOT"

EXPERIMENT_NAMES = ("exp1", "exp2", "exp3")


def indicator_trace(grid: Grid, intervals) -> TraceFn:
    """Nodal indicator of a union of intervals on the top edge."""
    return TraceFn(grid, GAMMA2, interval_mask(grid.xs, intervals).astype(float))


@dataclass(frozen=True)
class RunSetup:
    """Everything a method run needs, derived from one RunConfig. phi0,
    truth and the data's g1 and z (g2 too on exact data) are the shared,
    read-only arrays of exact_problem."""

    cfg: RunConfig
    grid: Grid
    ctx: OperatorContext
    data: CauchyData
    phi0: TraceFn
    truth: TraceFn
    eps: float


@lru_cache(maxsize=GRID_CACHE_SIZE)
def exact_problem(grid: Grid, refine: int,
                  truth_intervals: tuple[Interval, ...],
                  init_intervals: tuple[Interval, ...],
                  eps: float) -> tuple[CauchyData, TraceFn, TraceFn]:
    """The noise-free part of a run on grid: the exact Cauchy data,
    synthesized on the refine-times finer grid, the truth and phi0.

    Built once per process for the last GRID_CACHE_SIZE keys, so a sweep
    over noise seeds and levels builds it once; an exception is not kept,
    so it raises again on the next call. Every array is read-only, since
    all runs of a key share them, as all runs of a grid share its
    OperatorContext. The contexts stay with operator_context alone.
    """
    fine = build_grid(grid.width, grid.height, grid.nx * refine,
                      grid.ny * refine)
    data = synthesize_cauchy_data(indicator_trace(fine, truth_intervals),
                                  zero_trace(fine, GAMMA1),
                                  operator_context(fine),
                                  operator_context(grid))
    truth = indicator_trace(grid, truth_intervals)
    phi0 = init_levelset(grid, init_intervals, eps)
    for t in (data.g1, data.g2, data.z, truth, phi0):
        t.values.setflags(write=False)
    return data, truth, phi0


def prepare(cfg: RunConfig) -> RunSetup:
    """Set up cfg's run: the grid's cached context, the cached
    exact_problem and, for noise_level > 0, the noisy data."""
    grid = build_grid(cfg.width, cfg.height, cfg.nx, cfg.ny)
    ctx = operator_context(grid)
    eps = cfg.eps_cells * grid.hx
    data, truth, phi0 = exact_problem(grid, cfg.refine, cfg.truth_intervals,
                                      cfg.init_intervals, eps)
    if cfg.noise_level > 0:
        data = with_noise(data, cfg.noise_level, cfg.seed)
    return RunSetup(cfg=cfg, grid=grid, ctx=ctx, data=data, phi0=phi0,
                    truth=truth, eps=eps)


def execute(setup: RunSetup) -> RunRecord:
    cfg = setup.cfg
    run, params = ((run_tikhonov, cfg.tikhonov_params())
                   if cfg.method == METHOD_TIKHONOV
                   else (run_transport, cfg.transport_params()))
    return run(setup.phi0, setup.data, setup.ctx, params, truth=setup.truth,
               snapshot_iters=cfg.snapshot_iters)


def run_config(cfg: RunConfig) -> tuple[RunRecord, RunSetup]:
    setup = prepare(cfg)
    return execute(setup), setup


# -- output writing ----------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def resolve_output_dir(cfg: RunConfig) -> Path:
    """Config directory, relative paths anchored at the env root if set."""
    p = Path(cfg.output_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not p.is_absolute():
        p = Path(root) / p
    return p


def write_text_file(path: Path, text: str) -> None:
    """Write text to path in place, the one write path of every output file.

    The file is opened without O_TRUNC and cut at the end of the new bytes,
    so an existing file is never first truncated to zero length, which on
    ext4 (auto_da_alloc) starts writing out the old data. A crash mid-write
    can leave a mix of old and new bytes.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode())
        f.truncate()


HISTORY_HEADER = "iter,residual,error,components"
SNAPSHOT_HEADER = "x,phi,q"
SIGMA_HEADER = "k,sigma"
# floats with 17 significant digits, as _fmt: reruns are byte-identical;
# each table is one % format of its row format repeated over the flat values
HISTORY_ROW = "%d,%.17g,%.17g,%d\n"
# a snapshot row: the node coordinate's text (node_text), phi and q
SNAPSHOT_ROW = "%s,%.17g,%.17g\n"
SIGMA_ROW = "%d,%.17g\n"
SNAPSHOT_NAME = re.compile(r"snapshot_\d+\.csv")


def _table(header: str, row: str, *columns) -> str:
    flat = tuple(chain.from_iterable(zip(*columns)))
    return header + "\n" + row * (len(flat) // len(columns)) % flat


def history_csv(record: RunRecord) -> str:
    n = len(record.residuals)
    errors = record.errors if record.errors is not None else [np.nan] * n
    return _table(HISTORY_HEADER, HISTORY_ROW, range(n), record.residuals,
                  errors, record.components)


@lru_cache(maxsize=GRID_CACHE_SIZE)
def node_text(grid: Grid) -> tuple[str, ...]:
    """The _fmt text of grid's top-edge node coordinates, formatted once
    per grid for every snapshot written on it."""
    return tuple(map(_fmt, grid.xs.tolist()))


def snapshot_csv(grid: Grid, phi: np.ndarray, q: np.ndarray) -> str:
    return _table(SNAPSHOT_HEADER, SNAPSHOT_ROW, node_text(grid),
                  phi.tolist(), q.tolist())


def sigma_csv(sigma: np.ndarray) -> str:
    return _table(SIGMA_HEADER, SIGMA_ROW, range(1, len(sigma) + 1),
                  sigma.tolist())


def summary_text(record: RunRecord, setup: RunSetup) -> str:
    """key = value lines: the run's inputs, record.rows, the stop and the
    timing. Floats print as _fmt, other values as they are."""
    cfg = setup.cfg
    rows = {
        "method": cfg.method,
        "nx": cfg.nx,
        "ny": setup.grid.ny,
        "width": cfg.width,
        "height": cfg.height,
        "refine": cfg.refine,
        "noise_level": cfg.noise_level,
        "seed": cfg.seed,
        "delta": setup.data.delta,
        "eps": setup.eps,
        **record.rows,
        "stop_reason": record.stop_reason,
        "stop_iteration": record.stop_iteration,
        "final_residual": record.residuals[-1],
        "final_error": record.errors[-1] if record.errors else np.nan,
        "final_components": record.components[-1],
        "residual_evaluations": record.residual_evaluations,
        "wall_time_s": f"{record.wall_time:.3f}",
        "iters_per_s": (f"{record.stop_iteration / record.wall_time:.1f}"
                        if record.wall_time > 0 else "nan"),
    }
    return "".join(f"{k} = {_fmt(v) if isinstance(v, float) else v}\n"
                   for k, v in rows.items())


def write_run_outputs(record: RunRecord, setup: RunSetup,
                      out_dir: Path | None = None) -> Path:
    """Write history.csv, the snapshots and summary.txt into the output
    directory, and remove the snapshot_<k>.csv files this run did not
    write, so a rerun leaves no stale snapshot behind."""
    out = out_dir if out_dir is not None else resolve_output_dir(setup.cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_text_file(out / "history.csv", history_csv(record))
    written = set()
    for k, (phi, q) in sorted(record.snapshots.items()):
        name = f"snapshot_{k}.csv"
        write_text_file(out / name, snapshot_csv(setup.grid, phi, q))
        written.add(name)
    with os.scandir(out) as entries:
        stale = [e.path for e in entries
                 if SNAPSHOT_NAME.fullmatch(e.name) and e.name not in written
                 and not e.is_dir(follow_symlinks=False)]
    for path in stale:
        os.unlink(path)
    write_text_file(out / "summary.txt", summary_text(record, setup))
    return out


def write_svd_outputs(grid: Grid, sigma: np.ndarray, slope: float,
                      out: Path) -> Path:
    """Write sigma.csv and svd_summary.txt of `cauchyls svd` into out."""
    out.mkdir(parents=True, exist_ok=True)
    write_text_file(out / "sigma.csv", sigma_csv(sigma))
    write_text_file(out / "svd_summary.txt",
                    f"nx = {grid.nx}\n"
                    f"ny = {grid.ny}\n"
                    f"height = {_fmt(grid.height)}\n"
                    f"decay_slope = {_fmt(slope)}\n"
                    f"reference_slope = {_fmt(-np.pi * grid.height)}\n")
    return out


# -- built-in experiments ----------------------------------------------------

def exp1_config() -> RunConfig:
    """Two inclusions from one seed: topology change under exact data.

    The seed interval sits inside the left inclusion; the iterate has to
    grow it and nucleate the right one through the smeared-band dynamics.
    The implicit step does that inside the starting 4-cell band, where the
    gradient step only ever fits the low modes (a gray ramp at the wall).
    Band rule: each time the flow stalls the band halves, 4 -> 2 -> 1 ->
    1/2 -> 1/4 cells, about the mid-level set {q > 1/2}. A 4-cell band
    holds gray edge nodes and errors near 0.14 even at the truth; at a
    quarter cell a node stays gray only within 1/8 cell of a front, so the
    iterate can end binary and the target error can fire. Exact data needs
    no TV penalty, and its explicit curvature source would outweigh the
    misfit in the implicit step, so beta is 0.
    """
    return RunConfig(
        height=0.5, nx=64, refine=2, method=METHOD_TIKHONOV,
        alpha=1e-3, beta=0.0, eps_cells=4.0, eps_min_cells=0.25,
        step=STEP_IMPLICIT,
        truth_intervals=((0.2, 0.4), (0.6, 0.8)),
        init_intervals=((0.25, 0.35),),
        max_iters=20000, target_error=0.03,
        output_dir="runs/exp1",
        snapshot_iters=(0, 100, 1000, 5000, 20000),
    )


# residual threshold shared by the exp2 pair, relative to ||rhs||
EXP2_REL_RESIDUAL = 1e-3


def exp2_config(height: float) -> RunConfig:
    """Single inclusion at a given strip height, exact data."""
    return RunConfig(
        height=height, nx=64, refine=2, method=METHOD_TIKHONOV,
        alpha=100.0, beta=1e-3, eps_cells=4.0,
        truth_intervals=((0.3, 0.7),),
        init_intervals=((0.45, 0.55),),
        max_iters=3000,
        output_dir=f"runs/exp2_h{height:g}",
        snapshot_iters=(0, 100, 1000),
    )


def exp3_config() -> RunConfig:
    """The shallow exp2 problem with 10 percent noise and discrepancy stop.

    Same geometry and seed interval as exp2; a smaller alpha takes larger
    steps so the discrepancy stop lands well inside the target band instead
    of a hair past the threshold.
    """
    base = exp2_config(0.5)
    return replace(base, alpha=15.0, noise_level=0.1, seed=20130, tau=1.5,
                   max_iters=20000, output_dir="runs/exp3",
                   snapshot_iters=(0, 100))


def transport_benchmark_config() -> RunConfig:
    """Exact-data single-inclusion run for the transport method.

    Stops at a small target error: the front lands exactly on the truth
    nodes, after which the upwind steps jitter around the fixed point
    without a stopping rule of their own.
    """
    base = exp2_config(0.5)
    return replace(base, method=METHOD_TRANSPORT, dt=0.5,
                   max_iters=5000, target_error=5e-3,
                   output_dir="runs/transport_benchmark")


def iterations_to_relative_residual(record: RunRecord, data: CauchyData,
                                    rel: float) -> int | None:
    """First recorded iteration with residual <= rel * ||rhs||, if any."""
    threshold = rel * l2_norm_trace(data.rhs)
    for k, res in enumerate(record.residuals):
        if res <= threshold:
            return k
    return None


def run_experiment(name: str) -> str:
    """Run a built-in experiment, write its outputs, return a summary line."""
    if name == "exp2":
        counts = {}
        for height in (1.0, 0.5):
            record, setup = run_config(exp2_config(height))
            out = write_run_outputs(record, setup)
            counts[height] = iterations_to_relative_residual(
                record, setup.data, EXP2_REL_RESIDUAL)
        c1, c05 = counts[1.0], counts[0.5]
        ratio = f"{c1 / c05:.6g}" if c1 is not None and c05 else "nan"
        write_text_file(
            out.parent / "exp2_comparison.txt",
            f"relative_residual_threshold = {EXP2_REL_RESIDUAL}\n"
            f"iters_height_1.0 = {c1}\niters_height_0.5 = {c05}\n"
            f"ratio = {ratio}\n")
        return (f"exp2: iters to {EXP2_REL_RESIDUAL:g}*||rhs||: "
                f"h=0.5 {c05}, h=1.0 {c1}")
    if name not in EXPERIMENT_NAMES:
        raise ConfigError(f"unknown experiment {name!r}, "
                          f"choose from {', '.join(EXPERIMENT_NAMES)}")
    record, setup = run_config(exp1_config() if name == "exp1"
                               else exp3_config())
    write_run_outputs(record, setup)
    line = (f"{name}: stop {record.stop_reason}@{record.stop_iteration}, "
            f"residual {record.residuals[-1]:.4g}")
    if name == "exp1":
        comps = record.components
        line += f", split at iter {comps.index(2) if 2 in comps else None}"
    else:
        line += f" (tau*delta {setup.cfg.tau * setup.data.delta:.4g})"
    return line + (f", error {record.errors[-1]:.4f}, "
                   f"{record.wall_time:.1f}s")

