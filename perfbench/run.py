"""Closed-loop benchmark of cauchyls reconstructions.

    python3 perfbench/run.py --workload noisy_sweep --seed 1 \
        --seconds 30 --trace 0

One process runs one reconstruction ("op") at a time, each through the
package's public path: parse_config -> prepare -> execute ->
write_run_outputs, the sequence `cauchyls solve` runs. Ops start until
--seconds have passed; every op is checked (see checks.py). The last line
of stdout is one JSON object with the end-to-end metrics (--trace 0) or
the per-layer metrics of BENCHMARK.json (--trace 1). A traced run
alternates untraced and traced rounds, so the tracing overhead is measured
under the same load. Spans of the traced ops go to .bench_out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# one calibration kernel timing per this many seconds of run, taken
# between ops, at most CALIBRATION_BURST at once
CALIBRATION_PERIOD_S = 0.25
CALIBRATION_BURST = 10


@dataclass
class OpResult:
    kind: str
    ref_key: str
    setup_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    iterations: int = 0
    bytes_written: int = 0
    traced: bool = False
    completed: bool = False
    failed: bool = True
    outcome: dict | None = None


def run_op(res: OpResult, text: str, config, experiments):
    """Time one op through the public path into res.

    The modules are passed in and their functions looked up per call, so
    that traced rounds see the instrumented functions.
    """
    t0 = time.perf_counter()
    cfg = config.parse_config(text)
    t1 = time.perf_counter()
    setup = experiments.prepare(cfg)
    t2 = time.perf_counter()
    record = experiments.execute(setup)
    t3 = time.perf_counter()
    out = experiments.write_run_outputs(record, setup)
    t4 = time.perf_counter()
    res.setup_s, res.solve_s, res.total_s = t2 - t1, t3 - t2, t4 - t0
    res.iterations = record.stop_iteration
    res.bytes_written = sum(p.stat().st_size for p in out.iterdir())
    res.completed = True
    return record, setup


def _per_kind(results, field: str, stat, scale: float = 1.0) -> float:
    """stat of a time field within each op kind, averaged over the kinds
    and multiplied by scale."""
    kinds = sorted({r.kind for r in results})
    return scale * statistics.fmean(
        stat([getattr(r, field) for r in results if r.kind == k])
        for k in kinds)


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(done: list[OpResult], scale: float) -> dict[str, float]:
    """End-to-end metrics; times are multiplied by the run's scale."""
    return {
        "setup_s": _per_kind(done, "setup_s", statistics.median, scale),
        "solve_s": _per_kind(done, "solve_s", statistics.median, scale),
        "iters_per_s": sum(r.iterations for r in done)
        / (scale * sum(r.solve_s for r in done)),
        "recon_s": _per_kind(done, "total_s", statistics.median, scale),
        "recon_s_p90": _per_kind(done, "total_s", _p90, scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def prepare_environment() -> None:
    """Pin BLAS to one thread and make the sources importable.

    Ops run one at a time on a 2-CPU box. Must run before numpy is first
    imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def run_rounds(workload: str, seed: int, seconds: float, min_rounds: int,
               tracer, reference: dict):
    """Run rounds of ops until `seconds` have passed and at least
    `min_rounds` rounds are done; with a tracer every second round is
    traced. Returns the op results (raw wall times), the traced ops' span
    ranges and the speedometer that scales them (see calibrate.py)."""
    import checks
    import tracing
    from calibrate import Speedometer
    from cauchyls import config, experiments

    run_dir = OUT_ROOT / f"{workload}-{os.getpid()}"
    rounds = WORKLOADS[workload].rounds(seed, run_dir)
    results: list[OpResult] = []
    traced_ops: list[tracing.TracedOp] = []
    speed = Speedometer(WORKLOADS[workload].kernel, CALIBRATION_PERIOD_S,
                        CALIBRATION_BURST)
    start = time.perf_counter()
    speed.sample(force=True)
    n_round = 0
    try:
        while n_round < min_rounds or \
                time.perf_counter() - start < seconds:
            traced = tracer is not None and n_round % 2 == 1
            for spec in next(rounds):
                res = OpResult(kind=spec.kind, ref_key=spec.ref_key,
                               traced=traced)
                try:
                    if traced:
                        with tracing.instrument(tracer):
                            lo = len(tracer)
                            with tracer.span(tracing.OP_SPAN):
                                record, setup = run_op(
                                    res, spec.text, config, experiments)
                            traced_ops.append(tracing.TracedOp(
                                lo, len(tracer), res.iterations))
                    else:
                        record, setup = run_op(res, spec.text, config,
                                               experiments)
                    res.outcome = checks.outcome(record)
                    problems = checks.check_op(record, setup,
                                               reference.get(spec.ref_key))
                    del record, setup
                except Exception:
                    traceback.print_exc()
                    problems = ["raised"]
                res.failed = bool(problems)
                if problems:
                    print(f"op {len(results)} ({spec.kind}) failed: "
                          + "; ".join(problems), file=sys.stderr)
                results.append(res)
                speed.sample()
            n_round += 1
        speed.sample(force=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return results, traced_ops, speed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cauchyls" / "__init__.py").is_file():
        print(f"error: no cauchyls sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    prepare_environment()
    import tracing

    seed = DEFAULT_SEED if args.seed is None else args.seed
    baseline = json.loads(BASELINE.read_text())
    tracer = tracing.Tracer() if args.trace else None
    results, traced_ops, speed = run_rounds(
        args.workload, seed, args.seconds, 2 if args.trace else 1, tracer,
        baseline["reference"][args.workload])

    attempted = len(results)
    failed = sum(r.failed for r in results)
    untraced = [r for r in results if r.completed and not r.traced]
    traced = [r for r in results if r.completed and r.traced]
    if not untraced or (args.trace and not traced):
        print("error: no op completed", file=sys.stderr)
        return 1

    scale = speed.scale()
    if args.trace:
        metrics = bench["per_layer"]
        values = tracing.layer_metrics(tracer, traced_ops)
        for name in values:
            if name.endswith((".s", ".self_s")):
                values[name] *= scale
        values["experiments.write.bytes"] = statistics.fmean(
            r.bytes_written for r in traced)
        values["trace.overhead_s"] = (
            _per_kind(traced, "solve_s", statistics.median, scale)
            - _per_kind(untraced, "solve_s", statistics.median, scale))
        # unscaled, to read the scale against
        values["bench.kernel_s"] = statistics.median(speed.kernel_s)
        values["bench.recon_wall_s"] = _per_kind(untraced, "total_s",
                                                 statistics.median)
        tracer.write(OUT_ROOT / "spans" / f"{args.workload}-seed{seed}.npz")
    else:
        metrics = bench["end_to_end"]
        values = end_to_end(untraced, scale)

    print(f"{args.workload} seed={seed}: {attempted} ops, {failed} failed, "
          f"{len(untraced)} untraced ops timed; unscaled recon_s "
          f"{_per_kind(untraced, 'total_s', statistics.median):.6g} s, "
          f"kernel {statistics.median(speed.kernel_s):.6g} s in "
          f"{len(speed.kernel_s)} samples")
    for m in metrics:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    # reported but not gated: failed_frac is 0 at the recording commit and
    # the tail percentile spreads too widely between runs on this machine
    print(f"  failed_frac = {failed / attempted:.6g} ratio")
    if not args.trace:
        print(f"  recon_s_p90 = {values['recon_s_p90']:.6g} s "
              f"over {len(untraced)} ops")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
