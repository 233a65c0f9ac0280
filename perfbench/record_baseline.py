"""Regenerate perfbench/baseline.json from the current sources.

    python3 perfbench/record_baseline.py

Records, for the default workload seed: every op's stop reason, stop
iteration, final residual and final error (the reference that run.py
checks against), the exact per-op and per-iteration counts of the traced
ops, and the machine and library versions they were measured with. Only
rerun this when a change is meant to alter results or counts, and say so.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import run

# noisy_sweep ops with a recorded reference; later ops of a run get the
# invariant checks only
NOISY_REFERENCE_OPS = 512

COUNTS = ("operator.solves_per_iter", "grid.traces_per_iter",
          "pde.factorize.count", "transport.substeps_per_iter")

NOTE = ("Shared 2-CPU virtual machine; other tenants' load changes speed "
        "over seconds. The same 1000-iteration h=1.0 Tikhonov run measured "
        "2.0-3.1 s across separate processes, against about 5% spread "
        "within one process, and CPU time tracks wall time, so the spread "
        "is slower execution rather than descheduling. No CPU pinning and "
        "no cache dropping: the benchmark acts on its own process only.")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in run.BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "note": NOTE,
    }


def main() -> int:
    run.prepare_environment()
    import tracing

    reference, counts = {}, {}
    for name in run.WORKLOADS:
        n_rounds = NOISY_REFERENCE_OPS if name == "noisy_sweep" else 2
        tracer = tracing.Tracer()
        results, traced_ops, _ = run.run_rounds(
            name, run.DEFAULT_SEED, 0.0, n_rounds, tracer, {})
        bad = [r for r in results if r.failed]
        if bad:
            print(f"{name}: {len(bad)} ops failed their invariants",
                  file=sys.stderr)
            return 1
        reference[name] = {r.ref_key: r.outcome for r in results}
        layer = tracing.layer_metrics(tracer, traced_ops)
        counts[name] = {c: float(layer[c]) for c in COUNTS}
        print(f"{name}: {len(results)} ops, counts {counts[name]}")

    run.BASELINE.write_text(_dump({"provenance": provenance(run.DEFAULT_SEED),
                                   "counts": counts,
                                   "reference": reference}))
    return 0


def _dump(out: dict) -> str:
    """Indented JSON with one line per reference entry."""
    head = json.dumps({k: v for k, v in out.items() if k != "reference"},
                      indent=1)[:-2]
    blocks = []
    for name, entries in out["reference"].items():
        rows = ",\n".join(f"   {json.dumps(key)}: {json.dumps(value)}"
                          for key, value in entries.items())
        blocks.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    return (head + ',\n "reference": {\n' + ",\n".join(blocks)
            + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
