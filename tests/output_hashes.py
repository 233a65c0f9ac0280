"""Byte-identity fingerprints of the built-in runs' output files.

    OMP_NUM_THREADS=1 PYTHONPATH=src python tests/output_hashes.py

Runs the 16 distinct runs below, writes each run's outputs (history.csv,
the snapshots, summary.txt) into a temporary directory and prints one line
per run: `name stop@iter digest`. The digest is the first 10 hex digits of
a sha256 over the sorted lines `file:sha256(bytes)` of the run's files,
whose bytes leave out the timing rows (wall_time_s, iters_per_s). A change
that must not move any output prints the same 16 lines before and after.

The runs: the nine configs of test_experiments.test_builtin_run_outcomes;
exp3's config as transport at 1% noise; the tikhonov_exp2 benchmark ops
(exp2 at h = 0.5 and 1.0, capped at 300 iterations); and four noisy_sweep
ops (exp3 at four noise seeds). The benchmark's transport_fine op is the
transport_nx256 run.

Run as a script, it pins the BLAS thread count to 1 before numpy loads,
as perfbench/run.py does, so the BLAS reductions keep one summation order.
pytest does not collect this file; test_experiments imports its helpers.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import hashlib  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from cauchyls.config import METHOD_TRANSPORT, RunConfig  # noqa: E402
from cauchyls.experiments import (execute, exp1_config,  # noqa: E402
                                  exp2_config, exp3_config, prepare,
                                  transport_benchmark_config,
                                  write_run_outputs)

TIMING_ROWS = (b"wall_time_s", b"iters_per_s")
NOISY_SWEEP_SEEDS = (288545019, 1222356006, 1819850096, 1722851097)


def runs() -> list[tuple[str, RunConfig]]:
    """The (name, config) pairs, in print order."""
    transport = transport_benchmark_config()
    return [
        ("exp1", exp1_config()),
        ("exp2_h0.5", exp2_config(0.5)),
        ("exp2_h1", exp2_config(1.0)),
        ("exp3", exp3_config()),
        ("transport", transport),
        ("transport_nx256", replace(transport, nx=256)),
        ("exp1_h1_stall", replace(exp1_config(), height=1.0)),
        ("exp2_empty_band_stall", replace(exp2_config(0.5), eps_cells=1e-3)),
        ("transport_at_truth_stall",
         replace(transport, refine=1, target_error=None,
                 init_intervals=((0.3, 0.7),))),
        ("exp3_transport_1pct",
         replace(exp3_config(), method=METHOD_TRANSPORT, noise_level=0.01,
                 seed=1, dt=0.5, max_iters=3000)),
        ("tikhonov_exp2_h0.5", replace(exp2_config(0.5), max_iters=300)),
        ("tikhonov_exp2_h1", replace(exp2_config(1.0), max_iters=300)),
        *((f"noisy_sweep_{seed}", replace(exp3_config(), seed=seed))
          for seed in NOISY_SWEEP_SEEDS),
    ]


def output_digest(out: Path) -> str:
    """First 10 hex digits of the sha256 over the sorted lines
    `file:sha256(bytes)` of the files in out, timing rows left out."""
    lines = []
    for path in out.iterdir():
        kept = b"".join(line for line in
                        path.read_bytes().splitlines(keepends=True)
                        if not line.startswith(TIMING_ROWS))
        lines.append(f"{path.name}:{hashlib.sha256(kept).hexdigest()}\n")
    return hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()[:10]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in runs():
            setup = prepare(cfg)
            record = execute(setup)
            out = write_run_outputs(record, setup, Path(tmp) / name)
            print(f"{name} {record.stop_reason}@{record.stop_iteration} "
                  f"{output_digest(out)}", flush=True)


if __name__ == "__main__":
    main()
