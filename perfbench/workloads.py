"""Benchmark workloads as generated run-config texts.

The program sees only the config text. The workload seed chooses the noise
seeds of noisy_sweep; the two exact-data workloads have no random input, so
their text is the same for every seed. Each workload yields rounds: one op
of every kind it runs, in a fixed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

DEFAULT_SEED = 1

# iteration cap of each exp2 op: both heights stop on max_iters, and the cap
# keeps an h=1.0 op near one second on the reference machine
EXP2_ITERS = 300
EXP2_HEIGHTS = (0.5, 1.0)


@dataclass(frozen=True)
class OpSpec:
    """One reconstruction: statistics are taken per kind, then averaged."""

    kind: str
    ref_key: str
    text: str


def _exp2_text(height: float, max_iters: int, out_dir: Path) -> str:
    """exp2 geometry and Tikhonov parameters, as in experiments.exp2_config."""
    return (f"geometry.height = {height!r}\n"
            "geometry.nx = 64\n"
            "geometry.refine = 2\n"
            "method = tikhonov\n"
            "method.alpha = 100\n"
            "method.beta = 1e-3\n"
            "method.eps_cells = 4\n"
            "truth.intervals = 0.3:0.7\n"
            "init.intervals = 0.45:0.55\n"
            f"method.max_iters = {max_iters}\n"
            "output.snapshots = 0, 100, 1000\n"
            f"output.directory = {out_dir}\n")


def tikhonov_exp2(seed: int, out_root: Path) -> Iterator[list[OpSpec]]:
    ops = [OpSpec(f"h{h:g}", f"h{h:g}",
                  _exp2_text(h, EXP2_ITERS, out_root / f"h{h:g}"))
           for h in EXP2_HEIGHTS]
    while True:
        yield ops


def transport_fine(seed: int, out_root: Path) -> Iterator[list[OpSpec]]:
    """experiments.transport_benchmark_config at nx=256 (ny=128)."""
    text = (_exp2_text(0.5, 5000, out_root / "nx256")
            .replace("geometry.nx = 64", "geometry.nx = 256")
            .replace("method = tikhonov", "method = transport")
            + "method.dt = 0.5\n"
            "method.target_error = 5e-3\n")
    ops = [OpSpec("nx256", "nx256", text)]
    while True:
        yield ops


def noisy_sweep(seed: int, out_root: Path) -> Iterator[list[OpSpec]]:
    """exp3 (10% noise, tau 1.5, alpha 15) over noise seeds drawn from seed."""
    base = (_exp2_text(0.5, 20000, out_root / "exp3")
            .replace("method.alpha = 100", "method.alpha = 15")
            .replace("output.snapshots = 0, 100, 1000",
                     "output.snapshots = 0, 100")
            + "data.noise_level = 0.1\n"
            "method.tau = 1.5\n")
    rng = random.Random(seed)
    while True:
        noise_seed = rng.randrange(1, 2 ** 31)
        yield [OpSpec("exp3", str(noise_seed),
                      base + f"data.seed = {noise_seed}\n")]


@dataclass(frozen=True)
class Workload:
    """Op rounds from (seed, output root) and the calibration kernel whose
    speed the workload's time follows (see calibrate.py)."""

    rounds: Callable[[int, Path], Iterator[list[OpSpec]]]
    kernel: str


WORKLOADS = {
    "tikhonov_exp2": Workload(tikhonov_exp2, "mixed"),
    "transport_fine": Workload(transport_fine, "memory"),
    "noisy_sweep": Workload(noisy_sweep, "mixed"),
}
