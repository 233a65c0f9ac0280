"""Flat key = value run configuration.

The on-disk format is line oriented: blank lines and # comments are
ignored, keys are dotted lowercase words, values are scalars or comma
separated lists. Interval lists use colon pairs, e.g.

    truth.intervals = 0.2:0.4, 0.6:0.8

Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .grid import isotropic_ny
from .operator import MAX_ASSEMBLE_NX, MAX_SPECTRAL_NX
from .tikhonov import STEP_EXPLICIT, STEP_IMPLICIT, STEP_KINDS


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


METHOD_TIKHONOV = "tikhonov"
METHOD_TRANSPORT = "transport"

Interval = tuple[float, float]

# Cells per side of the synthesis grid, (nx * refine) x (ny * refine), the
# largest grid of a run. The largest built-in one (the nx = 256 transport
# benchmark) is 512 x 256, so twice that leaves headroom. At the bound every
# run stays on the cosine path (MAX_SPECTRAL_NX) and its largest dense matrix
# holds 1025^2 doubles (8.4 MB); the synthesis is one y-sweep of 1024 rows.
MAX_FINE_CELLS = MAX_SPECTRAL_NX
# run_transport caps the outer step at half a cell, so one iteration takes
# at most ceil(0.5 / cfl_max) upwind substeps; this floor keeps that <= 500
MIN_CFL_MAX = 1e-3


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one reconstruction run."""

    width: float = 1.0
    height: float = 0.5
    nx: int = 64
    ny: int | None = None
    refine: int = 2
    method: str = METHOD_TIKHONOV
    alpha: float = 100.0
    beta: float = 1e-3
    eps_cells: float = 2.0
    # band continuation floor and Tikhonov step kind, see TikhonovParams
    eps_min_cells: float | None = None
    step: str = STEP_EXPLICIT
    eta: float = 1e-6
    tau: float = 1.5
    max_iters: int = 5000
    target_error: float | None = None
    dt: float = 1.0
    eps_clamp: float = 0.1
    cfl_max: float = 0.9
    truth_intervals: tuple[Interval, ...] | None = ((0.2, 0.4), (0.6, 0.8))
    init_intervals: tuple[Interval, ...] = ((0.4, 0.6),)
    init_constant: float | None = None
    noise_level: float = 0.0
    seed: int = 7
    output_dir: str = "runs/run"
    snapshot_iters: tuple[int, ...] = ()

    def validate(self) -> "RunConfig":
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("geometry.width and geometry.height must be positive")
        if self.refine < 1:
            raise ConfigError("geometry.refine must be a positive integer")
        too_big = ConfigError(
            f"the synthesis grid may have at most {MAX_FINE_CELLS} cells per "
            f"side: need geometry.nx and ny times geometry.refine <= "
            f"{MAX_FINE_CELLS}, got nx = {self.nx}, ny = "
            f"{'round(nx * height / width)' if self.ny is None else self.ny}, "
            f"refine = {self.refine}")
        # checked before isotropic_ny, whose float product overflows for a
        # huge nx or height / width
        if self.nx * self.refine > MAX_FINE_CELLS or (
                self.ny is None and self.height > MAX_FINE_CELLS * self.width):
            raise too_big
        ny = self.ny if self.ny is not None else isotropic_ny(
            self.width, self.height, self.nx)
        if ny * self.refine > MAX_FINE_CELLS:
            raise too_big
        if self.nx < 4 or ny < 4:
            raise ConfigError(f"geometry.nx and geometry.ny must be at least "
                              f"4, got nx = {self.nx} and ny = {ny} (unless "
                              f"set, ny = round(nx * height / width))")
        if self.method not in (METHOD_TIKHONOV, METHOD_TRANSPORT):
            raise ConfigError(f"method must be {METHOD_TIKHONOV} or "
                              f"{METHOD_TRANSPORT}, got {self.method!r}")
        if self.alpha <= 0 or self.eps_cells <= 0 or self.eta <= 0 or self.dt <= 0:
            raise ConfigError("method.alpha, method.eps_cells, method.eta and "
                              "method.dt must be positive")
        if self.beta < 0 or self.noise_level < 0:
            raise ConfigError("method.beta and data.noise_level cannot be negative")
        if self.max_iters < 0:
            raise ConfigError("method.max_iters cannot be negative")
        if self.seed < 0:
            raise ConfigError("data.seed cannot be negative")
        if self.noise_level > 0 and not self.tau > 1:
            raise ConfigError("the discrepancy principle requires method.tau > 1 "
                              "when data.noise_level > 0")
        if self.step not in STEP_KINDS:
            raise ConfigError(f"method.step must be one of "
                              f"{', '.join(STEP_KINDS)}, got {self.step!r}")
        if self.step == STEP_IMPLICIT and self.nx > MAX_ASSEMBLE_NX:
            raise ConfigError(f"method.step = {STEP_IMPLICIT} needs the "
                              f"assembled maps, so geometry.nx <= "
                              f"{MAX_ASSEMBLE_NX}")
        if self.eps_min_cells is not None \
                and not 0 < self.eps_min_cells <= self.eps_cells:
            raise ConfigError("method.eps_min_cells must lie in "
                              "(0, method.eps_cells]")
        if not MIN_CFL_MAX <= self.cfl_max <= 0.9:
            raise ConfigError(f"method.cfl_max must lie in [{MIN_CFL_MAX:g}, "
                              f"0.9]")
        if not 0 < self.eps_clamp <= 1:
            raise ConfigError("method.eps_clamp must lie in (0, 1]")
        if self.target_error is not None:
            if self.target_error <= 0:
                raise ConfigError("method.target_error must be positive")
            if self.truth_intervals is None:
                raise ConfigError("method.target_error needs truth.intervals")
        for name, ivals in (("truth.intervals", self.truth_intervals),
                            ("init.intervals", self.init_intervals)):
            if ivals is None:
                continue
            for a, b in ivals:
                if not 0.0 < a < b < self.width:
                    raise ConfigError(f"{name}: need 0 < a < b < width, "
                                      f"got {a}:{b}")
        # the initial profile is a signed distance, so its intervals may
        # neither overlap nor touch; the truth is a union of any intervals
        ivals = sorted(self.init_intervals)
        for (a0, b0), (a1, b1) in zip(ivals, ivals[1:]):
            if b0 >= a1:
                raise ConfigError(f"init.intervals must be disjoint, got "
                                  f"{a0}:{b0} and {a1}:{b1}")
        return self


def _finite(text: str) -> float:
    """float(text), rejecting nan and inf: comparisons with nan are false,
    so a non-finite value would slip through every range check."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text!r}")
    return x


def _parse_interval_list(text: str, key: str) -> tuple[Interval, ...]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = chunk.split(":")
            out.append((_finite(a), _finite(b)))
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a:b pairs, got {chunk!r}") from exc
    return tuple(out)


def _parse_int_list(text: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(",") if c.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected integers, got {text!r}") from exc


# key -> (RunConfig field, converter); converters see (text, key)
_KEYS = {
    "geometry.width": ("width", lambda v, k: _finite(v)),
    "geometry.height": ("height", lambda v, k: _finite(v)),
    "geometry.nx": ("nx", lambda v, k: int(v)),
    "geometry.ny": ("ny", lambda v, k: int(v)),
    "geometry.refine": ("refine", lambda v, k: int(v)),
    "method": ("method", lambda v, k: v.strip()),
    "method.alpha": ("alpha", lambda v, k: _finite(v)),
    "method.beta": ("beta", lambda v, k: _finite(v)),
    "method.eps_cells": ("eps_cells", lambda v, k: _finite(v)),
    "method.eps_min_cells": ("eps_min_cells", lambda v, k: _finite(v)),
    "method.step": ("step", lambda v, k: v.strip()),
    "method.eta": ("eta", lambda v, k: _finite(v)),
    "method.tau": ("tau", lambda v, k: _finite(v)),
    "method.max_iters": ("max_iters", lambda v, k: int(v)),
    "method.target_error": ("target_error", lambda v, k: _finite(v)),
    "method.dt": ("dt", lambda v, k: _finite(v)),
    "method.eps_clamp": ("eps_clamp", lambda v, k: _finite(v)),
    "method.cfl_max": ("cfl_max", lambda v, k: _finite(v)),
    "truth.intervals": ("truth_intervals", _parse_interval_list),
    "init.intervals": ("init_intervals", _parse_interval_list),
    "init.constant": ("init_constant", lambda v, k: _finite(v)),
    "data.noise_level": ("noise_level", lambda v, k: _finite(v)),
    "data.seed": ("seed", lambda v, k: int(v)),
    "output.directory": ("output_dir", lambda v, k: v.strip()),
    "output.snapshots": ("snapshot_iters", _parse_int_list),
}


def parse_config(text: str) -> RunConfig:
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name, convert = _KEYS[key]
        try:
            updates[field_name] = convert(value, key)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return replace(RunConfig(), **updates).validate()


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())
