"""Flat key = value run configuration.

The on-disk format is line oriented: blank lines and # comments are
ignored, keys are dotted lowercase words, values are scalars or comma
separated lists. Interval lists use colon pairs, e.g.

    truth.intervals = 0.2:0.4, 0.6:0.8

Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .grid import isotropic_ny
from .levelset import disjoint_intervals
from .tikhonov import TikhonovParams
from .transport import TransportParams


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


METHOD_TIKHONOV = "tikhonov"
METHOD_TRANSPORT = "transport"

Interval = tuple[float, float]

# Cells per side of the synthesis grid, (nx * refine) x (ny * refine), the
# largest grid of a run. The largest built-in one (the nx = 256 transport
# benchmark) is 512 x 256, so twice that leaves headroom. The maps come
# from closed-form cosine symbols; at the bound the largest dense matrix
# holds 1025^2 doubles (8.4 MB), and the synthesis grid builds none.
MAX_FINE_CELLS = 1024


@dataclass(frozen=True)
class RunConfig:
    """Inputs for one reconstruction run, checked when built."""

    width: float = 1.0
    height: float = 0.5
    nx: int = 64
    ny: int | None = None
    refine: int = 2
    method: str = METHOD_TIKHONOV
    alpha: float = TikhonovParams.alpha
    beta: float = TikhonovParams.beta
    eps_cells: float = 2.0
    # band continuation floor and Tikhonov step kind, see TikhonovParams
    eps_min_cells: float | None = None
    step: str = TikhonovParams.step
    eta: float = TikhonovParams.eta
    tau: float = TikhonovParams.tau
    max_iters: int = TikhonovParams.max_iters
    target_error: float | None = None
    dt: float = TransportParams.dt
    truth_intervals: tuple[Interval, ...] = ((0.2, 0.4), (0.6, 0.8))
    init_intervals: tuple[Interval, ...] = ((0.4, 0.6),)
    noise_level: float = 0.0
    seed: int = 7
    output_dir: str = "runs/run"
    snapshot_iters: tuple[int, ...] = ()

    def __post_init__(self):
        """Check every value, replace included, and store the list fields
        as tuples. The method values take the params objects' ranges."""
        # comparisons with nan are false, so a non-finite value would slip
        # through every range check below; no interval end a in
        # 0 < a < width is non-finite
        for key, (name, _) in _KEYS.items():
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("geometry.width and geometry.height must be positive")
        if self.refine < 1:
            raise ConfigError("geometry.refine must be a positive integer")
        # within these bounds height / width, and so isotropic_ny, is finite
        ny = self.ny
        if ny is None and self.nx * self.refine <= MAX_FINE_CELLS \
                and self.height <= MAX_FINE_CELLS * self.width:
            ny = isotropic_ny(self.width, self.height, self.nx)
        if ny is None or max(self.nx, ny) * self.refine > MAX_FINE_CELLS:
            raise ConfigError(
                f"the synthesis grid may have at most {MAX_FINE_CELLS} cells "
                f"per side: need geometry.nx and ny times geometry.refine <= "
                f"{MAX_FINE_CELLS}, got nx = {self.nx}, ny = "
                f"{'round(nx * height / width)' if self.ny is None else self.ny}"
                f", refine = {self.refine}")
        if self.nx < 4 or ny < 4:
            raise ConfigError(f"geometry.nx and geometry.ny must be at least "
                              f"4, got nx = {self.nx} and ny = {ny} (unless "
                              f"set, ny = round(nx * height / width))")
        if self.method not in (METHOD_TIKHONOV, METHOD_TRANSPORT):
            raise ConfigError(f"method must be {METHOD_TIKHONOV} or "
                              f"{METHOD_TRANSPORT}, got {self.method!r}")
        try:
            self.tikhonov_params()
            self.transport_params()
        except ValueError as exc:
            # every field a params message names becomes its config key;
            # eps and eps_min are in cells here
            raise ConfigError(re.sub(r"\w+", lambda m: next(
                (k for k, (f, _) in _KEYS.items()
                 if f in (m[0], f"{m[0]}_cells")), m[0]), str(exc))) from None
        if self.noise_level < 0:
            raise ConfigError("data.noise_level cannot be negative")
        if self.seed < 0:
            raise ConfigError("data.seed cannot be negative")
        # Path("") is the current directory; "." names it explicitly
        if not self.output_dir:
            raise ConfigError("output.directory cannot be empty")
        object.__setattr__(self, "snapshot_iters",
                           tuple(int(k) for k in self.snapshot_iters))
        if any(k < 0 for k in self.snapshot_iters):
            raise ConfigError("output.snapshots cannot hold negative "
                              "iterations")
        if self.noise_level > 0 and not self.tau > 1:
            raise ConfigError("the discrepancy principle requires method.tau > 1 "
                              "when data.noise_level > 0")
        if self.truth_intervals is None:
            raise ConfigError("truth.intervals is required: the data are "
                              "synthesized from it")
        object.__setattr__(self, "truth_intervals", tuple(
            (float(a), float(b)) for a, b in self.truth_intervals))
        for name, ivals in (("truth.intervals", self.truth_intervals),
                            ("init.intervals", self.init_intervals)):
            for a, b in ivals:
                if not 0.0 < a < b < self.width:
                    raise ConfigError(f"{name}: need 0 < a < b < width, "
                                      f"got {a}:{b}")
        # the initial profile is a signed distance, so its intervals may
        # neither overlap nor touch; the truth is a union of any intervals.
        # Each has 0 < a < b by now, so only overlaps raise here
        try:
            object.__setattr__(self, "init_intervals",
                               disjoint_intervals(self.init_intervals))
        except ValueError as exc:
            raise ConfigError(f"init.{exc}") from None

    def tikhonov_params(self) -> TikhonovParams:
        """Flow parameters; band widths in cells become lengths."""
        hx = self.width / self.nx
        return TikhonovParams(
            alpha=self.alpha, beta=self.beta, eps=self.eps_cells * hx,
            eta=self.eta, tau=self.tau, max_iters=self.max_iters,
            target_error=self.target_error, step=self.step,
            eps_min=(None if self.eps_min_cells is None
                     else self.eps_min_cells * hx))

    def transport_params(self) -> TransportParams:
        return TransportParams(
            dt=self.dt, tau=self.tau, max_iters=self.max_iters,
            target_error=self.target_error)


def _parse_interval_list(text: str, key: str) -> tuple[Interval, ...]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = chunk.split(":")
            out.append((float(a), float(b)))
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
    "geometry.width": ("width", lambda v, k: float(v)),
    "geometry.height": ("height", lambda v, k: float(v)),
    "geometry.nx": ("nx", lambda v, k: int(v)),
    "geometry.ny": ("ny", lambda v, k: int(v)),
    "geometry.refine": ("refine", lambda v, k: int(v)),
    "method": ("method", lambda v, k: v.strip()),
    "method.alpha": ("alpha", lambda v, k: float(v)),
    "method.beta": ("beta", lambda v, k: float(v)),
    "method.eps_cells": ("eps_cells", lambda v, k: float(v)),
    "method.eps_min_cells": ("eps_min_cells", lambda v, k: float(v)),
    "method.step": ("step", lambda v, k: v.strip()),
    "method.eta": ("eta", lambda v, k: float(v)),
    "method.tau": ("tau", lambda v, k: float(v)),
    "method.max_iters": ("max_iters", lambda v, k: int(v)),
    "method.target_error": ("target_error", lambda v, k: float(v)),
    "method.dt": ("dt", lambda v, k: float(v)),
    "truth.intervals": ("truth_intervals", _parse_interval_list),
    "init.intervals": ("init_intervals", _parse_interval_list),
    "data.noise_level": ("noise_level", lambda v, k: float(v)),
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
    return RunConfig(**updates)


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {p} ({exc.reason} "
                          f"at byte {exc.start})") from exc
    return parse_config(text)
