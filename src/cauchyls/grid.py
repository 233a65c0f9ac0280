"""Rectangular grids, boundary bookkeeping and edge-trace transfer.

The domain is the open strip (0, width) x (0, height), discretized with a
uniform node-centered grid. The boundary splits into three named parts:
the bottom edge (where Cauchy data lives), the top edge (where the unknown
flux lives) and the two lateral sides. Corner nodes are owned by the
horizontal edges so that every boundary node belongs to exactly one part.
Only edge traces transfer between nested grids; side traces are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np


class BoundaryPart(Enum):
    """Named parts of the rectangle boundary.

    GAMMA1 is the bottom edge y = 0 (accessible, both traces known),
    GAMMA2 the top edge y = height (inaccessible, flux unknown),
    GAMMA3 the two vertical sides (homogeneous flux).
    """

    GAMMA1 = "gamma1"
    GAMMA2 = "gamma2"
    GAMMA3 = "gamma3"


GAMMA1 = BoundaryPart.GAMMA1
GAMMA2 = BoundaryPart.GAMMA2
GAMMA3 = BoundaryPart.GAMMA3
# the largest node index an array can hold
INDEX_MAX = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid with nodes (i*hx, j*hy), 0<=i<=nx, 0<=j<=ny."""

    width: float
    height: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("grid dimensions must be positive")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("need nx >= 4 and ny >= 4")
        if max(self.nx, self.ny) > INDEX_MAX:
            raise ValueError("nx and ny must fit a numpy index")

    @property
    def hx(self) -> float:
        return self.width / self.nx

    @property
    def hy(self) -> float:
        return self.height / self.ny

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, self.width, self.nx + 1)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(0.0, self.height, self.ny + 1)

    def node_count(self, part: BoundaryPart) -> int:
        if part in (GAMMA1, GAMMA2):
            return self.nx + 1
        return 2 * (self.ny - 1)


def isotropic_ny(width: float, height: float, nx: int) -> int:
    """Row count that makes the cells square: round(nx * height / width),
    with height / width taken first where nx * height overflows; ValueError
    where that is not finite either."""
    ny = nx * height / width
    if not np.isfinite(ny):
        ny = nx * (height / width)
        if not np.isfinite(ny):
            raise ValueError(f"a {width!r} x {height!r} grid of {nx} columns "
                             f"has no finite row count")
    return int(round(ny))


def build_grid(width: float, height: float, nx: int, ny: int | None = None) -> Grid:
    """Construct a grid; ny defaults to isotropic_ny(width, height, nx)."""
    if ny is None:
        ny = isotropic_ny(width, height, nx)
    return Grid(width=float(width), height=float(height), nx=int(nx), ny=int(ny))


@dataclass(frozen=True)
class TraceFn:
    """Nodal values of a scalar function on one boundary part."""

    grid: Grid
    part: BoundaryPart
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size != self.grid.node_count(self.part):
            raise ValueError(
                f"trace on {self.part.value} needs "
                f"{self.grid.node_count(self.part)} values, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("trace values must be finite")

    @property
    def coords(self) -> np.ndarray:
        """Arc coordinate of each node along its segment."""
        if self.part in (GAMMA1, GAMMA2):
            return self.grid.xs
        j = np.arange(1, self.grid.ny) * self.grid.hy
        return np.concatenate([j, j])

    def with_values(self, values: np.ndarray) -> "TraceFn":
        return TraceFn(self.grid, self.part, values)


def trace_from_function(grid: Grid, part: BoundaryPart, fn: Callable) -> TraceFn:
    """Sample fn(arc coordinate) at the part's nodes."""
    coords = TraceFn(grid, part, np.zeros(grid.node_count(part))).coords
    return TraceFn(grid, part, np.asarray(fn(coords), dtype=float))


def zero_trace(grid: Grid, part: BoundaryPart) -> TraceFn:
    return TraceFn(grid, part, np.zeros(grid.node_count(part)))


def quadrature_weights(grid: Grid, part: BoundaryPart) -> np.ndarray:
    """Arc-length quadrature weights: trapezoid rule with h/2 end weights.

    Side nodes carry plain weight hy; the corner half-cells there belong to
    the horizontal edges.
    """
    if part in (GAMMA1, GAMMA2):
        w = np.full(grid.nx + 1, grid.hx)
        w[0] = w[-1] = 0.5 * grid.hx
        return w
    return np.full(2 * (grid.ny - 1), grid.hy)


def _check_nested(fine: Grid, coarse: Grid, part: BoundaryPart) -> int:
    if part is GAMMA3:
        raise ValueError("only edge traces transfer between grids")
    if (fine.width, fine.height) != (coarse.width, coarse.height):
        raise ValueError("grids cover different rectangles")
    if fine.nx % coarse.nx or fine.ny % coarse.ny:
        raise ValueError("fine grid is not nested in the coarse grid")
    return fine.nx // coarse.nx


def restrict_trace(t: TraceFn, coarse: Grid) -> TraceFn:
    """Injection of an edge trace onto a nested coarser grid (no smoothing)."""
    kx = _check_nested(t.grid, coarse, t.part)
    return TraceFn(coarse, t.part, t.values[::kx].copy())


def prolong_trace(t: TraceFn, fine: Grid) -> TraceFn:
    """Linear interpolation of a coarse edge trace onto a nested fine grid.

    Restricting the result recovers the coarse trace exactly.
    """
    _check_nested(fine, t.grid, t.part)
    return TraceFn(fine, t.part, np.interp(fine.xs, t.grid.xs, t.values))
