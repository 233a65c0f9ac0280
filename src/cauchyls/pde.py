"""Mixed Dirichlet/Neumann finite-difference solver on the strip.

Discretizes -div(a grad u) = f with the five-point scheme and coefficients
averaged at cell faces, for the one boundary pattern of the Cauchy problem:
Dirichlet data on the bottom edge, Neumann data on the top edge and the
sides. Neumann conditions enter through centered ghost elimination written
in control-volume (half-cell) form: the equation at a boundary node is the
interior stencil restricted to the clipped cell, with the prescribed
conormal flux integrated over the boundary segment the node owns. Scaling
each equation by its cell fraction keeps the reduced system symmetric
positive definite, so a single sparse factorization serves every
right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import GAMMA1, GAMMA2, GAMMA3, BoundaryPart, Grid, TraceFn

# relative residual bound every linear solve must meet
SOLVER_RTOL = 1e-10


class SolverError(RuntimeError):
    """Linear solve failed or did not reach the required residual."""


@dataclass(frozen=True)
class Coefficient:
    """Scalar diffusion coefficient a(x, y) with ellipticity bound alpha.

    fn=None means the constant coefficient 1. The bound is validated at
    every evaluation point used by the assembly.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    alpha: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("ellipticity bound alpha must be positive")

    def __call__(self, x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        if self.fn is None:
            return np.ones_like(x)
        vals = np.asarray(self.fn(x, y), dtype=float)
        vals = np.broadcast_to(vals, x.shape).copy()
        if np.any(vals < self.alpha - 1e-14):
            raise ValueError("coefficient drops below its ellipticity bound")
        return vals


@dataclass(frozen=True)
class Field:
    """Nodal scalar field; values[j, i] sits at (i*hx, j*hy)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.ny + 1, self.grid.nx + 1):
            raise ValueError(f"field shape {vals.shape} does not match grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")


def _side_data(grid: Grid, trace: TraceFn) -> tuple[np.ndarray, np.ndarray]:
    """Nodal side flux along the left and right edges, corners included.

    Side traces carry no corner nodes; the closure values there are filled by
    quadratic extrapolation (constant extension costs half an order at the
    Neumann-Neumann top corners). The bottom corners are Dirichlet nodes,
    where the value is never read.
    """
    ny = grid.ny
    edges = (np.empty(ny + 1), np.empty(ny + 1))
    for out, side in zip(edges, (trace.values[: ny - 1],
                                 trace.values[ny - 1 :])):
        out[1:ny] = side
        out[0] = _extrapolate_corner(side)
        out[ny] = _extrapolate_corner(side[::-1])
    return edges


def _extrapolate_corner(side_vals: np.ndarray) -> float:
    """Quadratic extrapolation to the corner from the three nearest side values."""
    return 3.0 * side_vals[0] - 3.0 * side_vals[1] + side_vals[2]


# the Cauchy problem's pattern, the only one MixedSolver assembles
_PATTERN = {GAMMA1: "dirichlet", GAMMA2: "neumann", GAMMA3: "neumann"}


def _traces(grid: Grid, data: Mapping[BoundaryPart, TraceFn | None] | None,
            parts: tuple[BoundaryPart, ...]) -> dict:
    """Check boundary data against the grid and the parts that carry it."""
    data = dict(data or {})
    for key, t in data.items():
        if key not in parts:
            raise ValueError(f"no such condition on {key.value} "
                             "in the Cauchy pattern")
        if t is not None and (t.part is not key or t.grid != grid):
            raise ValueError(f"{key.value} data must be a {key.value} trace "
                             "on the solver's grid")
    return data


class MixedSolver:
    """Assembled and factorized system of the Cauchy problem's pattern.

    Dirichlet data on GAMMA1, Neumann data on GAMMA2 and GAMMA3; pattern
    must name exactly that. Boundary data and sources are supplied per
    solve, so one factorization is reused across arbitrarily many
    right-hand sides.
    """

    def __init__(self, grid: Grid, coefficient: Coefficient,
                 pattern: Mapping[BoundaryPart, str]):
        if dict(pattern) != _PATTERN:
            kinds = set(pattern.values())
            if set(pattern) != set(_PATTERN) \
                    or not kinds <= {"dirichlet", "neumann"}:
                reason = ("every boundary part needs a dirichlet or neumann "
                          "condition")
            elif "dirichlet" not in kinds:
                reason = "an all-Neumann problem is singular"
            else:
                reason = "this pattern is not assembled"
            raise ValueError(f"{reason}; MixedSolver solves the Cauchy "
                             "pattern only: dirichlet on gamma1, neumann on "
                             "gamma2 and gamma3")
        self.grid = grid
        self.coefficient = coefficient
        self._build()

    # -- assembly -----------------------------------------------------------

    def _build(self):
        g, a = self.grid, self.coefficient
        nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy
        n_nodes = (nx + 1) * (ny + 1)

        def nid(i, j):
            return j * (nx + 1) + i

        # cell fractions: half cells on edges, quarter cells at corners
        wx = np.ones(nx + 1)
        wx[0] = wx[-1] = 0.5
        wy = np.ones(ny + 1)
        wy[0] = wy[-1] = 0.5

        # face-averaged coefficients
        xf = (np.arange(nx) + 0.5) * hx
        ax = a(xf[None, :], g.ys[:, None])          # (ny+1, nx) vertical faces
        yf = (np.arange(ny) + 0.5) * hy
        ay = a(g.xs[None, :], yf[:, None])          # (ny, nx+1) horizontal faces

        rows, cols, data = [], [], []

        def add(r, c, v):
            rows.append(r)
            cols.append(c)
            data.append(v)

        # x-direction fluxes through faces between (i, j) and (i+1, j)
        jj, ii = np.meshgrid(np.arange(ny + 1), np.arange(nx), indexing="ij")
        cxy = ax * (wy[:, None] * hy) / hx
        left = nid(ii, jj).ravel()
        right = nid(ii + 1, jj).ravel()
        cvals = cxy.ravel()
        add(left, right, -cvals)
        add(right, left, -cvals)
        add(left, left, cvals)
        add(right, right, cvals)

        # y-direction fluxes through faces between (i, j) and (i, j+1)
        jj, ii = np.meshgrid(np.arange(ny), np.arange(nx + 1), indexing="ij")
        cyy = ay * (wx[None, :] * hx) / hy
        lower = nid(ii, jj).ravel()
        upper = nid(ii, jj + 1).ravel()
        cvals = cyy.ravel()
        add(lower, upper, -cvals)
        add(upper, lower, -cvals)
        add(lower, lower, cvals)
        add(upper, upper, cvals)

        A = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_nodes, n_nodes),
        ).tocsr()

        # the bottom row, corners included, is Dirichlet-constrained; the
        # rows above it are free
        n_bottom = nx + 1
        A_ff = A[n_bottom:, n_bottom:].tocsc()
        self._A_fd = A[n_bottom:, :n_bottom].tocsr()
        self._lu = splu(A_ff)
        self._A_ff = A_ff

        # cached geometry for right-hand side construction
        self._area = (wy[:, None] * hy) * (wx[None, :] * hx)
        self._seg_x = wx * hx
        self._seg_y = wy * hy

    # -- right-hand side and solve ------------------------------------------

    def solve(self,
              dirichlet: Mapping[BoundaryPart, TraceFn | None] | None = None,
              neumann: Mapping[BoundaryPart, TraceFn | None] | None = None,
              f: Field | None = None) -> Field:
        """Solve for the given boundary data; missing traces mean zero.

        dirichlet may hold GAMMA1 and neumann GAMMA2 and GAMMA3, each a
        trace of its own part on the solver's grid; f lives on that grid.
        """
        g = self.grid
        nx, ny = g.nx, g.ny
        dirichlet = _traces(g, dirichlet, (GAMMA1,))
        neumann = _traces(g, neumann, (GAMMA2, GAMMA3))
        if f is not None and f.grid != g:
            raise ValueError("source field lives on a different grid")

        b = np.zeros((ny + 1, nx + 1))
        if f is not None:
            b += f.values * self._area
        top = neumann.get(GAMMA2)
        if top is not None:
            b[ny, :] += top.values * self._seg_x
        side = neumann.get(GAMMA3)
        if side is not None:
            left, right = _side_data(g, side)
            b[:, 0] += left * self._seg_y
            b[:, nx] += right * self._seg_y

        bottom = dirichlet.get(GAMMA1)
        u_d = np.zeros(nx + 1) if bottom is None else bottom.values
        rhs = b[1:].ravel() - self._A_fd @ u_d
        x = self._checked_solve(rhs)
        return Field(g, np.vstack([u_d, x.reshape(ny, nx + 1)]))

    def solve_unit_loads(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Responses to a unit load at each given free node, all data zero.

        nodes holds (i, j) index pairs, as boundary_nodes returns them, and
        one block solve covers them all. Returns (u, reaction), both of shape
        (len(nodes), ny+1, nx+1): the nodal solutions, and the reactions
        A_df u_f they draw at the Dirichlet nodes (zero at free nodes). As the
        reduced system is symmetric, reaction[k] also gives the negated value
        at load node k of the solution for unit Dirichlet data at each
        constrained node.
        """
        g = self.grid
        nodes = np.asarray(nodes)
        i, j = nodes[:, 0], nodes[:, 1]
        if np.any(j == 0):
            raise ValueError("unit loads must sit on free nodes")
        k = len(nodes)
        b = np.zeros((g.ny * (g.nx + 1), k))
        b[(j - 1) * (g.nx + 1) + i, np.arange(k)] = 1.0
        x = self._checked_solve(b)

        u = np.zeros((k, g.ny + 1, g.nx + 1))
        u[:, 1:, :] = x.T.reshape(k, g.ny, g.nx + 1)
        reaction = np.zeros_like(u)
        reaction[:, 0, :] = (self._A_fd.T @ x).T
        return u, reaction

    def _checked_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the reduced system for one right-hand side or a block of
        columns; every column must meet the relative residual bound."""
        x = self._lu.solve(rhs)
        res = np.linalg.norm(self._A_ff @ x - rhs, axis=0)
        bound = SOLVER_RTOL * np.maximum(np.linalg.norm(rhs, axis=0), 1.0)
        if np.any(res > bound):
            raise SolverError(f"linear solve residual {np.max(res):.3e} "
                              "exceeds tolerance")
        return x


def neumann_trace(u: Field, a: Coefficient, part: BoundaryPart) -> TraceFn:
    """Outward conormal derivative a*du/dnu on a part, one-sided 3-point formula.

    The derivative is differenced along the inward normal and negated, so the
    result is second-order consistent at every node of the part. Only call
    this on parts where u was not given Neumann data; there the imposed data
    is already the exact answer.
    """
    return TraceFn(u.grid, part, conormal_values(u.values, u.grid, a, part))


def conormal_values(v: np.ndarray, g: Grid, a: Coefficient,
                    part: BoundaryPart) -> np.ndarray:
    """neumann_trace on raw nodal values of shape (..., ny+1, nx+1); leading
    axes stack several fields and carry through to the result."""
    def d_in(v0, v1, v2, h):
        return (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * h)

    if part is GAMMA1:
        return -a(g.xs, 0.0) * d_in(v[..., 0, :], v[..., 1, :], v[..., 2, :], g.hy)
    if part is GAMMA2:
        return -a(g.xs, g.height) * d_in(v[..., -1, :], v[..., -2, :],
                                         v[..., -3, :], g.hy)
    ys = np.arange(1, g.ny) * g.hy
    d_l = d_in(v[..., 1:-1, 0], v[..., 1:-1, 1], v[..., 1:-1, 2], g.hx)
    d_r = d_in(v[..., 1:-1, -1], v[..., 1:-1, -2], v[..., 1:-1, -3], g.hx)
    return np.concatenate([-a(0.0, ys) * d_l, -a(g.width, ys) * d_r], axis=-1)
