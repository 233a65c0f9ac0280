"""Mixed Dirichlet/Neumann finite-volume solver on the strip.

Discretizes Laplace's equation -div(grad u) = 0, the paper's elliptic equation
with the unit coefficient and no source, for the one boundary pattern of the
Cauchy problem: Dirichlet bottom, Neumann top and sides. Each node owns its
cell clipped to the strip (half cells on edges, quarter cells at corners) and
exchanges a flux with each neighbour through the face between them, so the
stiffness matrix is the weighted graph Laplacian A = Dx^T Cx Dx + Dy^T Cy Dy:
Dx and Dy difference nodal values across the vertical and horizontal faces,
and Cx and Cy hold each face's conductance, its length over the node spacing.
Neumann data enters as the prescribed flux integrated over the boundary
segment a node owns. In this form A is symmetric and conserves flux (A maps
constants to zero). u^T A u sums positive conductances times squared
differences, so it vanishes only for constant u; with the Dirichlet bottom
rows and columns removed the system is symmetric positive definite, and one
sparse factorization serves every right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grid import (GAMMA1, GAMMA2, GAMMA3, BoundaryPart, Grid, TraceFn,
                   quadrature_weights)

# relative residual bound every linear solve must meet
SOLVER_RTOL = 1e-10


class SolverError(RuntimeError):
    """Linear solve failed or did not reach the required residual."""


@dataclass(frozen=True)
class Coefficient:
    """Marker for the unit diffusion coefficient a = 1, the only one of the
    paper's problem; MixedSolver and neumann_trace take no other."""


def _check_coefficient(a) -> None:
    if not isinstance(a, Coefficient):
        raise TypeError(f"only the unit Coefficient() is solved, not {a!r}")


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


def _side_data(grid: Grid, trace: TraceFn) -> np.ndarray:
    """Nodal side flux along the left (row 0) and right (row 1) edges,
    corners included.

    Side traces carry no corner nodes; the closure values there are filled by
    quadratic extrapolation from the three nearest side values (constant
    extension costs half an order at the Neumann-Neumann top corners). The
    bottom corners are Dirichlet nodes, where the value is never read.
    """
    ny = grid.ny
    side = trace.values.reshape(2, ny - 1)
    out = np.empty((2, ny + 1))
    out[:, 1:ny] = side
    out[:, 0] = 3.0 * side[:, 0] - 3.0 * side[:, 1] + side[:, 2]
    out[:, ny] = 3.0 * side[:, -1] - 3.0 * side[:, -2] + side[:, -3]
    return out


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
    must name exactly that. Boundary data is supplied per solve, so one
    factorization is reused across arbitrarily many right-hand sides.
    """

    def __init__(self, grid: Grid, coefficient: Coefficient,
                 pattern: Mapping[BoundaryPart, str]):
        _check_coefficient(coefficient)
        if dict(pattern) != _PATTERN:
            raise ValueError("MixedSolver solves the Cauchy pattern only: "
                             "dirichlet on gamma1, neumann on gamma2 and "
                             "gamma3")
        self.grid = grid
        self._build()

    # -- assembly -----------------------------------------------------------

    def _build(self):
        # scipy, a test extra, loads here, so a process that builds no
        # MixedSolver (every CLI run) runs without it
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        g = self.grid
        nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy

        # cell sides each node owns: half cells on edges, quarter cells at
        # corners
        sx = quadrature_weights(g, GAMMA2)
        sy = np.full(ny + 1, hy)
        sy[0] = sy[-1] = 0.5 * hy

        # face conductances, the face length over the node spacing: (ny+1,
        # nx) vertical faces and (ny, nx+1) horizontal ones in face order
        cx = np.repeat(sy / hx, nx)
        cy = np.tile(sx / hy, ny)

        # n x (n+1) forward differences from nodes (order j * (nx+1) + i)
        # to faces
        dx = sp.kron(sp.identity(ny + 1),
                     sp.diags([-1.0, 1.0], [0, 1], shape=(nx, nx + 1)))
        dy = sp.kron(sp.diags([-1.0, 1.0], [0, 1], shape=(ny, ny + 1)),
                     sp.identity(nx + 1))
        A = (dx.T @ sp.diags(cx) @ dx + dy.T @ sp.diags(cy) @ dy).tocsr()

        # the bottom row, corners included, is Dirichlet-constrained; the
        # rows above it are free
        n_bottom = nx + 1
        self._A_ff = A[n_bottom:, n_bottom:].tocsc()
        self._A_fd = A[n_bottom:, :n_bottom].tocsr()
        self._lu = splu(self._A_ff)

        # cached boundary segments for right-hand side construction
        self._seg_x, self._seg_y = sx, sy

    # -- right-hand side and solve ------------------------------------------

    def solve(self,
              dirichlet: Mapping[BoundaryPart, TraceFn | None] | None = None,
              neumann: Mapping[BoundaryPart, TraceFn | None] | None = None
              ) -> Field:
        """Solve for the given boundary data; missing traces mean zero.

        dirichlet may hold GAMMA1 and neumann GAMMA2 and GAMMA3, each a
        trace of its own part on the solver's grid.
        """
        g = self.grid
        nx, ny = g.nx, g.ny
        dirichlet = _traces(g, dirichlet, (GAMMA1,))
        neumann = _traces(g, neumann, (GAMMA2, GAMMA3))

        b = np.zeros((ny + 1, nx + 1))
        top = neumann.get(GAMMA2)
        if top is not None:
            b[ny, :] += top.values * self._seg_x
        side = neumann.get(GAMMA3)
        if side is not None:
            b[:, [0, nx]] += (_side_data(g, side) * self._seg_y).T

        bottom = dirichlet.get(GAMMA1)
        u_d = np.zeros(nx + 1) if bottom is None else bottom.values
        rhs = b[1:].ravel() - self._A_fd @ u_d
        x = self._checked_solve(rhs)
        return Field(g, np.vstack([u_d, x.reshape(ny, nx + 1)]))

    def _checked_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the reduced system for one right-hand side; the solution
        must be finite and meet the relative residual bound."""
        x = self._lu.solve(rhs)
        # a non-finite solution can leave a nan residual, which passes ">"
        if not np.isfinite(x).all():
            raise SolverError("linear solve gave a non-finite solution")
        # both vectors scaled by s, so neither norm overflows
        s = max(np.abs(rhs).max(), 1.0)
        res = np.linalg.norm((self._A_ff @ x - rhs) / s)
        if res > SOLVER_RTOL * max(np.linalg.norm(rhs / s), 1.0 / s):
            raise SolverError(f"linear solve residual {res:.3e} x {s:.3e} "
                              "exceeds tolerance")
        return x


def neumann_trace(u: Field, a: Coefficient, part: BoundaryPart) -> TraceFn:
    """Outward normal derivative du/dnu, the conormal derivative of the unit
    coefficient, on the bottom (GAMMA1) or top (GAMMA2) edge, one-sided
    3-point formula.

    The derivative is differenced along the inward normal and negated, so the
    result is second-order consistent at every node of the edge. Only call
    this on parts where u was not given Neumann data; there the imposed data
    is already the exact answer. The side walls (GAMMA3) are Neumann parts
    of the Cauchy pattern, so they raise ValueError.
    """
    _check_coefficient(a)
    return TraceFn(u.grid, part, conormal_values(u.values, u.grid, part))


def conormal_values(v: np.ndarray, g: Grid, part: BoundaryPart) -> np.ndarray:
    """du/dnu as in neumann_trace, of raw nodal values (..., ny+1, nx+1);
    leading axes stack several fields and carry through to the result."""
    def d_in(v0, v1, v2, h):
        return (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * h)

    if part is GAMMA1:
        return -d_in(v[..., 0, :], v[..., 1, :], v[..., 2, :], g.hy)
    if part is GAMMA2:
        return -d_in(v[..., -1, :], v[..., -2, :], v[..., -3, :], g.hy)
    raise ValueError(f"no conormal trace on {part.value}: the side walls "
                     "carry Neumann data, which is already the trace")
