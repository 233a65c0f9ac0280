"""Forward operator, data offset and adjoint for the flux identification problem.

The unknown is the conormal flux q on the top edge. Superposition splits the
underdetermined boundary-value problem into a linear part driven only by q
and an affine offset z driven by the known data, so the measured bottom-edge
flux satisfies (forward map)(q) = g2 - z. All three maps below solve a mixed
problem with Dirichlet data on the bottom edge and Neumann data elsewhere;
the context caches that factorization once per grid, and the dense forward
and adjoint matrices once a run has spent as many solves as they cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (GAMMA1, GAMMA2, GAMMA3, Grid, TraceFn, boundary_nodes,
                   quadrature_weights)
from .pde import Coefficient, Field, MixedSolver, conormal_values, neumann_trace

# assembled dense matrices are limited to desk-scale widths
MAX_ASSEMBLE_NX = 256
# load columns per block solve during assembly; as fast as 32 columns, with
# half the transient (about 4 MB of arrays at nx = 64, height 1)
ASSEMBLY_BLOCK = 16
# decay_slope fits log(sigma_k) up to this 1-based position by default
DECAY_FIT_LAST = 15


@dataclass(frozen=True)
class CauchyData:
    """Over-determined bottom-edge data pair plus its derived offset.

    delta is the noise magnitude in the trace-weighted L2 norm; 0 means the
    pair is exact. rhs is the driving term for the flux iteration.
    """

    g1: TraceFn
    g2: TraceFn
    delta: float
    z: TraceFn

    def __post_init__(self):
        if self.g1.part is not GAMMA1 or self.g2.part is not GAMMA1 \
                or self.z.part is not GAMMA1:
            raise ValueError("Cauchy data and offset live on the bottom edge")
        if self.delta < 0:
            raise ValueError("noise magnitude cannot be negative")

    @property
    def rhs(self) -> TraceFn:
        return self.g2.with_values(self.g2.values - self.z.values)


class OperatorContext:
    """Grid, coefficient and source bundled with a cached factorization.

    The context owns the forward map and its adjoint. Both start as sparse
    solves, counted in sparse_applies. Once that count reaches nx + 1, the
    number of column solves one assembly costs, the next apply assembles both
    dense matrices and every apply after it is a matvec. Assembly thus never
    costs more than the sparse work already done, short runs never pay for
    it, and the count-based switch keeps reruns bit-identical. Widths above
    MAX_ASSEMBLE_NX stay sparse.
    """

    def __init__(self, grid: Grid, coefficient: Coefficient | None = None,
                 f: Field | None = None):
        self.grid = grid
        self.coefficient = coefficient if coefficient is not None else Coefficient()
        if f is not None and f.grid != grid:
            raise ValueError("source field lives on a different grid")
        self.f = f
        self._solver: MixedSolver | None = None
        self.sparse_applies = 0
        self._maps: tuple[np.ndarray, np.ndarray] | None = None
        self._normal: np.ndarray | None = None

    @property
    def solver(self) -> MixedSolver:
        if self._solver is None:
            self._solver = MixedSolver(
                self.grid, self.coefficient,
                {GAMMA1: "dirichlet", GAMMA2: "neumann", GAMMA3: "neumann"},
            )
        return self._solver

    @property
    def assembled(self) -> bool:
        return self._maps is not None

    def assemble(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only dense (forward, adjoint) matrices in the nodal basis.

        One block solve per ASSEMBLY_BLOCK top nodes gives X = A_ff^-1 E^T,
        the responses to unit loads on the top edge. A top flux q loads node
        j with q_j times its segment length, so the forward columns are the
        bottom conormal traces of X times those lengths. The adjoint is
        E A_ff^-1 A_fd, the map apply_adjoint solves for; A_ff is symmetric,
        so it equals (A_fd^T X)^T, the reactions of the same solves.
        """
        if self._maps is None:
            nx = self.grid.nx
            if nx > MAX_ASSEMBLE_NX:
                raise ValueError(f"assembly limited to nx <= {MAX_ASSEMBLE_NX}, "
                                 f"got {nx}")
            top = boundary_nodes(self.grid, GAMMA2)
            seg = quadrature_weights(self.grid, GAMMA2)
            forward = np.empty((nx + 1, nx + 1))
            adjoint = np.empty((nx + 1, nx + 1))
            for lo in range(0, nx + 1, ASSEMBLY_BLOCK):
                cols = slice(lo, lo + ASSEMBLY_BLOCK)
                u, reaction = self.solver.solve_unit_loads(top[cols])
                flux = conormal_values(u, self.grid, self.coefficient, GAMMA1)
                forward[:, cols] = (seg[cols, None] * flux).T
                adjoint[cols, :] = reaction[:, 0, :]
            forward.setflags(write=False)
            adjoint.setflags(write=False)
            self._maps = (forward, adjoint)
        return self._maps

    def normal_matrix(self) -> np.ndarray:
        """Read-only adjoint @ forward, the Gauss-Newton matrix of the flux
        misfit in the nodal basis (assembling the maps if needed)."""
        if self._normal is None:
            forward, adjoint = self.assemble()
            self._normal = adjoint @ forward
            self._normal.setflags(write=False)
        return self._normal

    def dense_maps(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The assembled maps once nx + 1 sparse applies have paid for them
        (assembling on the first call past that point), else None."""
        if self._maps is None and self.sparse_applies > self.grid.nx \
                and self.grid.nx <= MAX_ASSEMBLE_NX:
            self.assemble()
        return self._maps


def compute_offset_z(ctx: OperatorContext, g1: TraceFn) -> TraceFn:
    """Bottom-edge flux produced by the known data alone (zero top flux)."""
    u = ctx.solver.solve(dirichlet={GAMMA1: g1}, f=ctx.f)
    return neumann_trace(u, ctx.coefficient, GAMMA1)


def apply_forward(ctx: OperatorContext, q: TraceFn) -> TraceFn:
    """Bottom-edge flux produced by a top-edge flux q (zero data, zero source)."""
    if q.part is not GAMMA2 or q.grid != ctx.grid:
        raise ValueError("forward map expects a top-edge trace on the context grid")
    maps = ctx.dense_maps()
    if maps is not None:
        return TraceFn(ctx.grid, GAMMA1, maps[0] @ q.values)
    ctx.sparse_applies += 1
    u = ctx.solver.solve(neumann={GAMMA2: q})
    return neumann_trace(u, ctx.coefficient, GAMMA1)


def apply_adjoint(ctx: OperatorContext, r: TraceFn) -> TraceFn:
    """Adjoint of the forward map under the trace-weighted L2 pairings.

    Solves the homogeneous problem with Dirichlet value r on the bottom edge
    and returns the negated top-edge Dirichlet trace. Green's identity gives
    <forward(q), r> = <q, adjoint(r)> up to discretization error.
    """
    if r.part is not GAMMA1 or r.grid != ctx.grid:
        raise ValueError("adjoint expects a bottom-edge trace on the context grid")
    maps = ctx.dense_maps()
    if maps is not None:
        return TraceFn(ctx.grid, GAMMA2, maps[1] @ r.values)
    ctx.sparse_applies += 1
    u = ctx.solver.solve(dirichlet={GAMMA1: r})
    return TraceFn(ctx.grid, GAMMA2, -u.values[-1, :].copy())


def assemble_forward_matrix(ctx: OperatorContext) -> np.ndarray:
    """Dense read-only matrix of the forward map in the nodal basis."""
    return ctx.assemble()[0]


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)


def decay_slope(sigma: np.ndarray, lo: int = 2, hi: int = DECAY_FIT_LAST) -> float:
    """Least-squares slope of log(sigma_k) over 1-based positions lo..hi."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size < hi:
        raise ValueError(f"need at least {hi} singular values, got {sigma.size}")
    k = np.arange(lo, hi + 1)
    vals = sigma[lo - 1 : hi]
    floor = np.finfo(float).tiny
    return float(np.polyfit(k, np.log(np.maximum(vals, floor)), 1)[0])
