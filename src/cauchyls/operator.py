"""Forward operator, data offset and adjoint for the flux identification problem.

The unknown is the conormal flux q on the top edge. Superposition splits the
underdetermined boundary-value problem into a linear part driven only by q
and an affine offset z driven by the known data, so the measured bottom-edge
flux satisfies (forward map)(q) = g2 - z. All three maps below solve a mixed
problem with Dirichlet data on the bottom edge and Neumann data elsewhere.

With the constant coefficient and no source the discrete problem separates:
the nodal cosine modes cos(k pi x) diagonalize all three maps, and one
tridiagonal sweep in y gives their per-mode symbols (CosineModes). Every
other problem goes through a cached MixedSolver factorization, and the dense
forward and adjoint matrices are assembled once a run has spent as many
solves as they cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (GAMMA1, GAMMA2, GAMMA3, Grid, TraceFn, boundary_nodes,
                   quadrature_weights)
from .pde import Coefficient, Field, MixedSolver, conormal_values, neumann_trace

# block-solve assembly is limited to desk-scale widths
MAX_ASSEMBLE_NX = 256
# widths up to this take the cosine path; its basis and each dense map hold
# (nx + 1)^2 doubles, 8.4 MB at the bound, where MixedSolver would need none
MAX_SPECTRAL_NX = 1024
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


class CosineModes:
    """Nodal cosine modes of a grid and the per-mode symbols of its maps.

    basis[i, k] = cos(k pi i / nx) is the DCT-I matrix; it is symmetric. Its
    inverse comes from the orthogonality of the modes under the trapezoid
    rule: with end weights 1/2, sum_i w_i cos(k pi i / nx) cos(l pi i / nx)
    is nx / 2 for k = l strictly between 0 and nx, nx for k = l in {0, nx}
    and 0 otherwise.

    On the constant-coefficient problem without a source, mode k separates
    from the others. Its y-profile over the free rows 1..ny solves
    T_k = mu_k D_y + K_y, with mu_k = (2 - 2 cos(k pi / nx)) / hx^2 the
    eigenvalue of MixedSolver's x-stencil over its half-cell weights, D_y
    the half-cell row weights and K_y the y-stencil. forward, adjoint and
    offset are the symbols of apply_forward (top flux -> bottom conormal
    trace), apply_adjoint (bottom Dirichlet -> negated top trace) and
    compute_offset_z (bottom Dirichlet -> bottom conormal trace).
    """

    def __init__(self, grid: Grid):
        nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
        k = np.arange(nx + 1)
        # reduce k i mod 2 nx first, so every angle lies in [0, 2 pi)
        self.basis = np.cos(np.pi / nx * (np.outer(k, k) % (2 * nx)))
        self._weights = np.ones(nx + 1)
        self._weights[[0, -1]] = 0.5
        self._norms = np.full(nx + 1, nx / 2.0)
        self._norms[[0, -1]] = nx

        # One top-down elimination of every T_k at once. g is the pivot
        # left at a row once the rows above it are eliminated, rho the
        # eliminated right-hand side of the load e_ny; the off-diagonal is
        # -1/hy. The loop ends at row 1, (g2, rho2) hold row 2.
        mu = (2.0 - 2.0 * np.cos(np.pi * k / nx)) / (hx * hx)
        diag = mu * hy + 2.0 / hy
        g = 0.5 * mu * hy + 1.0 / hy
        rho = np.ones(nx + 1)
        for _ in range(ny - 1):
            g2, rho2 = g, rho
            rho = rho / (hy * g)
            g = diag - 1.0 / (hy * hy * g)
        # A unit top-flux mode loads row ny with 1 (its load q_i seg_i
        # transforms back to the mode under the half-cell weights), a unit
        # bottom datum loads row 1 with 1/hy. So x = T^-1 e_ny and
        # y = T^-1 e_1 / hy on rows 1 and 2; T is symmetric, so x_1 is also
        # T^-1 e_1 on row ny
        x1 = rho / g
        x2 = (rho2 + x1 / hy) / g2
        y1 = 1.0 / (hy * g)
        y2 = y1 / (hy * g2)
        rows = np.array([[np.zeros_like(x1), x1, x2],
                         [np.ones_like(y1), y1, y2]])
        self.forward, self.offset = conormal_values(rows, grid, Coefficient(),
                                                    GAMMA1)
        self.adjoint = -x1 / hy

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Mode coefficients of nodal values on a horizontal edge."""
        return self.basis @ (self._weights * values) / self._norms

    def matrices(self, *symbols: np.ndarray) -> tuple[np.ndarray, ...]:
        """Read-only dense nodal matrices basis diag(s) basis^-1, one per s."""
        inverse = self.basis * self._weights / self._norms[:, None]
        out = tuple((self.basis * s) @ inverse for s in symbols)
        for m in out:
            m.setflags(write=False)
        return out


class OperatorContext:
    """Grid, coefficient and source bundled with the maps' cached state.

    The context owns the forward map and its adjoint. With the constant
    coefficient and no source, which holds for every run a config can
    describe, and nx <= MAX_SPECTRAL_NX, the context is spectral: both maps
    are dense products of cosine transforms and per-mode symbols
    (CosineModes) from the first apply on, and nothing is factorized.

    Otherwise both maps start as sparse solves through a cached MixedSolver,
    counted in sparse_applies. Once that count reaches nx + 1, the number of
    column solves one assembly costs, the next apply assembles both dense
    matrices and every apply after it is a matvec. Assembly thus never
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
        self.spectral = (self.coefficient.fn is None and f is None
                         and grid.nx <= MAX_SPECTRAL_NX)
        self._modes: CosineModes | None = None
        self._solver: MixedSolver | None = None
        self.sparse_applies = 0
        self._maps: tuple[np.ndarray, np.ndarray] | None = None
        self._block_maps: tuple[np.ndarray, np.ndarray] | None = None
        self._normal: np.ndarray | None = None

    @property
    def modes(self) -> CosineModes:
        if self._modes is None:
            self._modes = CosineModes(self.grid)
        return self._modes

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
        """Read-only dense (forward, adjoint) matrices in the nodal basis:
        from the cosine symbols on a spectral context, else block_maps()."""
        if self._maps is None:
            if self.spectral:
                m = self.modes
                self._maps = m.matrices(m.forward, m.adjoint)
            else:
                self._maps = self.block_maps()
        return self._maps

    def block_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only dense (forward, adjoint) matrices from block solves.

        One block solve per ASSEMBLY_BLOCK top nodes gives X = A_ff^-1 E^T,
        the responses to unit loads on the top edge. A top flux q loads node
        j with q_j times its segment length, so the forward columns are the
        bottom conormal traces of X times those lengths. The adjoint is
        E A_ff^-1 A_fd, the map apply_adjoint solves for; A_ff is symmetric,
        so it equals (A_fd^T X)^T, the reactions of the same solves.
        """
        if self._block_maps is None:
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
            self._block_maps = (forward, adjoint)
        return self._block_maps

    def normal_matrix(self) -> np.ndarray:
        """Read-only adjoint @ forward, the Gauss-Newton matrix of the flux
        misfit in the nodal basis (assembling the maps if needed)."""
        if self._normal is None:
            forward, adjoint = self.assemble()
            self._normal = adjoint @ forward
            self._normal.setflags(write=False)
        return self._normal

    def dense_maps(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The dense maps on a spectral context, or once nx + 1 sparse
        applies have paid for them (assembling on the first call past that
        point), else None."""
        if self._maps is None and (self.spectral or (
                self.sparse_applies > self.grid.nx
                and self.grid.nx <= MAX_ASSEMBLE_NX)):
            self.assemble()
        return self._maps


def bottom_flux(ctx: OperatorContext, q: TraceFn | None = None,
                g1: TraceFn | None = None) -> TraceFn:
    """Bottom-edge conormal flux of the mixed problem with top flux q, bottom
    Dirichlet datum g1 (None means zero) and the context's source."""
    if ctx.spectral:
        m = ctx.modes
        hat = np.zeros(ctx.grid.nx + 1)
        if q is not None:
            hat += m.forward * m.coefficients(q.values)
        if g1 is not None:
            hat += m.offset * m.coefficients(g1.values)
        return TraceFn(ctx.grid, GAMMA1, m.basis @ hat)
    u = ctx.solver.solve(dirichlet={GAMMA1: g1}, neumann={GAMMA2: q}, f=ctx.f)
    return neumann_trace(u, ctx.coefficient, GAMMA1)


def compute_offset_z(ctx: OperatorContext, g1: TraceFn) -> TraceFn:
    """Bottom-edge flux produced by the known data alone (zero top flux)."""
    return bottom_flux(ctx, g1=g1)


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
    """Dense read-only matrix of the forward map in the nodal basis, from
    block solves on every context (see OperatorContext.block_maps)."""
    return ctx.block_maps()[0]


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
