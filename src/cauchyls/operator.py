"""Forward operator, data offset and adjoint for the flux identification problem.

The unknown is the conormal flux q on the top edge. Superposition splits the
underdetermined boundary-value problem into a linear part driven only by q
and an affine offset z driven by the known data, so the measured bottom-edge
flux satisfies (forward map)(q) = g2 - z. All three maps below solve a mixed
problem with Dirichlet data on the bottom edge and Neumann data elsewhere.

The paper's problem has the constant coefficient and no source, so the
discrete problem separates: the nodal cosine modes cos(k pi x) diagonalize
all three maps, and the constant-coefficient tridiagonal solve in y gives
their per-mode symbols in closed form. Cosine transforms are real FFTs.
The dense forward and adjoint matrices are Toeplitz-plus-Hankel forms of
those symbols, so every apply is a dense matvec. All of this depends on the
grid alone, so one OperatorContext per grid holds it, and a small
per-process cache keyed by the grid (operator_context) builds that context
once for every caller on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grid import (GAMMA1, GAMMA2, BoundaryPart, Grid, TraceFn,
                   quadrature_weights)
from .pde import SolverError, conormal_values

# decay_slope fits log(sigma_k) up to this 1-based position by default
DECAY_FIT_LAST = 15
# grids whose OperatorContext operator_context keeps; a run uses two,
# the inversion grid and the synthesis grid
GRID_CACHE_SIZE = 8


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
        if not self.g1.grid == self.g2.grid == self.z.grid:
            raise ValueError("Cauchy data and offset live on one grid")
        if not self.delta >= 0:
            raise ValueError("noise magnitude cannot be negative")

    @property
    def rhs(self) -> TraceFn:
        return self.g2.with_values(self.g2.values - self.z.values)


class OperatorContext:
    """A grid's nodal cosine modes, the per-mode symbols of its maps and
    their dense matrices.

    C[i, k] = cos(k pi i / nx) is the DCT-I; no matrix of it is formed. Its
    inverse comes from the orthogonality of the modes under the trapezoid
    rule: with end weights w = 1/2, sum_i w_i cos(k pi i / nx) cos(l pi i / nx)
    is N_k = nx / 2 for k = l strictly between 0 and nx, nx for k = l in
    {0, nx} and 0 otherwise. Both directions are one real FFT of the even
    extension of length 2 nx.

    On the constant-coefficient problem without a source, mode k separates
    from the others. Its y-profile over the free rows 1..ny solves
    T_k = mu_k D_y + K_y, with D_y the half-cell row weights, K_y the
    y-stencil and mu_k (stored as mu) the eigenvalue of MixedSolver's
    x-stencil over its half-cell weights. mu_k = (2 sin(k pi / (2 nx)) /
    hx)^2 is (2 - 2 cos(k pi / nx)) / hx^2 without that form's
    cancellation at low k. T_k has constant coefficients, so its solves
    are closed forms in theta_k, with cosh(theta_k) = 1 + hy^2 mu_k / 2.
    symbols holds, in this order, the symbols of apply_forward (top flux
    -> bottom conormal trace), apply_adjoint (bottom Dirichlet -> negated
    top trace) and compute_offset_z (bottom Dirichlet -> bottom conormal
    trace).

    The dense matrices (maps, smoothing, neumann, derivative, normal) are
    built the first time they are read, so a context that only transforms,
    as on a synthesis grid, builds none. Nothing is factorized. forward and
    adjoint apply the maps with np.dot, the BLAS gemv of @ without the cost
    of its ufunc dispatch. Every array a context holds is read-only, since
    the per-grid cache (operator_context) shares one context between all
    its callers.
    """

    def __init__(self, grid: Grid):
        nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
        self.grid = grid
        k = np.arange(nx + 1)
        # trapezoid weights over hx, 1/2 at the ends (exact: a power of 2)
        self._weights = quadrature_weights(grid, GAMMA2) / hx
        # 2 N_k: the FFT of the even extension sums every interior node twice
        self._norms = nx / self._weights

        # Eliminating T_k from the top row down leaves the pivot
        # cosh((j + 1) theta) / (hy cosh(j theta)) at j rows below the top
        # and the load e_ny reduced by 1 / cosh(j theta). So the unit
        # top-flux mode (load 1 on row ny) has x = hy sech(ny theta) on row
        # 1 and 2 hy cosh(theta) sech(ny theta) on row 2, and the unit bottom
        # datum (load 1/hy on row 1) has y = cosh((ny - m) theta) /
        # cosh(ny theta) on row m. ratio holds cosh(m theta) / cosh(ny theta)
        # for m = 0, 1, ny - 1, ny - 2, written with e^-theta so that nothing
        # overflows.
        self.mu = mu = (2.0 * np.sin(np.pi * k / (2 * nx)) / hx) ** 2
        theta = 2.0 * np.arcsinh(0.5 * hy * np.sqrt(mu))
        m = np.array([0, 1, ny - 1, ny - 2])[:, None]
        ratio = ((np.exp((m - ny) * theta) + np.exp(-(m + ny) * theta))
                 / (1.0 + np.exp(-2 * ny * theta)))
        rows = np.array([[np.zeros(nx + 1), hy * ratio[0], 2.0 * hy * ratio[1]],
                         [np.ones(nx + 1), ratio[2], ratio[3]]])
        forward, offset = conormal_values(rows, grid, GAMMA1)
        self.symbols = (forward, -ratio[0], offset)
        arrays = (mu, *self.symbols, self._weights, self._norms)
        # the x-stencil 1/hx^2 overflows on a strip too narrow for its columns
        if not all(np.isfinite(a).all() for a in arrays):
            raise SolverError(f"the cosine symbols of the {nx} x {ny} grid "
                              f"are not finite (hx = {hx:g}, hy = {hy:g})")
        for a in arrays:
            a.setflags(write=False)

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Mode coefficients of nodal values on a horizontal edge."""
        even = np.concatenate((values, values[-2:0:-1]))
        return np.fft.rfft(even).real / self._norms

    def synthesize(self, hat: np.ndarray) -> np.ndarray:
        """Nodal values sum_k hat_k cos(k pi i / nx) of mode coefficients."""
        nx = self.grid.nx
        return np.fft.irfft(hat * self._norms, 2 * nx)[:nx + 1]

    def matrices(self, *symbols: np.ndarray) -> tuple[np.ndarray, ...]:
        """Read-only dense nodal matrices C diag(s) C^-1, one per s.

        Entry (i, j) is (f(|i - j|) + f(i + j)) w_j / 2 with f(m) =
        sum_k s_k / N_k cos(k pi m / nx): a Toeplitz plus a Hankel matrix.
        One inverse FFT gives f(m) / 2 over a period 0..2 nx - 1 for every
        s; wrapped on to 3 nx, window row a holds f(a + j), so rows 0..nx
        are the Hankel part and rows 2 nx down to nx the Toeplitz part.
        """
        nx = self.grid.nx
        f = np.fft.irfft(np.stack(symbols), 2 * nx)
        f = np.concatenate((f, f[:, :nx + 1]), axis=1)
        window = np.lib.stride_tricks.sliding_window_view(f, nx + 1, axis=1)
        out = window[:, :nx + 1] + window[:, :nx - 1:-1]
        out *= self._weights
        out.setflags(write=False)
        return tuple(out)

    @cached_property
    def maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (forward, adjoint) matrices on nodal values."""
        return self.matrices(*self.symbols[:2])

    @cached_property
    def smoothing(self) -> np.ndarray:
        """S = C diag(1 / (1 + mu_k)) C^-1 on the top-edge nodes.

        S is the inverse of I - d2/dx2 with zero-flux ends (neumann before
        its end rows are halved), the uncoupled levelset.helmholtz_solve:
        the DCT-I diagonalizes the Neumann second difference (Strang, SIAM
        Review 41, 1999), with the x-stencil eigenvalue mu_k.
        """
        return self.matrices(1.0 / (1.0 + self.mu))[0]

    @cached_property
    def neumann(self) -> np.ndarray:
        """I - d2/dx2 with zero-flux ends on the top-edge nodes, its end rows
        halved (a half end cell keeps it symmetric positive definite). Only
        the implicit Tikhonov step reads it."""
        n, inv_h2 = self.grid.nx + 1, 1.0 / (self.grid.hx * self.grid.hx)
        off = np.full(n - 1, -inv_h2)
        neumann = np.diag(np.full(n, 1.0 + 2.0 * inv_h2)) \
            + np.diag(off, 1) + np.diag(off, -1)
        neumann[[0, -1], [0, -1]] = 0.5 + inv_h2
        neumann.setflags(write=False)
        return neumann

    @cached_property
    def derivative(self) -> np.ndarray:
        """D, the np.gradient matrix on the top-edge nodes: centered
        differences inside and first-order one-sided ones at the two ends.
        Column j is np.gradient of the unit vector e_j."""
        d = np.gradient(np.eye(self.grid.nx + 1), self.grid.hx, axis=0)
        d.setflags(write=False)
        return d

    @cached_property
    def normal(self) -> np.ndarray:
        """adjoint @ forward, the Gauss-Newton matrix of the flux misfit on
        nodal values. Only the implicit Tikhonov step reads it, so only the
        cached grids that ran one hold it."""
        forward, adjoint = self.maps
        normal = adjoint @ forward
        normal.setflags(write=False)
        return normal

    def forward(self, values: np.ndarray) -> np.ndarray:
        """apply_forward on nodal values, unchecked."""
        return np.dot(self.maps[0], values)

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        """apply_adjoint on nodal values, unchecked, like forward."""
        return np.dot(self.maps[1], values)


@lru_cache(maxsize=GRID_CACHE_SIZE)
def operator_context(grid: Grid) -> OperatorContext:
    """The grid's OperatorContext, built once per process for the last
    GRID_CACHE_SIZE grids. A grid whose symbols raise SolverError is not
    kept, so it raises again on the next call."""
    return OperatorContext(grid)


def check_trace(grid: Grid, t: TraceFn | None, part: BoundaryPart,
                name: str) -> None:
    """Reject a named trace off the given part of the grid; None passes."""
    if t is not None and (t.part is not part or t.grid != grid):
        raise ValueError(f"the {name} must be a {part.value} trace on the "
                         f"context grid")


def bottom_flux(ctx: OperatorContext, q: TraceFn | None = None,
                g1: TraceFn | None = None) -> TraceFn:
    """Bottom-edge conormal flux of the mixed problem with top flux q and
    bottom Dirichlet datum g1 (None means zero), through the cosine symbols
    of the context grid; no dense map is built."""
    check_trace(ctx.grid, q, GAMMA2, "flux")
    check_trace(ctx.grid, g1, GAMMA1, "datum")
    forward, _, offset = ctx.symbols
    hat = np.zeros(ctx.grid.nx + 1)
    if q is not None:
        hat += forward * ctx.coefficients(q.values)
    if g1 is not None:
        hat += offset * ctx.coefficients(g1.values)
    return TraceFn(ctx.grid, GAMMA1, ctx.synthesize(hat))


def compute_offset_z(ctx: OperatorContext, g1: TraceFn) -> TraceFn:
    """Bottom-edge flux produced by the known data alone (zero top flux)."""
    return bottom_flux(ctx, g1=g1)


def apply_forward(ctx: OperatorContext, q: TraceFn) -> TraceFn:
    """Bottom-edge flux produced by a top-edge flux q (zero bottom data)."""
    check_trace(ctx.grid, q, GAMMA2, "flux")
    return TraceFn(ctx.grid, GAMMA1, ctx.forward(q.values))


def apply_adjoint(ctx: OperatorContext, r: TraceFn) -> TraceFn:
    """Adjoint of the forward map under the trace-weighted L2 pairings.

    Solves the homogeneous problem with Dirichlet value r on the bottom edge
    and returns the negated top-edge Dirichlet trace. Green's identity gives
    <forward(q), r> = <q, adjoint(r)> up to discretization error.
    """
    check_trace(ctx.grid, r, GAMMA1, "residual")
    return TraceFn(ctx.grid, GAMMA2, ctx.adjoint(r.values))


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
