"""Level-set representation of binary fluxes on the top edge.

A scalar profile phi encodes the flux q through a piecewise-linear smoothed
Heaviside: q = H_eps(phi) ramps from 0 to 1 as phi crosses the band
[-eps, 0]. The helpers here evaluate the ramp and its derivative, the total
variation curvature source, the screened-Poisson smoothing solve used by the
gradient flow, signed-distance initialization and redistancing, and
connected-component counts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import GAMMA2, Grid, TraceFn


def smoothed_heaviside(t: np.ndarray, eps: float) -> np.ndarray:
    """Piecewise-linear ramp: 0 below -eps, 1 above 0, linear in between."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    t = np.asarray(t, dtype=float)
    return np.minimum(np.maximum(t / eps + 1.0, 0.0), 1.0)


def smoothed_heaviside_deriv(t: np.ndarray, eps: float) -> np.ndarray:
    """Derivative of the ramp; the kink points carry the band value 1/eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    t = np.asarray(t, dtype=float)
    return ((t >= -eps) & (t <= 0.0)) / eps


def sharp_indicator(t: np.ndarray) -> np.ndarray:
    """Binary indicator of {phi >= 0}."""
    return (np.asarray(t, dtype=float) >= 0.0).astype(float)


@lru_cache(maxsize=8)
def _difference_stencil(n: int,
                        h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (hi, lo, den) of centered_derivative on n nodes of spacing
    h: node i takes (f[hi[i]] - f[lo[i]]) / den[i]."""
    if n < 2:
        raise ValueError("a derivative needs at least two nodes")
    hi = np.minimum(np.arange(1, n + 1), n - 1)
    lo = np.maximum(np.arange(-1, n - 1), 0)
    # h at the ends and 2.0 * h inside, both exact products
    den = (hi - lo) * h
    for a in (hi, lo, den):
        a.flags.writeable = False
    return hi, lo, den


def centered_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """np.gradient(f, h) of a 1-D f: centered inside, first-order one-sided
    differences at the two ends, as one gather (the same bits as
    np.gradient)."""
    hi, lo, den = _difference_stencil(f.size, h)
    return (f[hi] - f[lo]) / den


def curvature_term(ramp: np.ndarray, h: float, eta: float,
                   beta: float) -> np.ndarray:
    """Total-variation curvature source beta * d/dx [ H' / sqrt(H'^2 + eta^2) ]
    of ramp values H = H_eps(phi) at nodes of spacing h.

    Derivatives are centered with first-order one-sided ends. eta > 0 keeps
    the normalization away from division by zero on flat stretches.
    """
    g = centered_derivative(ramp, h)
    norm = g * g
    norm += eta * eta
    np.sqrt(norm, out=norm)
    np.divide(g, norm, out=g)
    return beta * centered_derivative(g, h)


def tridiagonal_solver(d: np.ndarray,
                       e: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Solver of the SPD tridiagonal matrix with diagonal d, off-diagonal e.

    LAPACK pttrf factors it once and each call is one pttrs: the two halves
    of the ptsv behind scipy's solveh_banded, so a call gives its bits
    without its per-call checks and refactorization.
    """
    d, e, info = dpttrf(d, e)
    if info != 0:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return lambda b: dpttrs(d, e, b)[0]


class NeumannHelmholtz:
    """(I - d2/dx2 + coupling) w = rhs on n nodes of spacing h, zero-flux ends.

    End rows are the centered ghost equations scaled by 1/2, which matches a
    half end cell and keeps the tridiagonal matrix symmetric positive
    definite; rhs and the rows of coupling get the same scaling. Without
    coupling, sampled cosines cos(k pi x / width) are exact eigenvectors of
    the discrete system, and the trapezoid mean of w equals that of rhs
    exactly. coupling is a dense nodal matrix. The tridiagonal matrix is
    factored once, its dense form built on the first coupled solve.
    """

    def __init__(self, n: int, h: float):
        inv_h2 = 1.0 / (h * h)
        self._diag = np.full(n, 1.0 + 2.0 * inv_h2)
        self._diag[[0, -1]] = 0.5 + inv_h2
        self._off = np.full(n - 1, -inv_h2)
        # the end-row scaling, applied to rhs and to coupling's rows
        self._half_ends = np.ones(n)
        self._half_ends[[0, -1]] = 0.5
        self._solve = tridiagonal_solver(self._diag, self._off)
        self._dense: np.ndarray | None = None

    def solve(self, rhs: np.ndarray,
              coupling: np.ndarray | None = None) -> np.ndarray:
        b = rhs * self._half_ends
        if coupling is None:
            return self._solve(b)
        if self._dense is None:
            self._dense = (np.diag(self._diag) + np.diag(self._off, 1)
                           + np.diag(self._off, -1))
        return np.linalg.solve(
            self._dense + coupling * self._half_ends[:, None], b)


def solve_helmholtz_neumann(rhs: TraceFn,
                            coupling: np.ndarray | None = None) -> TraceFn:
    """One NeumannHelmholtz solve on the top edge of rhs's grid."""
    solver = NeumannHelmholtz(rhs.values.size, rhs.grid.hx)
    return rhs.with_values(solver.solve(rhs.values, coupling))


def init_levelset(grid: Grid, intervals: Sequence[tuple[float, float]],
                  eps: float, constant: float | None = None) -> TraceFn:
    """Signed-distance-like profile for a union of intervals on the top edge.

    phi(x) = dist(x, complement of D) - dist(x, D), clipped to [-3 eps,
    3 eps], so crossings start with unit slope. An empty union gives the
    constant -3 eps; passing constant short-circuits to that value.
    """
    x = grid.xs
    if constant is not None:
        return TraceFn(grid, GAMMA2, np.full(x.size, float(constant)))
    if not eps > 0:
        raise ValueError("eps must be positive")
    if len(intervals) == 0:
        return TraceFn(grid, GAMMA2, np.full(x.size, -3.0 * eps))
    ivals = sorted((float(a), float(b)) for a, b in intervals)
    for a, b in ivals:
        if not a < b:
            raise ValueError(f"degenerate interval ({a}, {b})")
    for (_, b0), (a1, _) in zip(ivals, ivals[1:]):
        if b0 >= a1:
            raise ValueError("intervals must be disjoint")

    dist_to_d = np.full(x.size, np.inf)
    dist_inside = np.full(x.size, np.inf)
    inside = np.zeros(x.size, dtype=bool)
    for a, b in ivals:
        dist_to_d = np.minimum(dist_to_d, np.maximum(np.maximum(a - x, x - b), 0.0))
        member = (x >= a) & (x <= b)
        inside |= member
        # distance to the complement, seen from inside this interval
        dist_inside = np.where(member,
                               np.minimum(dist_inside, np.minimum(x - a, b - x)),
                               dist_inside)
    phi = np.where(inside, dist_inside, -dist_to_d)
    return TraceFn(grid, GAMMA2, np.clip(phi, -3.0 * eps, 3.0 * eps))


def redistance(vals: np.ndarray, x: np.ndarray, h: float,
               eps: float) -> np.ndarray:
    """Profile for band width eps whose mid-level set {q > 1/2} is q's own,
    from the values of q at nodes x with spacing h.

    The fronts sit where the piecewise-linear interpolant of q crosses 1/2;
    the side walls are not fronts. The new profile is the signed distance to
    the nearest front (positive inside) shifted down by eps/2, the ramp
    value 1/2, and clipped to [-3 eps, 3 eps] like init_levelset. A node
    therefore stays in the band only if a front lies within eps/2 of it.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    inside = vals > 0.5
    cross = np.flatnonzero(inside[1:] != inside[:-1])
    if cross.size == 0:
        phi = np.where(inside, 3.0 * eps, -3.0 * eps)
    else:
        lo, hi = vals[cross], vals[cross + 1]
        fronts = x[cross] + h * (0.5 - lo) / (hi - lo)
        dist = np.abs(x[:, None] - fronts[None, :]).min(axis=1)
        phi = np.where(inside, dist, -dist) - 0.5 * eps
    return np.clip(phi, -3.0 * eps, 3.0 * eps)


def component_count(q: np.ndarray, threshold: float = 0.5) -> int:
    """Number of maximal runs of nodes with q > threshold."""
    above = np.asarray(q, dtype=float) > threshold
    if above.size == 0:
        return 0
    return int(np.count_nonzero(above[1:] > above[:-1])) + int(above[0])
