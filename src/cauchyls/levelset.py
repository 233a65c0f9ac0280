"""Level-set representation of binary fluxes on the top edge.

A scalar profile phi encodes the flux q through a piecewise-linear smoothed
Heaviside: q = H_eps(phi) ramps from 0 to 1 as phi crosses the band
[-eps, 0]. The helpers here evaluate the ramp and its derivative, the total
variation curvature source, the screened-Poisson smoothing solve used by the
gradient flow, signed-distance initialization and connected-component counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solveh_banded

from .grid import GAMMA2, Grid, TraceFn


def smoothed_heaviside(t: np.ndarray, eps: float) -> np.ndarray:
    """Piecewise-linear ramp: 0 below -eps, 1 above 0, linear in between."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    t = np.asarray(t, dtype=float)
    return np.clip(1.0 + t / eps, 0.0, 1.0)


def smoothed_heaviside_deriv(t: np.ndarray, eps: float) -> np.ndarray:
    """Derivative of the ramp; the kink points carry the band value 1/eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    t = np.asarray(t, dtype=float)
    return np.where((t >= -eps) & (t <= 0.0), 1.0 / eps, 0.0)


def sharp_indicator(t: np.ndarray) -> np.ndarray:
    """Binary indicator of {phi >= 0}."""
    return (np.asarray(t, dtype=float) >= 0.0).astype(float)


@dataclass(frozen=True)
class LevelSetState:
    """Profile phi on the top edge together with its smoothing width."""

    phi: TraceFn
    eps: float

    def __post_init__(self):
        if self.phi.part is not GAMMA2:
            raise ValueError("level-set profile lives on the top edge")
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    @property
    def q(self) -> TraceFn:
        return self.phi.with_values(smoothed_heaviside(self.phi.values, self.eps))


def curvature_term(phi: TraceFn, eps: float, eta: float, beta: float) -> TraceFn:
    """Total-variation curvature source beta * d/dx [ H' / sqrt(H'^2 + eta^2) ].

    Derivatives are centered with second-order one-sided ends. eta keeps the
    normalization away from division by zero on flat stretches.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    h = phi.grid.hx
    hv = smoothed_heaviside(phi.values, eps)
    g = np.gradient(hv, h)
    n = g / np.sqrt(g * g + eta * eta)
    return phi.with_values(beta * np.gradient(n, h))


def _helmholtz_bands(n: int, h: float) -> np.ndarray:
    """Upper banded form of the symmetrized (I - d2/dx2) Neumann system.

    End rows are the centered ghost equations scaled by 1/2, which matches a
    half end cell and keeps the tridiagonal matrix symmetric positive
    definite. Callers must scale the end entries of the right-hand side by
    the same 1/2.
    """
    inv_h2 = 1.0 / (h * h)
    ab = np.zeros((2, n))
    ab[0, 1:] = -inv_h2
    ab[1, :] = 1.0 + 2.0 * inv_h2
    ab[1, 0] = ab[1, -1] = 0.5 + inv_h2
    return ab


def scale_neumann_rhs(rhs: np.ndarray) -> np.ndarray:
    """Half-cell scaling of the right-hand side matching the end rows."""
    out = np.asarray(rhs, dtype=float).copy()
    out[0] *= 0.5
    out[-1] *= 0.5
    return out


def solve_helmholtz_neumann(rhs: TraceFn) -> TraceFn:
    """Solve (I - d2/dx2) w = rhs on the top edge with zero-flux ends.

    Sampled cosines cos(k pi x / width) are exact eigenvectors of the
    discrete system, and the trapezoid mean of w equals that of rhs exactly.
    """
    n = rhs.values.size
    ab = _helmholtz_bands(n, rhs.grid.hx)
    w = solveh_banded(ab, scale_neumann_rhs(rhs.values))
    return rhs.with_values(w)


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


def component_count(q: TraceFn | np.ndarray, threshold: float = 0.5) -> int:
    """Number of maximal runs of nodes with q > threshold."""
    vals = q.values if isinstance(q, TraceFn) else np.asarray(q, dtype=float)
    above = vals > threshold
    if not above.any():
        return 0
    return int(np.sum(above[1:] & ~above[:-1]) + int(above[0]))
