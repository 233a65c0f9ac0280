"""Level-set representation of binary fluxes on the top edge.

A scalar profile phi encodes the flux q through a piecewise-linear smoothed
Heaviside: q = H_eps(phi) ramps from 0 to 1 as phi crosses the band
[-eps, 0]. The helpers here evaluate the ramp, its derivative and band, the
normalized slope inside the total-variation curvature source, the
screened-Poisson smoothing of a top-edge trace (one matvec by its grid
context's cached cosine-diagonal inverse; the flow's coupled solve is
OperatorContext.neumann_solve), interval membership, the signed distance
to a set of fronts (interval ends for initialization, 1/2-crossings for
redistancing) and connected-component counts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import GAMMA2, Grid, TraceFn
from .operator import operator_context


def smoothed_heaviside(t: np.ndarray, eps: float,
                       band: np.ndarray | None = None) -> np.ndarray:
    """Piecewise-linear ramp: 0 below -eps, 1 above 0, linear in between.

    band, a boolean array of t's shape, receives the ramp's band, read off
    the unclipped ramp argument: s = t / eps lies in [-1, 0] exactly when
    s (s + 1) <= 0. That is the support of smoothed_heaviside_deriv
    wherever t / eps does not underflow, so for every eps < 2; above, a
    subnormal t > 0 whose quotient rounds to 0 joins the band.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    s = np.asarray(t, dtype=float) / eps
    ramp = s + 1.0
    if band is not None:
        s *= ramp
        np.less_equal(s, 0.0, out=band)
    return np.minimum(np.maximum(ramp, 0.0), 1.0)


def smoothed_heaviside_deriv(t: np.ndarray, eps: float) -> np.ndarray:
    """Derivative of the ramp: 1/eps on -eps <= t <= 0, kinks included."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    t = np.asarray(t, dtype=float)
    return ((t >= -eps) & (t <= 0.0)) / eps


def sharp_indicator(t: np.ndarray) -> np.ndarray:
    """Binary indicator of {phi >= 0}."""
    return (np.asarray(t, dtype=float) >= 0.0).astype(float)


def curvature_term(ramp: np.ndarray, derivative: np.ndarray, eta: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Normalized slope u = H' / sqrt(H'^2 + eta^2) of ramp values H =
    H_eps(phi), with H' = derivative @ ramp, written into out if given.

    derivative is the context's np.gradient matrix, so the total-variation
    curvature source is beta * derivative @ u; the Tikhonov flow folds that
    outer derivative into one matrix with its adjoint. eta > 0 keeps the
    normalization away from division by zero on flat stretches.
    """
    g = np.dot(derivative, ramp)
    return np.divide(g, np.hypot(g, eta), out=out)


def solve_helmholtz_neumann(rhs: TraceFn) -> TraceFn:
    """w with (I - d2/dx2) w = rhs and zero-flux ends on the top edge of
    rhs's grid: one matvec by the grid context's smoothing matrix."""
    smoothing = operator_context(rhs.grid).smoothing
    return rhs.with_values(np.dot(smoothing, rhs.values))


def interval_mask(x: np.ndarray, intervals) -> np.ndarray:
    """Membership of each x in a union of closed intervals [a, b]."""
    inside = np.zeros(x.size, dtype=bool)
    for a, b in intervals:
        inside |= (x >= a) & (x <= b)
    return inside


def _signed_distance(x: np.ndarray, fronts: np.ndarray,
                     inside: np.ndarray) -> np.ndarray:
    """Distance from each node x to the nearest front, positive where inside
    and negative elsewhere; +-inf when there is no front."""
    dist = np.abs(x[:, None] - fronts[None, :]).min(axis=1, initial=np.inf)
    return np.where(inside, dist, -dist)


def disjoint_intervals(intervals: Sequence[tuple[float, float]]
                       ) -> tuple[tuple[float, float], ...]:
    """The intervals as sorted (a, b) float pairs, each with a < b and no
    two overlapping or touching; ValueError otherwise."""
    ivals = tuple(sorted((float(a), float(b)) for a, b in intervals))
    for a, b in ivals:
        if not a < b:
            raise ValueError(f"degenerate interval ({a}, {b})")
    for (a0, b0), (a1, b1) in zip(ivals, ivals[1:]):
        if b0 >= a1:
            raise ValueError(f"intervals must be disjoint, got {a0}:{b0} "
                             f"and {a1}:{b1}")
    return ivals


def init_levelset(grid: Grid, intervals: Sequence[tuple[float, float]],
                  eps: float) -> TraceFn:
    """Signed-distance profile for a union of disjoint intervals on the top
    edge (see disjoint_intervals), clipped to [-3 eps, 3 eps], so crossings
    start with unit slope.

    The fronts are the interval ends: for disjoint intervals the nearest
    end is the nearest boundary point of the union, inside and outside. An
    empty union has no front and gives the constant -3 eps.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    ivals = disjoint_intervals(intervals)
    x = grid.xs
    phi = _signed_distance(x, np.array(ivals).reshape(-1),
                           interval_mask(x, ivals))
    return TraceFn(grid, GAMMA2, np.clip(phi, -3.0 * eps, 3.0 * eps))


def redistance(vals: np.ndarray, x: np.ndarray, h: float,
               eps: float) -> np.ndarray:
    """Profile for band width eps whose mid-level set {q > 1/2} is q's own,
    from the values of q at nodes x with spacing h.

    The fronts sit where the piecewise-linear interpolant of q crosses 1/2;
    the side walls are not fronts. The new profile is the signed distance to
    the nearest front shifted down by eps/2, the ramp value 1/2, and clipped
    to [-3 eps, 3 eps] like init_levelset, so a q without fronts gives the
    constant 3 eps or -3 eps. A node therefore stays in the band only if a
    front lies within eps/2 of it.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    inside = vals > 0.5
    cross = np.flatnonzero(inside[1:] != inside[:-1])
    lo, hi = vals[cross], vals[cross + 1]
    fronts = x[cross] + h * (0.5 - lo) / (hi - lo)
    phi = _signed_distance(x, fronts, inside) - 0.5 * eps
    return np.clip(phi, -3.0 * eps, 3.0 * eps)


def component_count(q: np.ndarray) -> int | np.ndarray:
    """Components of the mid-level set, maximal runs of nodes with q > 1/2.

    A 2-D q is a stack of rows, and the result the array of their counts:
    one rising-edge count per row.
    """
    above = np.asarray(q, dtype=float) > 0.5
    # a run starts at each rising edge and at a first node above 1/2
    counts = np.add.reduce(above[..., 1:] > above[..., :-1], axis=-1) \
        + np.add.reduce(above[..., :1], axis=-1)
    return int(counts) if above.ndim == 1 else counts
