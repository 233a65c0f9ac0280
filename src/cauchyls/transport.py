"""Level-set transport method driven by a potential-flow velocity.

The sharp indicator q = [phi >= 0] is evolved by advecting phi with a
velocity field V = psi' on the top edge, where psi solves a Poisson problem
whose source couples the adjoint-applied residual with the sign of the
current indicator. That choice makes the indicator error contract along the
flow for consistent data. Each iteration takes one first-order upwind
step that moves fronts at most half a cell, a Courant number of at most
1/2, so profile bounds never expand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import TraceFn
from .levelset import (centered_derivative, sharp_indicator,
                       tridiagonal_solver)
from .operator import CauchyData, OperatorContext
from .record import RunRecord, run_flow

VELOCITY_FLOOR = 1e-12


@dataclass(frozen=True)
class TransportParams:
    """Step cap dt and indicator-sign clamp eps_clamp.

    eps_clamp only acts on a fractional indicator: the sharp indicator has
    |2q - 1| = 1 at every node.
    """

    dt: float = 1.0
    eps_clamp: float = 0.1
    tau: float = 1.5
    max_iters: int = 5000
    target_error: float | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 < self.eps_clamp <= 1:
            raise ValueError("eps_clamp must lie in (0, 1]")
        if not self.max_iters >= 0:
            raise ValueError("max_iters cannot be negative")


def dirichlet_poisson(n: int, h: float) -> Callable[[np.ndarray], np.ndarray]:
    """Solver of -d2/dx2 on the n - 2 interior nodes of spacing h."""
    return tridiagonal_solver(np.full(n - 2, 2.0 / (h * h)),
                              np.full(n - 3, -1.0 / (h * h)))


def front_velocity(q: np.ndarray, grad: np.ndarray, eps_clamp: float,
                   poisson: Callable[[np.ndarray], np.ndarray],
                   h: float) -> np.ndarray:
    """Velocity V = psi' with -psi'' = 2 * grad / (2q - 1) on nodes of
    spacing h; grad is the adjoint-applied residual and poisson is
    dirichlet_poisson on q's nodes.

    psi vanishes at both ends of the top edge. The denominator is clamped
    away from zero at eps_clamp, with sign +1 at an exact zero; that only
    acts on a fractional q, since a sharp q has |2q - 1| = 1. V is the
    centered difference of psi inside and zero at the two end nodes.
    """
    s = 2.0 * q - 1.0
    sign = np.where(s >= 0.0, 1.0, -1.0)
    s = np.where(np.abs(s) < eps_clamp, eps_clamp * sign, s)
    rhs = 2.0 * grad / s
    psi = np.zeros(rhs.size)
    psi[1:-1] = poisson(rhs[1:-1])
    v = centered_derivative(psi, h)
    v[0] = v[-1] = 0.0
    return v


def upwind_step(phi: np.ndarray, v: np.ndarray, dt: float, h: float) -> np.ndarray:
    """Single first-order upwind update; the caller enforces the CFL bound.

    Interior nodes difference against the upwind neighbor. At the ends only
    the interior-side difference exists, so outflow uses it and inflow holds
    the value; under the CFL bound the update is a convex combination and
    min/max bounds are preserved.
    """
    phi = np.asarray(phi, dtype=float)
    v = np.asarray(v, dtype=float)
    # diff[i] = (phi[i] - phi[i - 1]) / h, with 0 beyond both ends (no
    # upwind neighbor: inflow holds the value); diff[:-1] is the backward
    # difference at each node and diff[1:] the forward one
    diff = np.zeros(phi.size + 1)
    inner = diff[1:-1]
    np.subtract(phi[1:], phi[:-1], out=inner)
    inner /= h
    flux = np.maximum(v, 0.0)
    flux *= diff[:-1]
    downwind = np.minimum(v, 0.0)
    downwind *= diff[1:]
    flux += downwind
    flux *= dt
    return phi - flux


def transport_step(phi: np.ndarray, v: np.ndarray, vmax: float,
                   dt_max: float, h: float) -> tuple[np.ndarray, float]:
    """One upwind step of length dt = min(dt_max, h / (2 max|v|)), and dt;
    vmax is max|v|.

    The cap moves fronts at most half a cell, a Courant number of at most
    1/2, inside the upwind scheme's CFL bound, so the step keeps the
    profile's min/max bounds.
    """
    dt = min(dt_max, 0.5 * h / max(vmax, VELOCITY_FLOOR))
    return upwind_step(phi, v, dt, h), dt


def run_transport(phi0: TraceFn, data: CauchyData, ctx: OperatorContext,
                  params: TransportParams, truth: TraceFn | None = None,
                  snapshot_iters=()) -> RunRecord:
    """Iterate the transport flow with the adaptive step.

    Each iteration is one transport_step of length min(dt, 0.5 h / max|V|),
    so fronts move at most half a cell per iteration. Stopping is
    record.run_flow's, as for the gradient flow: discrepancy for noisy data
    (tau > 1 required), target error when truth is given, stagnation of the
    velocity max|V|, or the cap. When truth is supplied the record's
    asymp_gap stream holds the discrete violation of the error-contraction
    identity d/dt ||q - truth||^2 = -2 ||residual||^2, that is
    (e[k+1]^2 - e[k]^2) / dt_k + 2 r[k]^2 for each step k; it is recorded,
    not asserted.

    Since fronts move at most half a cell per step, q changes only when a
    front crosses a node, and most iterations leave it as it was. The
    indicator then returns the previous array, so run_flow reuses its
    residual (see run_flow), and the step reuses the velocity and vmax it
    computed for that residual array: both are functions of q and r alone,
    so every output is the same bit for bit. A non-finite velocity makes
    the profile non-finite, which run_flow reports.
    """
    h = ctx.grid.hx
    poisson = dirichlet_poisson(ctx.grid.nx + 1, h)
    dts = []
    q_prev = q_bytes = r_prev = velocity = None

    def indicator(phi: np.ndarray) -> np.ndarray:
        # a sharp q holds only 0.0 and 1.0, so equal bytes are equal values
        nonlocal q_prev, q_bytes
        q = sharp_indicator(phi)
        b = q.tobytes()
        if b != q_bytes:
            q_prev, q_bytes = q, b
        return q_prev

    def step(phi: np.ndarray, q: np.ndarray,
             r: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal r_prev, velocity
        if r is not r_prev:
            v = front_velocity(q, ctx.adjoint(r), params.eps_clamp, poisson,
                               h)
            velocity = v, float(np.max(np.abs(v)))
            r_prev = r
        v, vmax = velocity
        phi, dt = transport_step(phi, v, vmax, params.dt, h)
        dts.append(dt)
        return phi, vmax

    out = run_flow(phi0, data, ctx, params, indicator, step, truth,
                   snapshot_iters)
    if out.errors is not None:
        e, res = out.errors, out.residuals
        out.asymp_gap = [(e[k + 1] ** 2 - e[k] ** 2) / dt + 2.0 * res[k] ** 2
                         for k, dt in enumerate(dts)]
    return out
