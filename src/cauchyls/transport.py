"""Level-set transport method driven by a potential-flow velocity.

The sharp indicator q = [phi >= 0] is evolved by advecting phi with a
velocity field V = psi' on the top edge, where psi solves a Poisson problem
whose source couples the adjoint-applied residual with the sign of the
current indicator. That choice makes the indicator error contract along the
flow for consistent data. Transport uses first-order upwind differences
with Courant-limited sub-stepping, so profile bounds never expand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .grid import TraceFn
from .levelset import sharp_indicator
from .operator import CauchyData, OperatorContext, apply_adjoint
from .record import RunRecord, run_flow

VELOCITY_FLOOR = 1e-12


@dataclass(frozen=True)
class TransportParams:
    """Outer step cap dt, indicator-sign clamp and Courant bound."""

    dt: float = 1.0
    eps_clamp: float = 0.1
    tau: float = 1.5
    max_iters: int = 5000
    cfl_max: float = 0.9
    target_error: float | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 < self.eps_clamp <= 1:
            raise ValueError("eps_clamp must lie in (0, 1]")
        if not 0 < self.cfl_max <= 0.9:
            raise ValueError("cfl_max must lie in (0, 0.9]")
        if self.max_iters < 0:
            raise ValueError("max_iters cannot be negative")


def front_velocity(q: TraceFn, residual: TraceFn, ctx: OperatorContext,
                   params: TransportParams) -> TraceFn:
    """Velocity V = psi' with -psi'' = 2 * adjoint(residual) / (2q - 1).

    psi vanishes at both ends of the top edge. The denominator is clamped
    away from zero at eps_clamp, with sign +1 at an exact zero. V is zeroed
    at the two end nodes.
    """
    s = 2.0 * q.values - 1.0
    sign = np.where(s >= 0.0, 1.0, -1.0)
    s = np.where(np.abs(s) < params.eps_clamp, params.eps_clamp * sign, s)
    grad = apply_adjoint(ctx, residual)
    rhs = 2.0 * grad.values / s

    h = q.grid.hx
    n = rhs.size
    # interior Poisson solve, homogeneous Dirichlet ends
    ab = np.zeros((2, n - 2))
    ab[0, 1:] = -1.0 / (h * h)
    ab[1, :] = 2.0 / (h * h)
    psi = np.zeros(n)
    psi[1:-1] = solveh_banded(ab, rhs[1:-1])

    v = np.gradient(psi, h)
    v[0] = v[-1] = 0.0
    return q.with_values(v)


def upwind_step(phi: np.ndarray, v: np.ndarray, dt: float, h: float) -> np.ndarray:
    """Single first-order upwind update; the caller enforces the CFL bound.

    Interior nodes difference against the upwind neighbor. At the ends only
    the interior-side difference exists, so outflow uses it and inflow holds
    the value; under the CFL bound the update is a convex combination and
    min/max bounds are preserved.
    """
    phi = np.asarray(phi, dtype=float)
    v = np.asarray(v, dtype=float)
    dm = np.empty_like(phi)
    dp = np.empty_like(phi)
    dm[1:] = (phi[1:] - phi[:-1]) / h
    dp[:-1] = (phi[1:] - phi[:-1]) / h
    dm[0] = 0.0   # no upwind neighbor: inflow holds the value
    dp[-1] = 0.0
    return phi - dt * (np.maximum(v, 0.0) * dm + np.minimum(v, 0.0) * dp)


def transport_step(phi: TraceFn, v: TraceFn, dt: float,
                   cfl_max: float) -> TraceFn:
    """Advance phi by dt, sub-stepping so every substep satisfies the bound."""
    h = phi.grid.hx
    vmax = float(np.max(np.abs(v.values)))
    n_sub = max(1, math.ceil(vmax * dt / (cfl_max * h))) if vmax > 0 else 1
    vals = phi.values
    for _ in range(n_sub):
        vals = upwind_step(vals, v.values, dt / n_sub, h)
    return phi.with_values(vals)


def run_transport(phi0: TraceFn, data: CauchyData, ctx: OperatorContext,
                  params: TransportParams, truth: TraceFn | None = None,
                  snapshot_iters=()) -> RunRecord:
    """Iterate the transport flow with the adaptive outer step.

    The outer step is min(dt, 0.5 h / max|V|), so fronts move at most half a
    cell per iteration before sub-stepping even applies. Stopping is
    record.run_flow's, as for the gradient flow: discrepancy for noisy data
    (tau > 1 required), target error when truth is given, stagnation of the
    velocity max|V|, or the cap. When truth is supplied the record's
    asymp_gap stream holds the discrete violation of the error-contraction
    identity d/dt ||q - truth||^2 = -2 ||residual||^2, that is
    (e[k+1]^2 - e[k]^2) / dt_k + 2 r[k]^2 for each step k; it is recorded,
    not asserted.
    """
    h = ctx.grid.hx
    dts = []

    def indicator(phi: TraceFn) -> TraceFn:
        return phi.with_values(sharp_indicator(phi.values))

    def step(phi: TraceFn, q: TraceFn, r: TraceFn) -> tuple[TraceFn, float]:
        v = front_velocity(q, r, ctx, params)
        vmax = float(np.max(np.abs(v.values)))
        dt = min(params.dt, 0.5 * h / max(vmax, VELOCITY_FLOOR))
        dts.append(dt)
        return transport_step(phi, v, dt, params.cfl_max), vmax

    out = run_flow(phi0, data, ctx, params, indicator, step, truth,
                   snapshot_iters)
    if out.errors is not None:
        e, res = out.errors, out.residuals
        out.asymp_gap = [(e[k + 1] ** 2 - e[k] ** 2) / dt + 2.0 * res[k] ** 2
                         for k, dt in enumerate(dts)]
    return out
