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

import numpy as np

from .grid import TraceFn
from .levelset import sharp_indicator
from .operator import CauchyData, OperatorContext
from .record import (STAGNATION_STEPS, STAGNATION_TOL, STOP_CYCLE,
                     STOP_STAGNATION, RunRecord, check_stop_rules, run_flow)

VELOCITY_FLOOR = 1e-12
# front_velocity's floor on |2q - 1|
SIGN_CLAMP = 0.1


@dataclass(frozen=True)
class TransportParams:
    """Step cap dt, discrepancy factor tau, iteration cap and target error."""

    dt: float = 1.0
    tau: float = 1.5
    max_iters: int = 5000
    target_error: float | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        check_stop_rules(self)


def front_velocity(q: np.ndarray, grad: np.ndarray, h: float) -> np.ndarray:
    """Velocity V = psi' with -psi'' = f = 2 * grad / (2q - 1) on nodes of
    spacing h; grad is the adjoint-applied residual.

    psi vanishes at both ends of the top edge. The denominator is clamped
    away from zero at SIGN_CLAMP, with sign +1 at an exact zero; that only
    acts on a fractional q, since a sharp q has |2q - 1| = 1. V is the
    centered difference of the discrete Dirichlet solution psi inside and
    zero at the two end nodes, in closed form: on nodes 0..m, with c_0 = 0
    and c_i = f_1 + ... + f_i, the difference quotients (psi_i - psi_{i-1})
    / h are h (e - c_{i-1}), where e = (c_1 + ... + c_{m-1}) / m makes
    them sum to (psi_m - psi_0) / h = 0. So V_i = h (e - c_i + f_i / 2),
    and no system is solved.
    """
    s = 2.0 * q[1:-1] - 1.0
    # 2q - 1 is +0.0, never -0.0, at q = 1/2, so copysign gives sign +1
    s = np.copysign(np.maximum(np.abs(s), SIGN_CLAMP), s)
    # the same V_i = 2 h (e - c_i + g_i / 2) in g = f / 2 and its sums;
    # short of overflow and underflow, the factors of two are exact
    g = grad[1:-1] / s
    c = np.cumsum(g)
    v = np.zeros(q.size)
    inner = v[1:-1]
    np.multiply(g, 0.5, out=inner)
    inner -= c
    inner += c.sum() / (q.size - 1)
    inner *= 2.0 * h
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
    so fronts move at most half a cell per iteration. Discrepancy, target
    error and the cap are record.run_flow's stops. Stagnation, on the
    velocity max|V|, and cycle are this flow's. The flow contracts the
    error on consistent data, so a return to an indicator the run has left
    shows that the discrete flow has lost that property: the step after
    the first such revisit names cycle, and the run ends instead of
    cycling to the cap. For that the bytes of every indicator left are
    kept, one entry per residual evaluation. With truth, the record's
    asymp_gap holds the discrete violation of the error-contraction identity
    d/dt ||q - truth||^2 = -2 ||residual||^2, that is
    (e[k+1]^2 - e[k]^2) / dt_k + 2 r[k]^2 for each step k; it is recorded,
    not asserted.

    Since fronts move at most half a cell per step, q changes only when a
    front crosses a node, and most iterations leave it as it was. run_flow
    then reuses its residual and the velocity and vmax that direction
    computed from it (see run_flow). A non-finite velocity makes the
    profile non-finite, which run_flow reports.
    """
    h = ctx.grid.hx
    dts = []
    stalls = 0
    # run_flow asks for a direction once per change of q, so every entry
    # is an indicator the run has left when the next q arrives
    visited = set()

    def direction(q: np.ndarray, r: np.ndarray
                  ) -> tuple[np.ndarray, float, bool]:
        b = q.tobytes()
        revisit = b in visited
        visited.add(b)
        v = front_velocity(q, ctx.adjoint(r), h)
        return v, float(np.max(np.abs(v))), revisit

    def step(phi: np.ndarray, velocity: tuple[np.ndarray, float, bool]
             ) -> tuple[np.ndarray, str | None]:
        nonlocal stalls
        v, vmax, revisit = velocity
        phi, dt = transport_step(phi, v, vmax, params.dt, h)
        dts.append(dt)
        stalls = stalls + 1 if vmax <= STAGNATION_TOL else 0
        if revisit:
            return phi, STOP_CYCLE
        return phi, STOP_STAGNATION if stalls >= STAGNATION_STEPS else None

    out = run_flow(phi0, data, ctx, params, sharp_indicator, direction,
                   step, truth, snapshot_iters)
    if out.errors is not None:
        e, res = out.errors, out.residuals
        out.asymp_gap = [(e[k + 1] ** 2 - e[k] ** 2) / dt + 2.0 * res[k] ** 2
                         for k, dt in enumerate(dts)]
    return out
