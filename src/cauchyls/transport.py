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


def split_velocity(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The signed parts (max(v, 0), min(v, 0)) of a velocity v, the form
    upwind_step and transport_step take it in."""
    v = np.asarray(v, dtype=float)
    return np.maximum(v, 0.0), np.minimum(v, 0.0)


def upwind_step(phi: np.ndarray, v_plus: np.ndarray, v_minus: np.ndarray,
                dt: float, h: float) -> np.ndarray:
    """Single first-order upwind update; the caller enforces the CFL bound.

    The velocity comes split into its signed parts (split_velocity), which
    depend on the velocity alone, so a caller that steps several times
    with one velocity splits it once. Interior nodes difference against
    the upwind neighbor. At the ends only the interior-side difference
    exists, so outflow uses it and inflow holds the value; under the CFL
    bound the update is a convex combination and min/max bounds are
    preserved.
    """
    phi = np.asarray(phi, dtype=float)
    # diff[i] = (phi[i] - phi[i - 1]) / h, with 0 beyond both ends (no
    # upwind neighbor: inflow holds the value); diff[:-1] is the backward
    # difference at each node and diff[1:] the forward one
    diff = np.zeros(phi.size + 1)
    inner = diff[1:-1]
    np.subtract(phi[1:], phi[:-1], out=inner)
    inner /= h
    flux = v_plus * diff[:-1]
    forward = diff[1:]
    np.multiply(v_minus, forward, out=forward)
    flux += forward
    flux *= dt
    return np.subtract(phi, flux, out=flux)


def transport_step(phi: np.ndarray, v_plus: np.ndarray, v_minus: np.ndarray,
                   vmax: float, dt_max: float, h: float
                   ) -> tuple[np.ndarray, float]:
    """One upwind step of length dt = min(dt_max, h / (2 max|v|)), and dt;
    v_plus and v_minus are the signed parts of v (split_velocity) and vmax
    is max|v|, all three computed once per velocity by the caller.

    The cap moves fronts at most half a cell, a Courant number of at most
    1/2, inside the upwind scheme's CFL bound, so the step keeps the
    profile's min/max bounds.
    """
    dt = min(dt_max, 0.5 * h / max(vmax, VELOCITY_FLOOR))
    return upwind_step(phi, v_plus, v_minus, dt, h), dt


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
    then reuses its residual and what direction computed from it (see
    run_flow): once per evaluation, direction solves for the velocity V,
    splits it into its signed parts and takes max|V|, and every step
    until the next evaluation reads those three. A non-finite velocity
    makes the profile non-finite, which run_flow reports.
    """
    h = ctx.grid.hx
    dts = []
    stalls = 0
    # run_flow asks for a direction once per change of q, so every entry
    # is an indicator the run has left when the next q arrives
    visited = set()

    def direction(q: np.ndarray, r: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, float, bool]:
        b = q.tobytes()
        revisit = b in visited
        visited.add(b)
        v = front_velocity(q, ctx.adjoint(r), h)
        return *split_velocity(v), float(abs(v).max()), revisit

    def step(phi: np.ndarray,
             velocity: tuple[np.ndarray, np.ndarray, float, bool]
             ) -> tuple[np.ndarray, str | None]:
        nonlocal stalls
        v_plus, v_minus, vmax, revisit = velocity
        phi, dt = transport_step(phi, v_plus, v_minus, vmax, params.dt, h)
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
