"""Level-set gradient flow for the Tikhonov functional with TV penalty.

Each iteration evaluates the data misfit of the current smoothed flux,
pulls it back through the adjoint, adds the curvature source, gates by the
ramp derivative and smooths the update in H1 via a screened-Poisson solve
with zero-flux ends. The profile then takes one explicit Euler step of
length 1/alpha. The update direction is the descent composition: the
negated adjoint-applied residual plus the curvature term.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import record as rec
from .data import l2_norm_trace
from .grid import TraceFn
from .levelset import (LevelSetState, curvature_term, smoothed_heaviside_deriv,
                       solve_helmholtz_neumann)
from .operator import CauchyData, OperatorContext, apply_adjoint, apply_forward
from .record import RunRecord, observe

# step norm below which the flow counts as stalled
STAGNATION_TOL = 1e-14
STAGNATION_STEPS = 10


@dataclass(frozen=True)
class TikhonovParams:
    """Flow parameters; eps = None resolves to two grid cells at run time."""

    alpha: float = 100.0
    beta: float = 1e-3
    eps: float | None = None
    eta: float = 1e-6
    tau: float = 1.5
    max_iters: int = 5000
    target_error: float | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta cannot be negative")
        if self.eps is not None and not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters cannot be negative")

    def resolve_eps(self, grid) -> float:
        return self.eps if self.eps is not None else 2.0 * grid.hx


def residual_trace(state: LevelSetState, data: CauchyData,
                   ctx: OperatorContext) -> TraceFn:
    """Data misfit of the smoothed flux on the bottom edge."""
    lq = apply_forward(ctx, state.q)
    return lq.with_values(lq.values - data.rhs.values)


def tikhonov_step(state: LevelSetState, data: CauchyData, ctx: OperatorContext,
                  params: TikhonovParams, r: TraceFn | None = None
                  ) -> tuple[LevelSetState, TraceFn]:
    """One flow step; returns the new state and the residual it was driven by.

    r is the residual of state when the caller has computed it already.
    """
    phi, eps = state.phi, state.eps
    if r is None:
        r = residual_trace(state, data, ctx)
    grad = apply_adjoint(ctx, r)
    curv = curvature_term(phi, eps, params.eta, params.beta)
    gate = smoothed_heaviside_deriv(phi.values, eps)
    drive = phi.with_values(gate * (-grad.values + curv.values))
    w = solve_helmholtz_neumann(drive)
    phi_new = phi.with_values(phi.values + w.values / params.alpha)
    return LevelSetState(phi_new, eps), r


def run_tikhonov(phi0: TraceFn, data: CauchyData, ctx: OperatorContext,
                 params: TikhonovParams, truth: TraceFn | None = None,
                 snapshot_iters=()) -> RunRecord:
    """Iterate until discrepancy, target error, stagnation or the cap.

    With noisy data (delta > 0) the discrepancy principle stops at the first
    iterate whose residual norm is at most tau * delta; that requires
    tau > 1. target_error applies only when a truth flux is supplied.
    """
    if data.delta > 0 and not params.tau > 1:
        raise ValueError("the discrepancy principle requires tau > 1 "
                         "whenever the data carries noise (delta > 0)")
    eps = params.resolve_eps(ctx.grid)
    state = LevelSetState(phi0, eps)
    out = RunRecord()
    t0 = time.perf_counter()
    stalled = 0
    k = 0
    while True:
        r = residual_trace(state, data, ctx)
        res_norm = l2_norm_trace(r)
        err, comps = observe(state.q, truth)
        out.record(k, res_norm, err, comps, state.phi, state.q,
                   snapshot_iters)

        if data.delta > 0 and res_norm <= params.tau * data.delta:
            reason = rec.STOP_DISCREPANCY
            break
        if params.target_error is not None and err is not None \
                and err <= params.target_error:
            reason = rec.STOP_TARGET_ERROR
            break
        if k >= params.max_iters:
            reason = rec.STOP_MAX_ITERS
            break

        prev = state.phi.values
        state, _ = tikhonov_step(state, data, ctx, params, r)
        k += 1
        # stagnation is measured on the smoothing output w = alpha * dphi
        w_inf = params.alpha * float(np.max(np.abs(state.phi.values - prev)))
        if w_inf <= STAGNATION_TOL:
            stalled += 1
            if stalled >= STAGNATION_STEPS:
                res_norm = l2_norm_trace(residual_trace(state, data, ctx))
                err, comps = observe(state.q, truth)
                out.record(k, res_norm, err, comps, state.phi, state.q,
                           snapshot_iters)
                reason = rec.STOP_STAGNATION
                break
        else:
            stalled = 0

    return out.finish(reason, k, state.phi, state.q,
                      time.perf_counter() - t0)
