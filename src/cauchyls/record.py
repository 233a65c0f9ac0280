"""Shared iteration loop and history for both reconstruction methods.

run_flow owns the paper's stop rules (discrepancy, target error, the cap)
and the reuse of the work that depends on the flux q alone. Both flows own
stagnation, STAGNATION_STEPS steps in a row whose flow measure is at most
STAGNATION_TOL; run_tikhonov owns empty_band, a step gated by an empty
band, and run_transport cycle, a return to an indicator it has left.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .data import weighted_norm
from .grid import GAMMA1, GAMMA2, TraceFn, quadrature_weights
from .levelset import component_count
from .operator import CauchyData, OperatorContext, check_trace
from .pde import SolverError

STOP_DISCREPANCY = "discrepancy"
STOP_MAX_ITERS = "max_iters"
STOP_TARGET_ERROR = "target_error"
STOP_STAGNATION = "stagnation"
STOP_CYCLE = "cycle"
STOP_EMPTY_BAND = "empty_band"

STOP_REASONS = (STOP_DISCREPANCY, STOP_MAX_ITERS, STOP_TARGET_ERROR,
                STOP_STAGNATION, STOP_CYCLE, STOP_EMPTY_BAND)

STAGNATION_TOL = 1e-14
STAGNATION_STEPS = 10
# run_flow observes the iterates it does not need at once in batches of at
# most this many evaluations
OBSERVE_CHUNK = 64


def check_stop_rules(params) -> None:
    """ValueError unless the stop-rule fields run_flow reads are in range."""
    if not params.max_iters >= 0:
        raise ValueError("max_iters cannot be negative")
    if params.target_error is not None and not params.target_error > 0:
        raise ValueError("target_error must be positive")


def observe(q: np.ndarray, truth: np.ndarray | None, w: np.ndarray | None
            ) -> tuple[float | np.ndarray | None, int | np.ndarray]:
    """Iterate error and component count of the reconstruction set.

    The error is the L2 distance, under the truth's quadrature weights w,
    between the flux iterate itself and the truth flux; for a sharp iterate
    that coincides with the misclassified mass, for the ramp iterate it
    additionally carries the transition bands. The component count is taken
    on the mid-level set {q > 1/2}, which is the set the iterate would
    round to. A 2-D q is a stack of iterates, one per row, and both results
    are then arrays with one entry per row, each with the bytes of that
    row's own observation (see weighted_norm).
    """
    err = None if truth is None else weighted_norm(q - truth, w)
    return err, component_count(q)


@dataclass
class RunRecord:
    """Per-iteration histories, snapshots and the final iterate.

    Histories include the initial state, so their length is the number of
    completed iterations plus one. errors is None when no truth was supplied.
    asymp_gap is an optional diagnostic stream some methods fill in. rows
    holds the numbers a flow reports at its stop, by name, in the order
    summary.txt prints them after eps. residual_evaluations counts
    the iterates whose residual run_flow computed, one forward apply each;
    the others repeat their predecessor's.
    """

    residuals: list[float] = field(default_factory=list)
    errors: list[float] | None = None
    components: list[int] = field(default_factory=list)
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    stop_reason: str = STOP_MAX_ITERS
    stop_iteration: int = 0
    final_phi: TraceFn | None = None
    final_q: TraceFn | None = None
    wall_time: float = 0.0
    asymp_gap: list[float] | None = None
    rows: dict[str, float | int] = field(default_factory=dict)
    residual_evaluations: int = 0

    def record(self, residuals: list[float], errors: list[float] | None,
               components: list[int]) -> None:
        """Append the history values of a chunk of iterates; errors is None
        for a run without a truth."""
        self.residuals += residuals
        if errors is not None:
            if self.errors is None:
                self.errors = []
            self.errors += errors
        self.components += components

    def finish(self, reason: str, k: int, phi: TraceFn, q: TraceFn,
               wall_time: float) -> "RunRecord":
        if reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {reason!r}")
        self.stop_reason = reason
        self.stop_iteration = k
        self.final_phi = phi
        self.final_q = q
        self.wall_time = wall_time
        return self


def run_flow(phi0: TraceFn, data: CauchyData, ctx: OperatorContext, params,
             indicator: Callable[[np.ndarray], np.ndarray],
             direction: Callable[[np.ndarray, np.ndarray], Any],
             step: Callable[[np.ndarray, Any], tuple[np.ndarray, str | None]],
             truth: TraceFn | None = None, snapshot_iters=()) -> RunRecord:
    """Iterate a level-set flow phi -> step(phi, d) to a stop rule.

    The loop works on nodal value arrays. phi0, truth (top-edge traces) and
    data lie on the context grid, checked once here. indicator(phi) maps
    profile values to flux values q. direction(q, r), with r the values of
    the residual F q - rhs on the bottom edge, gives d, what the flow's step
    needs of q and r. step(phi, d) returns the next profile values and
    None, or the STOP_REASONS name of a stop of its flow that holds there.
    None of the three validates its input (run_flow checks each profile
    for finiteness and builds TraceFns only for final_phi and final_q) or
    modifies the q or r arrays it is handed, which run_flow observes later.

    The residual, its norm, the error, the component count and d are
    functions of q alone, and run_flow owns their reuse. It evaluates q,
    that is computes its residual, when q's bytes differ from the previous
    iterate's, and otherwise repeats the previous values. It calls
    direction once per evaluated q that a step follows, and hands every
    step until the next evaluation the same d. Equal bytes are equal
    values, so the reuse is exact.

    Per evaluation, run_flow computes only the values a stop rule reads: the
    residual norm when the data carries noise (delta > 0), and the error
    when a truth and params.target_error are both given. The history is
    observed in batches, the same way for every run: the q and r arrays of
    up to OBSERVE_CHUNK evaluations wait on a pending list, with the number
    of iterates each serves, and one weighted_norm and one observe call
    over their stacks give the values when the list is full and at the
    stop. Each value has the bytes of its per-iterate computation, so a
    recorded value equals the one its stop rule read.

    params supplies tau, max_iters and target_error. After recording an
    iterate run_flow stops, in this order of precedence: at a stop the step
    named; for noisy data (delta > 0) at the first residual norm at most
    params.tau * delta, which requires tau > 1; at params.target_error when
    a truth flux is supplied; after params.max_iters steps. A name outside
    STOP_REASONS raises ValueError, and a non-finite profile or live
    residual norm SolverError.
    """
    if data.delta > 0 and not params.tau > 1:
        raise ValueError("the discrepancy principle requires tau > 1 "
                         "whenever the data carries noise (delta > 0)")
    check_trace(ctx.grid, data.g2, GAMMA1, "data")
    check_trace(ctx.grid, phi0, GAMMA2, "profile")
    check_trace(ctx.grid, truth, GAMMA2, "truth")
    out = RunRecord()
    t0 = time.perf_counter()
    w = quadrature_weights(ctx.grid, GAMMA2)
    rhs = data.rhs.values
    target = truth.values if truth is not None else None
    phi = phi0.values
    # the stop thresholds, read once: -inf disables a rule, and the value
    # of a disabled rule stays inf
    live_residual = data.delta > 0
    live_error = target is not None and params.target_error is not None
    discrepancy = params.tau * data.delta if live_residual else -np.inf
    target_error = params.target_error if live_error else -np.inf
    res_norm = err = np.inf
    max_iters = params.max_iters
    # the pending evaluations: q, r and the iterates each serves
    qs, rs, serves = [], [], []

    def flush():
        res = weighted_norm(np.array(rs), w)
        errs, comps = observe(np.array(qs), target, w)
        out.record(np.repeat(res, serves).tolist(),
                   None if target is None
                   else np.repeat(errs, serves).tolist(),
                   np.repeat(comps, serves).tolist())
        for pending in (qs, rs, serves):
            pending.clear()

    k = 0
    stop = q_bytes = None
    while True:
        q = indicator(phi)
        b = q.tobytes()
        if b != q_bytes:
            q_bytes, directed = b, False
            r = ctx.forward(q)
            r -= rhs
            if len(qs) == OBSERVE_CHUNK:
                flush()
            qs.append(q)
            rs.append(r)
            serves.append(1)
            if live_residual:
                res_norm = weighted_norm(r, w)
                if not math.isfinite(res_norm):
                    raise SolverError(f"iteration {k}: the residual norm is "
                                      f"not finite")
            if live_error:
                err = weighted_norm(q - target, w)
            out.residual_evaluations += 1
        else:
            serves[-1] += 1
        if k in snapshot_iters:
            out.snapshots[k] = (phi.copy(), q.copy())

        if stop is not None:
            reason = stop
        elif res_norm <= discrepancy:
            reason = STOP_DISCREPANCY
        elif err <= target_error:
            reason = STOP_TARGET_ERROR
        elif k >= max_iters:
            reason = STOP_MAX_ITERS
        else:
            k += 1
            if not directed:
                d, directed = direction(q, r), True
            phi, stop = step(phi, d)
            if not np.isfinite(phi).all():
                raise SolverError(f"iteration {k}: the level-set step "
                                  f"produced non-finite values")
            continue
        flush()
        return out.finish(reason, k, phi0.with_values(phi),
                          phi0.with_values(q), time.perf_counter() - t0)
