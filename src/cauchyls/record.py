"""Shared iteration loop and history for both reconstruction methods."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import l2_norm_trace
from .grid import NonFiniteError, TraceFn
from .levelset import component_count
from .operator import CauchyData, OperatorContext, apply_forward
from .pde import SolverError

STOP_DISCREPANCY = "discrepancy"
STOP_MAX_ITERS = "max_iters"
STOP_TARGET_ERROR = "target_error"
STOP_STAGNATION = "stagnation"

STOP_REASONS = (STOP_DISCREPANCY, STOP_MAX_ITERS, STOP_TARGET_ERROR,
                STOP_STAGNATION)

# a step of size at most STAGNATION_TOL counts as stalled, and
# STAGNATION_STEPS stalled steps in a row stop the run
STAGNATION_TOL = 1e-14
STAGNATION_STEPS = 10


def observe(q: TraceFn, truth: TraceFn | None) -> tuple[float | None, int]:
    """Iterate error and component count of the reconstruction set.

    The error is the L2 distance between the flux iterate itself and the
    truth flux; for a sharp iterate that coincides with the misclassified
    mass, for the ramp iterate it additionally carries the transition
    bands. The component count is taken on the mid-level set {q > 1/2},
    which is the set the iterate would round to.
    """
    err = None
    if truth is not None:
        err = l2_norm_trace(truth.with_values(q.values - truth.values))
    return err, component_count(q.values)


@dataclass
class RunRecord:
    """Per-iteration histories, snapshots and the final iterate.

    Histories include the initial state, so their length is the number of
    completed iterations plus one. errors is None when no truth was supplied.
    asymp_gap is an optional diagnostic stream some methods fill in, and
    final_eps the band width a Tikhonov run ended with.
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
    final_eps: float | None = None

    def record(self, k: int, residual: float, error: float | None,
               n_components: int, phi: TraceFn, q: TraceFn,
               snapshot_iters=()) -> None:
        self.residuals.append(residual)
        if error is not None:
            if self.errors is None:
                self.errors = []
            self.errors.append(error)
        self.components.append(n_components)
        if k in snapshot_iters:
            self.snapshots[k] = (phi.values.copy(), q.values.copy())

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
             indicator: Callable[[TraceFn], TraceFn],
             step: Callable[[TraceFn, TraceFn, TraceFn], tuple[TraceFn, float]],
             truth: TraceFn | None = None, snapshot_iters=()) -> RunRecord:
    """Iterate a level-set flow phi -> step(phi, q, r) under one stop logic.

    params supplies tau, max_iters and target_error (TikhonovParams and
    TransportParams both do). indicator(phi) is the flux q of a profile.
    run_flow forms the residual r = F q - rhs of every iterate, records
    it, and then stops, in this order of precedence: after STAGNATION_STEPS
    steps in a row whose size was at most STAGNATION_TOL; for noisy data
    (delta > 0) at the first residual norm at most params.tau * delta,
    which requires tau > 1; at params.target_error when a truth flux is
    supplied; after params.max_iters steps. Otherwise step(phi, q, r)
    returns the next profile and the size of the move. A step that
    produces non-finite values raises SolverError naming the iteration.
    """
    if data.delta > 0 and not params.tau > 1:
        raise ValueError("the discrepancy principle requires tau > 1 "
                         "whenever the data carries noise (delta > 0)")
    out = RunRecord()
    t0 = time.perf_counter()
    phi = phi0
    stalled = 0
    k = 0
    while True:
        q = indicator(phi)
        lq = apply_forward(ctx, q)
        r = lq.with_values(lq.values - data.rhs.values)
        res_norm = l2_norm_trace(r)
        err, comps = observe(q, truth)
        out.record(k, res_norm, err, comps, phi, q, snapshot_iters)

        if stalled >= STAGNATION_STEPS:
            reason = STOP_STAGNATION
        elif data.delta > 0 and res_norm <= params.tau * data.delta:
            reason = STOP_DISCREPANCY
        elif params.target_error is not None and err is not None \
                and err <= params.target_error:
            reason = STOP_TARGET_ERROR
        elif k >= params.max_iters:
            reason = STOP_MAX_ITERS
        else:
            k += 1
            try:
                phi, size = step(phi, q, r)
            except NonFiniteError as exc:
                raise SolverError(f"iteration {k}: the level-set step "
                                  f"produced non-finite values") from exc
            stalled = stalled + 1 if size <= STAGNATION_TOL else 0
            continue
        return out.finish(reason, k, phi, q, time.perf_counter() - t0)
