"""Shared iteration loop and history for both reconstruction methods."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import weighted_norm
from .grid import GAMMA2, TraceFn, quadrature_weights
from .levelset import component_count
from .operator import CauchyData, OperatorContext
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


def observe(q: np.ndarray, truth: np.ndarray | None,
            w: np.ndarray | None) -> tuple[float | None, int]:
    """Iterate error and component count of the reconstruction set.

    The error is the L2 distance, under the truth's quadrature weights w,
    between the flux iterate itself and the truth flux; for a sharp iterate
    that coincides with the misclassified mass, for the ramp iterate it
    additionally carries the transition bands. The component count is taken
    on the mid-level set {q > 1/2}, which is the set the iterate would
    round to.
    """
    err = None if truth is None else weighted_norm(q - truth, w)
    return err, component_count(q)


@dataclass
class RunRecord:
    """Per-iteration histories, snapshots and the final iterate.

    Histories include the initial state, so their length is the number of
    completed iterations plus one. errors is None when no truth was supplied.
    asymp_gap is an optional diagnostic stream some methods fill in, and
    final_eps the band width a Tikhonov run ended with.
    residual_evaluations counts the iterates whose residual run_flow
    computed, one forward apply each; the others repeat their predecessor's.
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
    residual_evaluations: int = 0

    def record(self, k: int, residual: float, error: float | None,
               n_components: int, phi: np.ndarray, q: np.ndarray,
               snapshot_iters=()) -> None:
        """Append iterate k; phi and q are copied if k is a snapshot."""
        self.residuals.append(residual)
        if error is not None:
            if self.errors is None:
                self.errors = []
            self.errors.append(error)
        self.components.append(n_components)
        if k in snapshot_iters:
            self.snapshots[k] = (phi.copy(), q.copy())

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
             step: Callable[[np.ndarray, np.ndarray, np.ndarray],
                            tuple[np.ndarray, float]],
             truth: TraceFn | None = None, snapshot_iters=()) -> RunRecord:
    """Iterate a level-set flow phi -> step(phi, q, r) under one stop logic.

    The loop works on nodal value arrays. phi0 and truth are top-edge
    traces on the context grid, checked once here. indicator(phi) maps
    profile values to flux values q, and step(phi, q, r), with r the values
    of the residual F q - rhs on the bottom edge, returns the next profile
    values and the size of the move. Neither needs to validate its input:
    run_flow checks each new profile for finiteness once, and TraceFns are
    built only for the record's final_phi and final_q.

    The residual, its norm, the error and the component count are functions
    of q alone. run_flow computes them when indicator returns a different
    array object than for the previous iterate, and otherwise records the
    previous values again and hands step the same r array. An indicator may
    return its previous array only when q is unchanged, value for value, so
    the reuse is exact; one that returns a fresh array every call (the
    Tikhonov ramp) gets every iterate computed.

    params supplies tau, max_iters and target_error (TikhonovParams and
    TransportParams both do). run_flow records the residual norm of every
    iterate and then stops, in this order of precedence: after
    STAGNATION_STEPS steps in a row whose size was at most STAGNATION_TOL;
    for noisy data (delta > 0) at the first residual norm at most
    params.tau * delta, which requires tau > 1; at params.target_error when
    a truth flux is supplied; after params.max_iters steps. A step that
    produces non-finite values raises SolverError naming the iteration.
    """
    if data.delta > 0 and not params.tau > 1:
        raise ValueError("the discrepancy principle requires tau > 1 "
                         "whenever the data carries noise (delta > 0)")
    for name, t in (("profile", phi0), ("truth", truth)):
        if t is not None and (t.part is not GAMMA2 or t.grid != ctx.grid):
            raise ValueError(f"the {name} must be a top-edge trace on the "
                             f"context grid")
    out = RunRecord()
    t0 = time.perf_counter()
    w = quadrature_weights(ctx.grid, GAMMA2)
    rhs = data.rhs.values
    target = truth.values if truth is not None else None
    phi = phi0.values
    stalled = 0
    k = 0
    q_prev = None
    while True:
        q = indicator(phi)
        if q is not q_prev:
            r = ctx.forward(q) - rhs
            res_norm = weighted_norm(r, w)
            err, comps = observe(q, target, w)
            out.residual_evaluations += 1
            q_prev = q
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
            phi, size = step(phi, q, r)
            if not np.isfinite(phi).all():
                raise SolverError(f"iteration {k}: the level-set step "
                                  f"produced non-finite values")
            stalled = stalled + 1 if size <= STAGNATION_TOL else 0
            continue
        return out.finish(reason, k, phi0.with_values(phi),
                          phi0.with_values(q), time.perf_counter() - t0)
