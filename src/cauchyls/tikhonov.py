"""Level-set gradient flow for the Tikhonov functional with TV penalty.

Each iteration evaluates the data misfit of the current smoothed flux,
pulls it back through the adjoint, adds the curvature source, gates by the
ramp derivative and smooths the update in H1 with the inverse of a
screened-Poisson operator with zero-flux ends, one matvec by the grid's
cached smoothing matrix. The profile then takes one explicit Euler step of
length 1/alpha. The update direction is the descent composition: the
negated adjoint-applied residual plus the curvature term.

Two options change the flow. The implicit step keeps the misfit linearized
at the current profile inside the smoothing solve (a Levenberg-Marquardt
step). Band continuation halves the smoothing width whenever the flow
stalls, down to a floor, so the iterate can end binary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TraceFn
from .levelset import (NeumannHelmholtz, curvature_term, redistance,
                       smoothed_heaviside, smoothed_heaviside_deriv)
from .operator import CauchyData, OperatorContext
from .record import (STAGNATION_STEPS, STAGNATION_TOL, STOP_STAGNATION,
                     RunRecord, run_flow)

STEP_EXPLICIT = "explicit"
STEP_IMPLICIT = "implicit"
STEP_KINDS = (STEP_EXPLICIT, STEP_IMPLICIT)
# an implicit step moves phi by at most this many grid cells
MAX_STEP_CELLS = 0.5
# band continuation: a step that moves phi by at most NARROW_TOL_CELLS grid
# cells counts as a stall, and each stall multiplies eps by NARROW_FACTOR
NARROW_TOL_CELLS = 1e-4
NARROW_FACTOR = 0.5


@dataclass(frozen=True)
class TikhonovParams:
    """Flow parameters; eps = None resolves to two grid cells at run time.

    step selects the update. "explicit" is the gradient-flow step
    phi += S^-1 [H'(phi) (-F* r + curvature)] / alpha, with S the
    screened-Poisson operator and F* the adjoint. "implicit" solves
    (alpha S + H' F*F H') dphi = H'(phi) (-F* r + curvature) instead, the
    Tikhonov step for the misfit linearized at phi (Levenberg-Marquardt).
    Modes the forward map damps strongly then move about as fast as weakly
    damped ones, where the explicit step moves them at the square of their
    damping. The implicit step needs the assembled maps, and it is scaled
    down, if needed, so phi moves by at most MAX_STEP_CELLS grid cells. The
    curvature source is explicit in both steps.

    eps_min switches on band continuation: whenever a step moves phi by at
    most NARROW_TOL_CELLS grid cells and eps is above eps_min, eps becomes
    max(NARROW_FACTOR * eps, eps_min) and phi is redistanced about its
    mid-level set {q > 1/2}, so the narrowing keeps that set and sharpens
    the ramp around it. Stagnation only stops the run once eps is at eps_min.
    None keeps the band fixed.
    """

    alpha: float = 100.0
    beta: float = 1e-3
    eps: float | None = None
    eta: float = 1e-6
    tau: float = 1.5
    max_iters: int = 5000
    target_error: float | None = None
    step: str = STEP_EXPLICIT
    eps_min: float | None = None

    def __post_init__(self):
        if self.step not in STEP_KINDS:
            raise ValueError(f"step must be one of {', '.join(STEP_KINDS)}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.beta >= 0:
            raise ValueError("beta cannot be negative")
        if self.eps is not None and not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.eps_min is not None and not 0 < self.eps_min <= (
                math.inf if self.eps is None else self.eps):
            raise ValueError("eps_min must lie in (0, eps]")
        # curvature_term divides by sqrt(H'^2 + eta^2), which is 0 on the
        # ramp's flat stretches once eta^2 underflows
        if not (self.eta > 0 and self.eta * self.eta > 0):
            raise ValueError("eta must be positive, with eta^2 above 0 "
                             "in floating point")
        if not self.max_iters >= 0:
            raise ValueError("max_iters cannot be negative")

    def resolve_eps(self, grid) -> float:
        return self.eps if self.eps is not None else 2.0 * grid.hx


def tikhonov_step(phi: np.ndarray, ramp: np.ndarray, grad: np.ndarray,
                  eps: float, ctx: OperatorContext, params: TikhonovParams,
                  helmholtz: NeumannHelmholtz) -> np.ndarray:
    """The profile values after one flow step.

    ramp is H_eps(phi), grad the adjoint-applied residual and helmholtz the
    NeumannHelmholtz of the context grid with scale params.alpha, so the
    explicit step applies S^-1 / alpha as one matvec by the grid's cached
    smoothing matrix, scaled once per run. Nothing is checked here:
    run_tikhonov checks its inputs once per run.
    """
    h = ctx.grid.hx
    drive = curvature_term(ramp, h, params.eta, params.beta)
    drive -= grad
    gate = smoothed_heaviside_deriv(phi, eps)
    drive *= gate
    if params.step == STEP_EXPLICIT:
        return phi + helmholtz.solve(drive)
    coupling = gate[:, None] * ctx.normal * (gate / params.alpha)
    dphi = helmholtz.solve(drive, coupling)
    cap = MAX_STEP_CELLS * h
    largest = float(abs(dphi).max())
    if largest > cap:
        dphi *= cap / largest
    return phi + dphi


def run_tikhonov(phi0: TraceFn, data: CauchyData, ctx: OperatorContext,
                 params: TikhonovParams, truth: TraceFn | None = None,
                 snapshot_iters=()) -> RunRecord:
    """Iterate until stagnation, discrepancy, target error or the cap.

    The last three are record.run_flow's stops; stagnation is this flow's,
    on the smoothing output alpha * max|dphi|. With params.eps_min set, the
    band narrows instead while it can (see TikhonovParams), which restarts
    the stall count; record.final_eps is the band width the run ended with.
    """
    eps = params.resolve_eps(ctx.grid)
    h = ctx.grid.hx
    helmholtz = NeumannHelmholtz(ctx.grid, params.alpha)
    stalls = 0

    def indicator(phi: np.ndarray) -> np.ndarray:
        return smoothed_heaviside(phi, eps)

    def direction(q: np.ndarray, r: np.ndarray) -> np.ndarray:
        return ctx.adjoint(r)

    def step(phi: np.ndarray, q: np.ndarray,
             grad: np.ndarray) -> tuple[np.ndarray, str | None]:
        nonlocal eps, stalls
        new = tikhonov_step(phi, q, grad, eps, ctx, params, helmholtz)
        dphi_inf = float(abs(new - phi).max())
        if params.eps_min is not None and eps > params.eps_min \
                and dphi_inf <= NARROW_TOL_CELLS * h:
            # the mid-level set is taken on the ramp of the band the step used
            ramp = smoothed_heaviside(new, eps)
            eps = max(NARROW_FACTOR * eps, params.eps_min)
            stalls = 0
            return redistance(ramp, ctx.grid.xs, h, eps), None
        stalls = stalls + 1 if params.alpha * dphi_inf <= STAGNATION_TOL else 0
        return new, STOP_STAGNATION if stalls >= STAGNATION_STEPS else None

    out = run_flow(phi0, data, ctx, params, indicator, direction, step,
                   truth, snapshot_iters)
    out.final_eps = eps
    return out
