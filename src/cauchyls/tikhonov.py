"""Level-set gradient flow for the Tikhonov functional with TV penalty.

Each iteration evaluates the data misfit of the current smoothed flux,
pulls it back through the adjoint, adds the curvature source, gates by the
ramp derivative and smooths the update in H1 with the inverse of a
screened-Poisson operator with zero-flux ends. The profile then takes one
explicit Euler step of length 1/alpha. The update direction is the descent
composition: the negated adjoint-applied residual plus the curvature term.

Every factor that stays fixed is folded into a matrix built once: the TV
source's outer derivative and the adjoint are one per-run matrix applied to
the stacked [normalized slope; residual], once per evaluated flux, and the
gate's 1/eps and the step length 1/alpha scale the context's cached
smoothing matrix once per band width. A step is then the band mask, one
matvec and one addition.

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
from .levelset import curvature_term, redistance, smoothed_heaviside
from .operator import CauchyData, OperatorContext
from .record import (STAGNATION_STEPS, STAGNATION_TOL, STOP_EMPTY_BAND,
                     STOP_STAGNATION, RunRecord, check_stop_rules, run_flow)

STEP_EXPLICIT = "explicit"
STEP_IMPLICIT = "implicit"
STEP_KINDS = (STEP_EXPLICIT, STEP_IMPLICIT)
# an implicit step moves phi by at most this many grid cells
MAX_STEP_CELLS = 0.5
# band continuation: a step that moves phi by at most NARROW_TOL_CELLS grid
# cells counts as a stall, and each stall multiplies eps by NARROW_FACTOR
NARROW_TOL_CELLS = 1e-4
NARROW_FACTOR = 0.5


@dataclass(frozen=True, kw_only=True)
class TikhonovParams:
    """Flow parameters; eps is the band width of the ramp H_eps.

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
    eps: float
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
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.eps_min is not None and not 0 < self.eps_min <= self.eps:
            raise ValueError("eps_min must lie in (0, eps]")
        # eta smooths the TV normalization sqrt(H'^2 + eta^2); once eta^2
        # underflows, that root is |H'| in floating point, and eta no
        # longer smooths anything
        if not (self.eta > 0 and self.eta * self.eta > 0):
            raise ValueError("eta must be positive, with eta^2 above 0 "
                             "in floating point")
        check_stop_rules(self)


def lift_matrix(ctx: OperatorContext, beta: float) -> np.ndarray:
    """[beta D | -F*] (n x 2n), with D the context's derivative and F* its
    adjoint matrix: lift @ [u; r] is the drive beta D u - F* r. Built once
    per run."""
    return np.hstack((beta * ctx.derivative, -ctx.maps[1]))


def tikhonov_direction(ramp: np.ndarray, r: np.ndarray, ctx: OperatorContext,
                       lift: np.ndarray, eta: float,
                       stack: np.ndarray) -> np.ndarray:
    """The drive beta D u - F* r of ramp values H_eps(phi) and their
    residual r, with u curvature_term's normalized slope: the TV source
    minus the adjoint-applied residual, as one gemv by lift_matrix(ctx,
    beta) on [u; r], which is written into stack (2 n values). The drive
    depends on the flux alone, so run_flow asks for it once per evaluation
    that a step follows."""
    n = ramp.size
    curvature_term(ramp, ctx.derivative, eta, out=stack[:n])
    stack[n:] = r
    return np.dot(lift, stack)


def tikhonov_step(phi: np.ndarray, drive: np.ndarray, band: np.ndarray,
                  eps: float, ctx: OperatorContext, params: TikhonovParams,
                  smooth: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The profile values after one flow step, and the step dphi.

    drive is tikhonov_direction's drive for the ramp of phi and band the
    ramp's band at phi (see smoothed_heaviside). The gate H'_eps(phi) is
    band / eps, so with 1/eps in the scale 1 / (alpha eps) the drive is
    gated by the band alone: the explicit step is one matvec by smooth =
    ctx.smoothing / (alpha eps). The implicit step ignores smooth: it takes
    ctx.neumann_solve with the gate in the coupling, divides by alpha eps
    and caps the step at MAX_STEP_CELLS grid cells. Nothing is checked here.
    """
    # drive serves every step until the next evaluation, so it stays as is
    gated = drive * band
    if params.step == STEP_EXPLICIT:
        dphi = np.dot(smooth, gated)
    else:
        gate = band / eps
        coupling = gate[:, None] * ctx.normal * (gate / params.alpha)
        dphi = ctx.neumann_solve(gated, coupling) / (params.alpha * eps)
        cap = MAX_STEP_CELLS * ctx.grid.hx
        largest = float(abs(dphi).max())
        if largest > cap:
            dphi *= cap / largest
    return phi + dphi, dphi


def run_tikhonov(phi0: TraceFn, data: CauchyData, ctx: OperatorContext,
                 params: TikhonovParams, truth: TraceFn | None = None,
                 snapshot_iters=()) -> RunRecord:
    """Iterate to stagnation, empty_band, discrepancy, target error or cap.

    The last three are record.run_flow's stops. This flow's are empty_band,
    a step gated by an empty band, and stagnation, on alpha * max|dphi|
    (explicit) or on max|dphi| in cells (implicit, whose step is capped). With
    params.eps_min set, the band narrows instead while it can (see
    TikhonovParams), which restarts the stall count. record.rows gets
    final_eps, the band width at the stop, final_band_nodes, its node count,
    and final_step_cells, max|dphi| / h of the last step (nan for none).
    """
    eps = params.eps
    h = ctx.grid.hx
    n = ctx.grid.nx + 1
    lift = lift_matrix(ctx, params.beta)
    # the explicit step's matrix, per band width; an implicit run builds none
    explicit = params.step == STEP_EXPLICIT
    smooth = ctx.smoothing / (params.alpha * eps) if explicit else None
    # the band of the iterate the indicator saw last, which the step gets,
    # and the stacked vector of the drive
    band = np.empty(n, dtype=bool)
    stack = np.empty(2 * n)
    stalls = 0
    # the last step's dphi, measured once at the stop
    last = None
    # max|dphi| >= |dphi|_2 / sqrt(n), so a step whose 2-norm exceeds
    # sqrt(2 n) times the larger stall threshold is neither a stall nor a
    # narrowing; the factor 2 covers the rounding of the norm
    moving = math.sqrt(2 * n) * max(
        STAGNATION_TOL / params.alpha if explicit else NARROW_TOL_CELLS * h,
        0.0 if params.eps_min is None else NARROW_TOL_CELLS * h)

    def indicator(phi: np.ndarray) -> np.ndarray:
        return smoothed_heaviside(phi, eps, band)

    def direction(q: np.ndarray, r: np.ndarray) -> np.ndarray:
        return tikhonov_direction(q, r, ctx, lift, params.eta, stack)

    def step(phi: np.ndarray, drive: np.ndarray
             ) -> tuple[np.ndarray, str | None]:
        nonlocal eps, smooth, stalls, last
        new, dphi = tikhonov_step(phi, drive, band, eps, ctx, params, smooth)
        last = dphi
        if math.sqrt(np.dot(dphi, dphi)) > moving:
            stalls = 0
            return new, None
        dphi_inf = float(abs(dphi).max())
        if params.eps_min is not None and eps > params.eps_min \
                and dphi_inf <= NARROW_TOL_CELLS * h:
            # the mid-level set is taken on the ramp of the band the step used
            ramp = smoothed_heaviside(new, eps)
            eps = max(NARROW_FACTOR * eps, params.eps_min)
            smooth = ctx.smoothing / (params.alpha * eps) if explicit else None
            stalls = 0
            return redistance(ramp, ctx.grid.xs, h, eps), None
        if not band.any():
            return new, STOP_EMPTY_BAND
        stalled = (params.alpha * dphi_inf <= STAGNATION_TOL if explicit
                   else dphi_inf <= NARROW_TOL_CELLS * h)
        stalls = stalls + 1 if stalled else 0
        return new, STOP_STAGNATION if stalls >= STAGNATION_STEPS else None

    out = run_flow(phi0, data, ctx, params, indicator, direction, step,
                   truth, snapshot_iters)
    # the band is the one the indicator read off the final iterate
    out.rows.update(
        final_eps=eps, final_band_nodes=int(np.count_nonzero(band)),
        final_step_cells=(math.nan if last is None
                          else float(abs(last).max()) / h))
    return out
