"""The array-level iteration loop against a loop over the public TraceFn API.

run_tikhonov and run_transport iterate on raw value arrays with per-run
constants (quadrature weights, factored tridiagonal solves). The reference
loops below are written from the public functions that take and return
traces, one call per formula, as the iteration was before it moved to
arrays; the two must agree bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from cauchyls import (apply_forward, front_velocity, l2_norm_trace,
                      sharp_indicator, tikhonov_step, transport_step)
from cauchyls.experiments import (exp1_config, exp2_config, execute, prepare,
                                  transport_benchmark_config)
from cauchyls.levelset import LevelSetState, redistance
from cauchyls.record import STOP_MAX_ITERS, RunRecord, observe
from cauchyls.tikhonov import (NARROW_FACTOR, NARROW_TOL_CELLS,
                               TikhonovParams)
from cauchyls.transport import VELOCITY_FLOOR, TransportParams


def _residual(ctx, data, q):
    lq = apply_forward(ctx, q)
    return lq.with_values(lq.values - data.rhs.values)


def _reference(setup, params, indicator, step):
    """params.max_iters steps of phi -> step(phi, q, r) on traces, recording
    every iterate; the run must not meet another stop rule on the way."""
    rec = RunRecord()
    phi = setup.phi0
    every = range(params.max_iters + 1)
    for k in every:
        q = indicator(phi)
        r = _residual(setup.ctx, setup.data, q)
        err, comps = observe(q, setup.truth)
        rec.record(k, l2_norm_trace(r), err, comps, phi, q, every)
        if k < params.max_iters:
            phi = step(phi, q, r)
    return rec.finish(STOP_MAX_ITERS, params.max_iters, phi, q, 0.0)


def _tikhonov_reference(setup, params):
    eps = params.resolve_eps(setup.grid)
    narrow_tol = NARROW_TOL_CELLS * setup.grid.hx

    def step(phi, q, r):
        nonlocal eps
        state, _ = tikhonov_step(LevelSetState(phi, eps), setup.data,
                                 setup.ctx, params, r)
        dphi_inf = np.max(np.abs(state.phi.values - phi.values))
        if params.eps_min is not None and eps > params.eps_min \
                and dphi_inf <= narrow_tol:
            eps = max(NARROW_FACTOR * eps, params.eps_min)
            return redistance(state.q, eps)
        return state.phi

    rec = _reference(setup, params, lambda phi: LevelSetState(phi, eps).q,
                     step)
    rec.final_eps = eps
    return rec


def _transport_reference(setup, params):
    h = setup.grid.hx
    dts = []

    def step(phi, q, r):
        v = front_velocity(q, r, setup.ctx, params)
        vmax = float(np.max(np.abs(v.values)))
        dt = min(params.dt, 0.5 * h / max(vmax, VELOCITY_FLOOR))
        dts.append(dt)
        return transport_step(phi, v, dt, params.cfl_max)

    rec = _reference(
        setup, params,
        lambda phi: phi.with_values(sharp_indicator(phi.values)), step)
    return rec, dts


def _assert_same(rec, ref):
    assert (rec.stop_reason, rec.stop_iteration) == \
        (ref.stop_reason, ref.stop_iteration)
    assert rec.residuals == ref.residuals
    assert rec.errors == ref.errors
    assert rec.components == ref.components
    assert rec.snapshots.keys() == ref.snapshots.keys()
    for k, (phi, q) in ref.snapshots.items():
        assert np.array_equal(rec.snapshots[k][0], phi), k
        assert np.array_equal(rec.snapshots[k][1], q), k
    assert np.array_equal(rec.final_phi.values, ref.final_phi.values)
    assert np.array_equal(rec.final_q.values, ref.final_q.values)
    assert rec.final_eps == ref.final_eps


def _tikhonov_params(cfg, setup):
    eps_min = (None if cfg.eps_min_cells is None
               else cfg.eps_min_cells * setup.grid.hx)
    return TikhonovParams(alpha=cfg.alpha, beta=cfg.beta, eps=setup.eps,
                          eta=cfg.eta, tau=cfg.tau, max_iters=cfg.max_iters,
                          target_error=cfg.target_error, step=cfg.step,
                          eps_min=eps_min)


@pytest.mark.parametrize("cfg", [
    # explicit step with the TV source, exp2's settings
    replace(exp2_config(1.0), max_iters=50),
    # implicit step with band continuation, exp1's settings; its band
    # first halves at iteration 262
    replace(exp1_config(), max_iters=280),
], ids=["explicit_tv", "implicit_continuation"])
def test_tikhonov_loop_matches_trace_reference(cfg):
    cfg = replace(cfg, snapshot_iters=tuple(range(cfg.max_iters + 1)))
    setup = prepare(cfg)
    rec = execute(setup)
    ref = _tikhonov_reference(setup, _tikhonov_params(cfg, setup))
    _assert_same(rec, ref)
    if cfg.eps_min_cells is not None:
        assert rec.final_eps < setup.eps  # the run went past a narrowing


def test_transport_loop_matches_trace_reference():
    cfg = replace(transport_benchmark_config(), max_iters=40,
                  target_error=None, snapshot_iters=tuple(range(41)))
    setup = prepare(cfg)
    rec = execute(setup)
    params = TransportParams(dt=cfg.dt, eps_clamp=cfg.eps_clamp, tau=cfg.tau,
                             max_iters=cfg.max_iters, cfl_max=cfg.cfl_max)
    ref, dts = _transport_reference(setup, params)
    _assert_same(rec, ref)
    e, res = ref.errors, ref.residuals
    assert rec.asymp_gap == [(e[k + 1] ** 2 - e[k] ** 2) / dt
                             + 2.0 * res[k] ** 2 for k, dt in enumerate(dts)]
