"""Gradient flow on the level-set profile: steps, stops, records."""

from dataclasses import replace

import numpy as np
import pytest

from cauchyls import tikhonov
from cauchyls import (GAMMA1, GAMMA2, OperatorContext, TikhonovParams,
                      TraceFn, apply_forward, build_grid, init_levelset, l2_norm_trace,
                      operator_context,
                      run_tikhonov, smoothed_heaviside, synthesize_cauchy_data,
                      tikhonov_step, with_noise, zero_trace,
                      trace_from_function)
from cauchyls.experiments import execute, exp1_config, exp2_config, prepare
from cauchyls.levelset import helmholtz_solve
from cauchyls.record import STAGNATION_STEPS
from cauchyls.tikhonov import lift_matrix, tikhonov_direction


def _problem(ctx, grid, noise=0.0, seed=3):
    truth = trace_from_function(
        grid, GAMMA2, lambda x: ((x >= 0.3) & (x <= 0.7)).astype(float))
    data = synthesize_cauchy_data(truth, zero_trace(grid, GAMMA1), ctx, ctx)
    if noise > 0:
        data = with_noise(data, noise, seed)
    phi0 = init_levelset(grid, ((0.45, 0.55),), 4 * grid.hx)
    return truth, data, phi0


def _residual(phi, eps, data, ctx):
    """Bottom-edge misfit F H_eps(phi) - rhs of profile values phi."""
    q = TraceFn(ctx.grid, GAMMA2, smoothed_heaviside(phi, eps))
    lq = apply_forward(ctx, q)
    return lq.with_values(lq.values - data.rhs.values)


def _step(phi, eps, data, ctx, params):
    """tikhonov_step from profile values phi alone."""
    n = phi.size
    band = np.empty(n, dtype=bool)
    ramp = smoothed_heaviside(phi, eps, band)
    drive = tikhonov_direction(ramp, _residual(phi, eps, data, ctx).values,
                               ctx, lift_matrix(ctx, params.beta),
                               params.eta, np.empty(2 * n))
    new, dphi = tikhonov_step(phi, drive, band, eps, ctx, params,
                              ctx.smoothing / (params.alpha * eps))
    assert np.array_equal(new, phi + dphi)
    return new


def test_params_validation(grid64):
    # the band width has no default
    with pytest.raises(TypeError, match="eps"):
        TikhonovParams()
    eps = 2 * grid64.hx
    with pytest.raises(ValueError):
        TikhonovParams(eps=eps, alpha=0.0)
    with pytest.raises(ValueError):
        TikhonovParams(eps=eps, beta=-1.0)
    with pytest.raises(ValueError):
        TikhonovParams(eps=0.0)
    with pytest.raises(ValueError):
        TikhonovParams(eps=eps, eta=0.0)
    # positive, but eta^2 underflows to 0
    with pytest.raises(ValueError, match="^eta "):
        TikhonovParams(eps=eps, eta=1e-300)
    assert TikhonovParams(eps=eps, eta=1e-160).eta == 1e-160
    with pytest.raises(ValueError):
        TikhonovParams(eps=eps, max_iters=-1)
    # a target error that is not positive would never stop the run
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^target_error "):
            TikhonovParams(eps=eps, target_error=bad)
    assert TikhonovParams(eps=eps, target_error=None).target_error is None


def test_nan_beta_rejected(grid64):
    with pytest.raises(ValueError, match="beta"):
        TikhonovParams(eps=2 * grid64.hx, beta=float("nan"))


def test_step_and_band_options_validated(grid64):
    eps = 2 * grid64.hx
    with pytest.raises(ValueError):
        TikhonovParams(eps=eps, step="magic")
    with pytest.raises(ValueError):
        TikhonovParams(eps=eps, eps_min=0.0)
    # the band floor may not exceed the band
    with pytest.raises(ValueError, match="eps_min"):
        TikhonovParams(eps=0.01, eps_min=0.02)
    assert TikhonovParams(eps=eps, step="implicit",
                          eps_min=0.01).eps_min == 0.01
    assert TikhonovParams(eps=0.02, eps_min=0.02).eps_min == 0.02


def test_residual_vanishes_at_sharp_truth(ctx64, grid64):
    truth, data, _ = _problem(ctx64, grid64)
    # a profile deep inside the band plateau reproduces the truth indicator
    eps = 4 * grid64.hx
    phi = init_levelset(grid64, ((0.3, 0.7),), eps).values
    # interfaces carry ramp mass, so only expect closeness, not zero
    assert l2_norm_trace(_residual(phi, eps, data, ctx64)) < 0.1


def test_first_steps_reduce_residual(ctx64, grid64):
    _, data, phi0 = _problem(ctx64, grid64)
    eps = 4 * grid64.hx
    params = TikhonovParams(alpha=100.0, eps=eps)
    phi = phi0.values
    r0 = l2_norm_trace(_residual(phi, eps, data, ctx64))
    for _ in range(20):
        phi = _step(phi, eps, data, ctx64, params)
    r1 = l2_norm_trace(_residual(phi, eps, data, ctx64))
    assert r1 < r0


def test_step_returns_new_state(ctx64, grid64):
    _, data, phi0 = _problem(ctx64, grid64)
    eps = 4 * grid64.hx
    phi = phi0.values.copy()
    new = _step(phi, eps, data, ctx64, TikhonovParams(eps=eps))
    assert new is not phi
    assert not np.array_equal(new, phi)
    # the step leaves its input alone
    assert np.array_equal(phi, phi0.values)


def test_max_iters_stop_and_history_lengths(ctx64, grid64):
    truth, data, phi0 = _problem(ctx64, grid64)
    rec = run_tikhonov(phi0, data, ctx64,
                       TikhonovParams(eps=2 * grid64.hx, max_iters=10),
                       truth=truth)
    assert rec.stop_reason == "max_iters"
    assert rec.stop_iteration == 10
    # histories include the initial state
    assert len(rec.residuals) == 11
    assert len(rec.errors) == 11
    assert len(rec.components) == 11
    assert rec.final_phi is not None and rec.final_q is not None
    assert rec.wall_time > 0


def test_errors_absent_without_truth(ctx64, grid64):
    _, data, phi0 = _problem(ctx64, grid64)
    rec = run_tikhonov(phi0, data, ctx64,
                       TikhonovParams(eps=2 * grid64.hx, max_iters=3))
    assert rec.errors is None
    assert len(rec.residuals) == 4


def test_target_error_stop(ctx64, grid64):
    truth, data, phi0 = _problem(ctx64, grid64)
    # the init already has some error; a loose target stops immediately
    rec = run_tikhonov(phi0, data, ctx64,
                       TikhonovParams(eps=2 * grid64.hx, max_iters=50,
                                      target_error=10.0),
                       truth=truth)
    assert rec.stop_reason == "target_error"
    assert rec.stop_iteration == 0


def test_noisy_data_requires_tau_above_one(ctx64, grid64):
    _, data, phi0 = _problem(ctx64, grid64, noise=0.1)
    with pytest.raises(ValueError):
        run_tikhonov(phi0, data, ctx64,
                     TikhonovParams(eps=2 * grid64.hx, tau=1.0, max_iters=5))


def test_discrepancy_stop_on_noisy_data(ctx64, grid64):
    truth, data, phi0 = _problem(ctx64, grid64, noise=0.1)
    params = TikhonovParams(alpha=15.0, eps=4 * grid64.hx, tau=1.5,
                            max_iters=2000)
    rec = run_tikhonov(phi0, data, ctx64, params, truth=truth)
    assert rec.stop_reason == "discrepancy"
    assert rec.residuals[-1] <= 1.5 * data.delta
    # all earlier residuals sat above the discrepancy threshold
    assert all(r > 1.5 * data.delta for r in rec.residuals[:-1])


def test_snapshots_recorded_at_requested_iterations(ctx64, grid64):
    truth, data, phi0 = _problem(ctx64, grid64)
    rec = run_tikhonov(phi0, data, ctx64,
                       TikhonovParams(eps=2 * grid64.hx, max_iters=5),
                       truth=truth, snapshot_iters=(0, 3, 99))
    assert set(rec.snapshots) == {0, 3}
    phi_snap, q_snap = rec.snapshots[0]
    assert phi_snap.shape == q_snap.shape == (grid64.nx + 1,)
    assert np.array_equal(phi_snap, phi0.values)


def _dphi(phi, eps, data, ctx, params):
    return _step(phi, eps, data, ctx, params) - phi


def test_implicit_step_tends_to_explicit_step_for_large_alpha(ctx64, grid64):
    # the linearized misfit enters as coupling / alpha, which fades
    _, data, phi0 = _problem(ctx64, grid64)
    eps = 4 * grid64.hx
    phi = phi0.values
    kw = dict(alpha=1e6, beta=1e-3, eps=eps)
    explicit = _dphi(phi, eps, data, ctx64, TikhonovParams(**kw))
    implicit = _dphi(phi, eps, data, ctx64,
                     TikhonovParams(step="implicit", **kw))
    gap = np.abs(implicit - explicit).max() / np.abs(explicit).max()
    assert 0 < gap < 1e-3


def test_implicit_step_moves_phi_at_most_half_a_cell(ctx64, grid64):
    _, data, phi0 = _problem(ctx64, grid64)
    eps = 4 * grid64.hx
    params = TikhonovParams(alpha=1e-8, beta=0.0, eps=eps, step="implicit")
    dphi = _dphi(phi0.values, eps, data, ctx64, params)
    assert np.abs(dphi).max() == pytest.approx(0.5 * grid64.hx, rel=1e-12)


def test_fixed_band_run_reports_its_eps(ctx64, grid64):
    truth, data, phi0 = _problem(ctx64, grid64)
    eps = 4 * grid64.hx
    rec = run_tikhonov(phi0, data, ctx64,
                       TikhonovParams(eps=eps, max_iters=3), truth=truth)
    assert rec.rows["final_eps"] == eps


def test_band_continuation_ends_binary_on_the_truth(ctx64, grid64):
    # same-grid data of a nodal truth: the binary truth fits exactly
    truth, data, phi0 = _problem(ctx64, grid64)
    h = grid64.hx
    params = TikhonovParams(alpha=1e-3, beta=0.0, eps=4 * h,
                            eps_min=0.25 * h, step="implicit",
                            max_iters=3000)
    rec = run_tikhonov(phi0, data, ctx64, params, truth=truth)
    assert rec.rows["final_eps"] == 0.25 * h
    # binary on the truth, no node lies in the quarter-cell band, so the
    # first step after the last narrowing moves nothing
    assert rec.stop_reason == "empty_band"
    assert np.array_equal(rec.final_q.values, truth.values)
    assert rec.components[-1] == 1


def test_implicit_runs_on_one_grid_share_one_gauss_newton_matrix(
        monkeypatch):
    # the Gauss-Newton and the dense Neumann matrix are built once per grid,
    # on the grid's one cached context, so a second implicit run reuses the
    # first run's, and narrowing the band rebuilds neither. At alpha 1e12
    # every step is short enough to narrow, so the band halves from 4 cells
    # to its floor of 1/4 cell in the first four steps.
    solved = []

    def solve(ctx, rhs, coupling=None):
        solved.append((ctx.normal, ctx.neumann))
        return helmholtz_solve(ctx, rhs, coupling)

    monkeypatch.setattr(tikhonov, "helmholtz_solve", solve)
    cfg = replace(exp1_config(), alpha=1e12, max_iters=6)
    normals = []
    for setup in (prepare(cfg), prepare(cfg)):
        rec = run_tikhonov(setup.phi0, setup.data, setup.ctx,
                           cfg.tikhonov_params(), setup.truth)
        assert rec.rows["final_eps"] == 0.25 * setup.grid.hx
        normals.append(vars(setup.ctx)["normal"])
    assert normals[0] is normals[1]
    assert len(solved) == 2 * cfg.max_iters
    assert all(normal is solved[0][0] and neumann is solved[0][1]
               for normal, neumann in solved)


def test_band_narrowing_restarts_the_stall_count(monkeypatch):
    """At alpha 1e-12 a step of 1e-3 counts as a stall, since alpha * 1e-3
    is below STAGNATION_TOL, but is too long to narrow the band. The stub
    step stalls so on every call but the tenth, which leaves phi as it was
    and so narrows the band; the stall count starts again from there."""
    calls = 0

    def stub_step(phi, drive, band, eps, ctx, params, smooth):
        nonlocal calls
        calls += 1
        dphi = np.full(phi.size, 0.0 if calls == 10 else 1e-3)
        return phi + dphi, dphi

    monkeypatch.setattr(tikhonov, "tikhonov_step", stub_step)
    cfg = replace(exp2_config(0.5), alpha=1e-12, eps_min_cells=1.0,
                  max_iters=100)
    setup = prepare(cfg)
    rec = execute(setup)
    assert rec.rows["final_eps"] < setup.eps
    assert (rec.stop_reason, rec.stop_iteration) == \
        ("stagnation", 10 + STAGNATION_STEPS)


def test_run_uses_the_context_it_is_given():
    """A run on an uncached context reads every matrix from that context:
    it does not even look the grid up in the per-grid cache, so the cache
    gains no second context for the grid. Only the explicit step reads the
    smoothing matrix."""
    grid = build_grid(1.0, 0.5, 48)
    ctx = OperatorContext(grid)
    truth, data, phi0 = _problem(ctx, grid)
    for step in ("implicit", "explicit"):
        before = operator_context.cache_info()
        run_tikhonov(phi0, data, ctx,
                     TikhonovParams(eps=2 * grid.hx, step=step, max_iters=3),
                     truth=truth)
        assert operator_context.cache_info() == before
        assert ("smoothing" in vars(ctx)) == (step == "explicit")
    assert {"smoothing", "neumann", "derivative", "normal"} \
        <= vars(ctx).keys()
