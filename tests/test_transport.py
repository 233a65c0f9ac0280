"""Front transport: upwind scheme, velocity construction, run loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyls import (GAMMA1, GAMMA2, TransportParams, front_velocity,
                      init_levelset, run_transport, sharp_indicator,
                      split_velocity, synthesize_cauchy_data, transport_step,
                      upwind_step,
                      trace_from_function, zero_trace)
from cauchyls.config import METHOD_TRANSPORT
from cauchyls.experiments import (execute, exp1_config, exp3_config, prepare,
                                  transport_benchmark_config)
from cauchyls.operator import apply_adjoint, apply_forward
from cauchyls.pde import SolverError


def _problem(ctx, grid):
    truth = trace_from_function(
        grid, GAMMA2, lambda x: ((x >= 0.3) & (x <= 0.7)).astype(float))
    data = synthesize_cauchy_data(truth, zero_trace(grid, GAMMA1), ctx, ctx)
    phi0 = init_levelset(grid, ((0.45, 0.55),), 4 * grid.hx)
    return truth, data, phi0


def test_params_validation():
    with pytest.raises(ValueError):
        TransportParams(dt=0.0)
    with pytest.raises(ValueError):
        TransportParams(max_iters=-1)
    # a target error that is not positive would never stop the run
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^target_error "):
            TransportParams(target_error=bad)
    assert TransportParams(target_error=None).target_error is None


def test_upwind_shifts_ramp_one_node():
    # V = c > 0 with c dt = h moves the profile one node to the right
    n = 33
    h = 1.0 / (n - 1)
    phi = np.linspace(0.0, 1.0, n)
    out = upwind_step(phi, *split_velocity(np.full(n, 1.0)), h, h)
    assert np.allclose(out[1:], phi[:-1])
    assert out[0] == phi[0]  # no inflow information, value held


def test_upwind_leftward_shift():
    n = 33
    h = 1.0 / (n - 1)
    phi = np.linspace(0.0, 1.0, n)
    out = upwind_step(phi, *split_velocity(np.full(n, -1.0)), h, h)
    assert np.allclose(out[:-1], phi[1:])
    assert out[-1] == phi[-1]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 0.9))
def test_upwind_maximum_principle(seed, cfl):
    rng = np.random.default_rng(seed)
    n = 25
    h = 1.0 / (n - 1)
    phi = rng.uniform(-2, 2, size=n)
    v = rng.uniform(-1, 1, size=n)
    dt = cfl * h / np.abs(v).max()
    out = upwind_step(phi, *split_velocity(v), dt, h)
    assert out.max() <= phi.max() + 1e-12
    assert out.min() >= phi.min() - 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(1e-3, 1e3), st.booleans())
def test_transport_step_caps_at_half_a_cell(seed, dt_cells, at_rest):
    # any dt_max, up to a thousand cells' worth, moves fronts at most half
    # a cell, so the single upwind step keeps the profile's bounds
    rng = np.random.default_rng(seed)
    n = 25
    h = 1.0 / (n - 1)
    phi = rng.uniform(-2, 2, size=n)
    v = np.zeros(n) if at_rest else rng.uniform(-1, 1, size=n)
    vmax = float(np.max(np.abs(v)))
    dt_max = dt_cells * h
    out, dt = transport_step(phi, *split_velocity(v), vmax, dt_max, h)
    assert 0 < dt <= dt_max
    assert vmax * dt <= 0.5 * h * (1 + 1e-15)
    assert out.max() <= phi.max() + 1e-12
    assert out.min() >= phi.min() - 1e-12


def test_front_velocity_vanishes_at_walls(ctx64, grid64):
    truth, data, phi0 = _problem(ctx64, grid64)
    q = phi0.with_values(sharp_indicator(phi0.values))
    r = data.g2.with_values(apply_forward(ctx64, q).values - data.rhs.values)
    h = grid64.hx
    v = front_velocity(q.values, apply_adjoint(ctx64, r).values, h)
    assert v[0] == 0.0 and v[-1] == 0.0
    assert np.all(np.isfinite(v))


def test_run_transport_reaches_truth_on_exact_data(ctx64, grid64):
    truth, data, phi0 = _problem(ctx64, grid64)
    params = TransportParams(dt=0.5, max_iters=5000, target_error=5e-3)
    rec = run_transport(phi0, data, ctx64, params, truth=truth)
    assert rec.stop_reason == "target_error"
    assert rec.errors[-1] <= 5e-3
    # iterates stay sharp: the indicator takes only the two phase values
    assert set(np.unique(rec.final_q.values)) <= {0.0, 1.0}


def test_run_transport_asymp_gap_stream(ctx64, grid64):
    truth, data, phi0 = _problem(ctx64, grid64)
    rec = run_transport(phi0, data, ctx64, TransportParams(max_iters=5),
                        truth=truth)
    assert rec.asymp_gap is not None
    assert len(rec.asymp_gap) == len(rec.residuals) - 1
    assert all(np.isfinite(v) for v in rec.asymp_gap)


def test_run_transport_without_truth(ctx64, grid64):
    _, data, phi0 = _problem(ctx64, grid64)
    rec = run_transport(phi0, data, ctx64, TransportParams(max_iters=5))
    assert rec.errors is None
    assert rec.asymp_gap is None
    assert rec.stop_reason == "max_iters"


def test_transport_noisy_requires_tau_above_one(ctx64, grid64):
    from cauchyls import with_noise
    _, data, phi0 = _problem(ctx64, grid64)
    noisy = with_noise(data, 0.1, seed=4)
    with pytest.raises(ValueError):
        run_transport(phi0, noisy, ctx64, TransportParams(tau=1.0, max_iters=3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_velocity_stops_at_its_step(monkeypatch, bad):
    """A non-finite adjoint value makes the velocity and then the profile
    non-finite; run_flow's check of the new profile names the iteration.
    The context is the grid's cached one, so the poisoned adjoint is
    undone after the test."""
    cfg = transport_benchmark_config()
    setup = prepare(cfg)
    adjoint = setup.ctx.adjoint

    def poisoned(values):
        out = np.array(adjoint(values))
        out[out.size // 2] = bad
        return out

    monkeypatch.setattr(setup.ctx, "adjoint", poisoned)
    with np.errstate(all="ignore"), pytest.raises(
            SolverError, match="iteration 1: the level-set step produced "
                               "non-finite values"):
        run_transport(setup.phi0, setup.data, setup.ctx,
                      cfg.transport_params(), truth=setup.truth)


@pytest.mark.parametrize("cfg, revisit, error", [
    # exp3's config as transport at 1% noise reaches the truth at iteration
    # 62 and returns to an indicator it had left at 78; without the rule it
    # cycled to max_iters@3000 at error 0.177
    (replace(exp3_config(), method=METHOD_TRANSPORT, dt=0.5, max_iters=3000,
             noise_level=0.01, seed=1), 78, 0.0),
    # exp1's data from two seeds: the first revisit at 9; without the rule
    # max_iters@3000 at error 0.25
    (replace(exp1_config(), method=METHOD_TRANSPORT, dt=0.5, max_iters=3000,
             init_intervals=((0.22, 0.38), (0.62, 0.78))), 9, 0.25),
], ids=["exp3_transport_1pct", "exp1_two_seeds"])
def test_transport_stops_on_the_first_revisit(cfg, revisit, error):
    cfg = replace(cfg, snapshot_iters=tuple(range(revisit + 2)))
    record = execute(prepare(cfg))
    assert (record.stop_reason, record.stop_iteration) == ("cycle",
                                                           revisit + 1)
    assert record.errors[-1] == pytest.approx(error, abs=1e-12)
    # the indicators the run left, in order; the one at the revisit is the
    # first that repeats one of them
    qs = [record.snapshots[k][1] for k in range(revisit + 1)]
    changes = [k for k in range(1, revisit + 1)
               if not np.array_equal(qs[k], qs[k - 1])]
    assert changes[-1] == revisit
    seen = [qs[0]]
    for k in changes[:-1]:
        assert not any(np.array_equal(qs[k], q) for q in seen)
        seen.append(qs[k])
    assert any(np.array_equal(qs[revisit], q) for q in seen[:-1])
