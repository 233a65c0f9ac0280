"""Front transport: upwind scheme, velocity construction, run loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyls import (GAMMA1, GAMMA2, TransportParams, front_velocity,
                      init_levelset, run_transport, sharp_indicator,
                      synthesize_cauchy_data, transport_step, upwind_step,
                      trace_from_function, zero_trace)
from cauchyls.operator import apply_adjoint, apply_forward
from cauchyls.transport import dirichlet_poisson


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
        TransportParams(eps_clamp=0.0)
    with pytest.raises(ValueError):
        TransportParams(eps_clamp=1.5)
    with pytest.raises(ValueError):
        TransportParams(cfl_max=0.95)
    # below the floor one iteration could take ceil(0.5 / cfl_max) substeps;
    # only constructed here, never run
    with pytest.raises(ValueError):
        TransportParams(cfl_max=1e-9)


def test_upwind_shifts_ramp_one_node():
    # V = c > 0 with c dt = h moves the profile one node to the right
    n = 33
    h = 1.0 / (n - 1)
    phi = np.linspace(0.0, 1.0, n)
    out = upwind_step(phi, np.full(n, 1.0), h, h)
    assert np.allclose(out[1:], phi[:-1])
    assert out[0] == phi[0]  # no inflow information, value held


def test_upwind_leftward_shift():
    n = 33
    h = 1.0 / (n - 1)
    phi = np.linspace(0.0, 1.0, n)
    out = upwind_step(phi, np.full(n, -1.0), h, h)
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
    out = upwind_step(phi, v, dt, h)
    assert out.max() <= phi.max() + 1e-12
    assert out.min() >= phi.min() - 1e-12


def test_transport_step_substeps_large_dt(grid64):
    # dt far beyond the CFL limit must still respect the maximum principle
    phi = init_levelset(grid64, ((0.3, 0.6),), 4 * grid64.hx).values
    rng = np.random.default_rng(7)
    v = rng.uniform(-1, 1, size=grid64.nx + 1)
    out = transport_step(phi, v, float(np.max(np.abs(v))),
                         dt=50 * grid64.hx, cfl_max=0.9, h=grid64.hx)
    assert out.max() <= phi.max() + 1e-12
    assert out.min() >= phi.min() - 1e-12


def test_front_velocity_vanishes_at_walls(ctx64, grid64):
    truth, data, phi0 = _problem(ctx64, grid64)
    q = phi0.with_values(sharp_indicator(phi0.values))
    r = data.g2.with_values(apply_forward(ctx64, q).values - data.rhs.values)
    h = grid64.hx
    v = front_velocity(q.values, apply_adjoint(ctx64, r).values,
                       TransportParams().eps_clamp,
                       dirichlet_poisson(grid64.nx + 1, h), h)
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
