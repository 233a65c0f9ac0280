"""Run records and the error/component observation."""

from types import SimpleNamespace

import numpy as np
import pytest

from cauchyls import (GAMMA1, GAMMA2, CauchyData, SolverError,
                      TikhonovParams, TraceFn, TransportParams, apply_forward,
                      build_grid, l2_norm_trace, quadrature_weights,
                      run_tikhonov, run_transport, zero_trace)
from cauchyls.data import weighted_norm
from cauchyls.record import (STAGNATION_STEPS, STOP_DISCREPANCY,
                             STOP_MAX_ITERS, STOP_REASONS, STOP_STAGNATION,
                             STOP_TARGET_ERROR, RunRecord, observe, run_flow)


def test_observe_reports_iterate_distance_and_components():
    g = build_grid(1.0, 0.5, 16)
    truth = ((g.xs >= 0.3) & (g.xs <= 0.7)).astype(float)
    q = np.clip(truth + 0.2, 0.0, 1.0)
    err, comps = observe(q, truth, quadrature_weights(g, GAMMA2))
    # the error is the L2 distance of the iterate itself, ramps included
    assert err == pytest.approx(l2_norm_trace(TraceFn(g, GAMMA2, q - truth)))
    assert comps == 1


def test_observe_without_truth_counts_only_components():
    g = build_grid(1.0, 0.5, 16)
    err, comps = observe((g.xs > 0.5).astype(float), None, None)
    assert err is None and comps == 1


@pytest.mark.parametrize("rows, cols", [
    (1, 17), (2, 65), (7, 65), (64, 65), (65, 257), (64, 1025), (3001, 17),
])
def test_stacked_observation_has_the_bytes_of_each_row(rows, cols):
    """run_flow observes a chunk of iterates as one stack; every value must
    be the one the iterate's own observation gives."""
    rng = np.random.default_rng(rows * cols)
    g = build_grid(1.0, 0.5, cols - 1)
    w = quadrature_weights(g, GAMMA2)
    truth = (rng.random(cols) < 0.5).astype(float)
    # ramp iterates: gray values, exact 0, 1/2 and 1
    qs = np.clip(rng.uniform(-0.5, 1.5, (rows, cols)), 0.0, 1.0)
    qs[:, ::7] = 0.5
    residuals = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(
        -8, 2, (rows, 1))
    norms = weighted_norm(residuals, w)
    errs, comps = observe(qs, truth, w)
    assert norms.shape == errs.shape == comps.shape == (rows,)
    for i in range(rows):
        assert norms[i].tobytes() == np.float64(
            weighted_norm(residuals[i], w)).tobytes()
        err, n = observe(qs[i], truth, w)
        assert errs[i].tobytes() == np.float64(err).tobytes()
        assert comps[i] == n
    assert observe(qs, None, w)[0] is None


def test_finish_validates_stop_reason():
    g = build_grid(1.0, 0.5, 8)
    t = zero_trace(g, GAMMA2)
    rec = RunRecord()
    with pytest.raises(ValueError):
        rec.finish("wandered_off", 3, t, t, 0.1)
    for reason in STOP_REASONS:
        assert RunRecord().finish(reason, 1, t, t, 0.0).stop_reason == reason


# -- the shared iteration loop -------------------------------------------------

N = STAGNATION_STEPS


@pytest.mark.parametrize("stall, delta, target, max_iters, expected", [
    (True, 0.0, None, 10 * N, STOP_STAGNATION),
    (True, 1e-6, 0.1, N, STOP_STAGNATION),
    (False, 1e-6, 0.1, N, STOP_DISCREPANCY),
    (False, 0.0, 0.1, N, STOP_TARGET_ERROR),
    (False, 0.0, None, N, STOP_MAX_ITERS),
])
def test_run_flow_stop_rules_and_precedence(ctx16, grid16, stall, delta,
                                            target, max_iters, expected):
    # the stub profile counts steps; from step N on its flux is the truth,
    # which fits the data exactly, so every rule that is active holds at
    # k = N and none holds before; a stalling stub names stagnation there,
    # as a flow does after STAGNATION_STEPS stalled steps
    truth = zero_trace(grid16, GAMMA2).with_values(
        ((grid16.xs >= 0.3) & (grid16.xs <= 0.7)).astype(float))
    zero1 = zero_trace(grid16, GAMMA1)
    data = CauchyData(g1=zero1, g2=apply_forward(ctx16, truth), delta=delta,
                      z=zero1)

    # the loop hands indicator, direction and step value arrays, not traces
    def indicator(phi):
        return truth.values if phi[0] >= N else np.zeros_like(truth.values)

    def step(phi, d):
        phi = phi + 1.0
        return phi, STOP_STAGNATION if stall and phi[0] >= N else None

    params = SimpleNamespace(tau=1.5, max_iters=max_iters, target_error=target)
    rec = run_flow(zero_trace(grid16, GAMMA2), data, ctx16, params, indicator,
                   lambda q, r: r, step, truth=truth)
    assert rec.stop_reason == expected
    assert rec.stop_iteration == N
    assert len(rec.residuals) == len(rec.errors) == rec.stop_iteration + 1
    assert rec.final_q.values is truth.values
    # a fresh array with the bytes of its predecessor is no new indicator:
    # the zero flux of iterate 0 and the truth at iterate N are evaluated
    assert rec.residual_evaluations == 2


def test_run_flow_names_the_step_that_breaks_down(ctx16, grid16):
    zero1 = zero_trace(grid16, GAMMA1)
    data = CauchyData(g1=zero1, g2=zero1, delta=0.0, z=zero1)

    def step(phi, d):
        # 1 -> 1e308 -> overflow
        return phi * 1e308, None

    params = SimpleNamespace(tau=1.5, max_iters=5, target_error=None)
    phi0 = zero_trace(grid16, GAMMA2).with_values(np.ones(grid16.nx + 1))
    with pytest.raises(SolverError, match="iteration 2"), \
            np.errstate(over="ignore"):
        run_flow(phi0, data, ctx16, params, lambda phi: phi,
                 lambda q, r: r, step)


def test_run_flow_rejects_a_stop_outside_the_table(ctx16, grid16):
    zero1 = zero_trace(grid16, GAMMA1)
    data = CauchyData(g1=zero1, g2=zero1, delta=0.0, z=zero1)

    def step(phi, d):
        return phi, "wandered_off"

    params = SimpleNamespace(tau=1.5, max_iters=5, target_error=None)
    with pytest.raises(ValueError, match="wandered_off"):
        run_flow(zero_trace(grid16, GAMMA2), data, ctx16, params,
                 lambda phi: phi, lambda q, r: r, step)


def _inputs(grid):
    """A zero profile, truth and Cauchy pair on grid, by name."""
    zero1 = zero_trace(grid, GAMMA1)
    return {"profile": zero_trace(grid, GAMMA2),
            "truth": zero_trace(grid, GAMMA2),
            "data": CauchyData(g1=zero1, g2=zero1, delta=0.0, z=zero1)}


@pytest.mark.parametrize("run, params", [
    (run_tikhonov, TikhonovParams(eps=2 * build_grid(1.0, 0.5, 16).hx,
                                  max_iters=3)),
    (run_transport, TransportParams(max_iters=3)),
], ids=["tikhonov", "transport"])
@pytest.mark.parametrize("name, other", [
    ("profile", build_grid(1.0, 0.5, 32)),
    ("truth", build_grid(1.0, 1.0, 16)),
    # the same nodes on another height: the wrong operator, same shapes
    ("data", build_grid(1.0, 1.0, 16)),
    ("data", build_grid(1.0, 0.5, 32)),
], ids=["profile-nx", "truth-height", "data-height", "data-nx"])
def test_flows_reject_inputs_off_the_context_grid(ctx16, grid16, run, params,
                                                  name, other):
    inputs = _inputs(grid16)
    inputs[name] = _inputs(other)[name]
    with pytest.raises(ValueError, match=f"^the {name} must"):
        run(inputs["profile"], inputs["data"], ctx16, params,
            truth=inputs["truth"])
