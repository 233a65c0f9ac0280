"""The array-level iteration loop against a loop over traces, the number
of map applies it makes, and the benchmark tracer's view of that loop.

run_tikhonov and run_transport iterate on raw value arrays with per-run
constants (quadrature weights, the scaled smoothing matrix, Tikhonov's
stacked drive matrix), and run_flow observes the iterates no stop rule
reads in chunks of OBSERVE_CHUNK evaluations. The reference loops below
carry traces from step to step, apply the checked apply_forward (and
transport's apply_adjoint), take norms with l2_norm_trace, observe every
iterate as it comes and rebuild Tikhonov's per-run matrices and band at
every step, as the iteration was before it moved to arrays; the two must
agree bit for bit.
"""

import importlib.util
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cauchyls import (apply_adjoint, apply_forward, front_velocity,
                      l2_norm_trace, quadrature_weights, sharp_indicator,
                      smoothed_heaviside, split_velocity, tikhonov_step,
                      transport_step)
from cauchyls import record, tikhonov
from cauchyls.config import METHOD_TRANSPORT
from cauchyls.experiments import (exp1_config, exp2_config, exp3_config,
                                  execute, prepare,
                                  transport_benchmark_config)
from cauchyls.levelset import redistance
from cauchyls.record import (OBSERVE_CHUNK, STOP_CYCLE, STOP_DISCREPANCY,
                             STOP_EMPTY_BAND, STOP_MAX_ITERS,
                             STOP_TARGET_ERROR, RunRecord, observe)
from cauchyls.tikhonov import (NARROW_FACTOR, NARROW_TOL_CELLS, lift_matrix,
                               tikhonov_direction)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _residual(ctx, data, q):
    lq = apply_forward(ctx, q)
    return lq.with_values(lq.values - data.rhs.values)


def _reference(setup, params, indicator, step):
    """phi -> step(phi, q, r) on traces, observing and recording every
    iterate as it comes, until a stop the step names or the discrepancy,
    target error or max_iters rule holds; the runs checked here never
    stall."""
    rec = RunRecord()
    phi, truth, data = setup.phi0, setup.truth, setup.data
    w = quadrature_weights(truth.grid, truth.part)
    stop = None
    for k in itertools.count():
        q = indicator(phi)
        r = _residual(setup.ctx, data, q)
        res = l2_norm_trace(r)
        err, comps = observe(q.values, truth.values, w)
        rec.record([res], [err], [comps])
        rec.snapshots[k] = (phi.values.copy(), q.values.copy())
        if stop is not None:
            reason = stop
        elif data.delta > 0 and res <= params.tau * data.delta:
            reason = STOP_DISCREPANCY
        elif params.target_error is not None and err <= params.target_error:
            reason = STOP_TARGET_ERROR
        elif k >= params.max_iters:
            reason = STOP_MAX_ITERS
        else:
            phi, stop = step(phi, q, r)
            continue
        return rec.finish(reason, k, phi, q, 0.0)


def _tikhonov_reference(setup, params):
    eps = params.eps
    h = setup.grid.hx
    n = setup.grid.nx + 1
    narrow_tol = NARROW_TOL_CELLS * h

    def step(phi, q, r):
        nonlocal eps
        band = np.empty(n, dtype=bool)
        smoothed_heaviside(phi.values, eps, band)
        drive = tikhonov_direction(q.values, r.values, setup.ctx,
                                   lift_matrix(setup.ctx, params.beta),
                                   params.eta, np.empty(2 * n))
        smooth = setup.ctx.smoothing / (params.alpha * eps)
        new, dphi = tikhonov_step(phi.values, drive, band, eps, setup.ctx,
                                  params, smooth)
        if params.eps_min is not None and eps > params.eps_min \
                and np.max(np.abs(dphi)) <= narrow_tol:
            ramp = smoothed_heaviside(new, eps)
            eps = max(NARROW_FACTOR * eps, params.eps_min)
            return phi.with_values(redistance(ramp, setup.grid.xs, h,
                                              eps)), None
        return phi.with_values(new), None

    rec = _reference(
        setup, params,
        lambda phi: phi.with_values(smoothed_heaviside(phi.values, eps)),
        step)
    rec.rows["final_eps"] = eps
    return rec


def _transport_reference(setup, params):
    """Transport's loop on traces; the step after the first return of q to
    an indicator the run has left names cycle."""
    h = setup.grid.hx
    dts = []
    left, current = [], None

    def step(phi, q, r):
        nonlocal current
        revisit = False
        if current is None or not np.array_equal(q.values, current):
            revisit = any(np.array_equal(q.values, p) for p in left)
            if current is not None:
                left.append(current)
            current = q.values
        grad = apply_adjoint(setup.ctx, r).values
        v = front_velocity(q.values, grad, h)
        new, dt = transport_step(phi.values, *split_velocity(v),
                                 float(np.max(np.abs(v))), params.dt, h)
        dts.append(dt)
        return phi.with_values(new), STOP_CYCLE if revisit else None

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
    assert rec.rows.get("final_eps") == ref.rows.get("final_eps")


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
    ref = _tikhonov_reference(setup, cfg.tikhonov_params())
    _assert_same(rec, ref)
    if cfg.eps_min_cells is not None:
        # the run went past a narrowing
        assert rec.rows["final_eps"] < setup.eps


def test_transport_loop_matches_trace_reference():
    cfg = replace(transport_benchmark_config(), max_iters=40,
                  target_error=None, snapshot_iters=tuple(range(41)))
    setup = prepare(cfg)
    rec = execute(setup)
    ref, dts = _transport_reference(setup, cfg.transport_params())
    _assert_same(rec, ref)
    e, res = ref.errors, ref.residuals
    assert rec.asymp_gap == [(e[k + 1] ** 2 - e[k] ** 2) / dt
                             + 2.0 * res[k] ** 2 for k, dt in enumerate(dts)]


def _assert_matches_reference(cfg, stop):
    """Run cfg, snapshotting every iterate up to the expected stop, and
    check it bit for bit against its trace reference."""
    cfg = replace(cfg, snapshot_iters=tuple(range(stop[1] + 1)))
    setup = prepare(cfg)
    rec = execute(setup)
    if cfg.method == METHOD_TRANSPORT:
        ref, _ = _transport_reference(setup, cfg.transport_params())
    else:
        ref = _tikhonov_reference(setup, cfg.tikhonov_params())
    assert (rec.stop_reason, rec.stop_iteration) == stop
    _assert_same(rec, ref)
    return rec


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_runs_ending_at_a_chunk_boundary_match_the_reference(offset):
    """The last iterate ends a full chunk (offset -1: 64 iterates), opens a
    new one (0) or is the second of one (+1)."""
    n = OBSERVE_CHUNK + offset
    rec = _assert_matches_reference(replace(exp2_config(0.5), max_iters=n),
                                    (STOP_MAX_ITERS, n))
    assert len(rec.residuals) == len(rec.components) == n + 1


# a chunk of 1 flushes at every evaluation, one of 4 in the middle of runs
# of repeated indicators
@pytest.mark.parametrize("chunk", [1, 4, OBSERVE_CHUNK])
@pytest.mark.parametrize("cfg, stop", [
    (exp3_config(), (STOP_DISCREPANCY, 6)),
    # 11 evaluations in 61 iterates
    (replace(exp3_config(), method=METHOD_TRANSPORT, dt=0.5),
     (STOP_DISCREPANCY, 60)),
    (transport_benchmark_config(), (STOP_TARGET_ERROR, 62)),
], ids=["exp3", "exp3_transport", "transport_target"])
def test_runs_with_live_stop_values_match_the_reference(monkeypatch, chunk,
                                                        cfg, stop):
    """The discrepancy rule reads each evaluation's residual norm, and the
    target error rule its error, as they come; the histories hold the same
    values."""
    monkeypatch.setattr(record, "OBSERVE_CHUNK", chunk)
    _assert_matches_reference(cfg, stop)


def test_exp1_target_error_run_matches_the_reference():
    """A live error over 327 evaluations, five full chunks, through band
    narrowings."""
    _assert_matches_reference(exp1_config(), (STOP_TARGET_ERROR, 326))


def test_transport_repeats_across_chunk_boundaries_match_the_reference(
        monkeypatch):
    # without its target error the transport benchmark leaves the truth at
    # iterate 76 and returns at 77, so the step after names cycle; its 12
    # evaluations fill chunks of 4
    chunk = 4
    monkeypatch.setattr(record, "OBSERVE_CHUNK", chunk)
    rec = _assert_matches_reference(
        replace(transport_benchmark_config(), max_iters=400,
                target_error=None), (STOP_CYCLE, 78))
    qs = [rec.snapshots[k][1] for k in range(79)]
    fresh = [k for k, q in enumerate(qs)
             if k == 0 or not np.array_equal(q, qs[k - 1])]
    assert rec.residual_evaluations == len(fresh) > 2 * chunk
    # the last evaluation of each of the first two chunks serves iterates
    # after its own, up to the evaluation that flushes the chunk
    for j in (chunk, 2 * chunk):
        assert fresh[j] - fresh[j - 1] > 1


@pytest.mark.parametrize("cfg, stop, applies", [
    (transport_benchmark_config(), (STOP_TARGET_ERROR, 62), 10),
    (replace(transport_benchmark_config(), max_iters=40, target_error=None),
     (STOP_MAX_ITERS, 40), 4),
    # exp2's moving ramp changes its bytes at every iterate
    (replace(exp2_config(1.0), max_iters=50), (STOP_MAX_ITERS, 50), 51),
    # a band that holds no node: the ramp keeps its bytes, one residual and
    # one drive serve the whole run, and its one step names empty_band
    (replace(exp2_config(0.5), eps_cells=1e-3), (STOP_EMPTY_BAND, 1), 1),
], ids=["transport_target", "transport_40", "exp2", "exp2_empty_band"])
def test_maps_applied_once_per_indicator_change(monkeypatch, cfg, stop,
                                                applies):
    """The loop applies the forward map to iterate 0 and to every iterate
    whose indicator differs from its predecessor's. Each of those residuals
    that a step follows is pulled back once: by the adjoint for transport,
    by the stacked drive matrix of tikhonov_direction for Tikhonov, which
    never calls the adjoint apply."""
    cfg = replace(cfg, snapshot_iters=tuple(range(stop[1] + 1)))
    setup = prepare(cfg)
    calls = {"forward": 0, "adjoint": 0, "lift": 0}

    def counted(name, apply):
        def wrapper(*args):
            calls[name] += 1
            return apply(*args)
        return wrapper

    for name in ("forward", "adjoint"):
        setattr(setup.ctx, name, counted(name, getattr(setup.ctx, name)))
    monkeypatch.setattr(tikhonov, "tikhonov_direction",
                        counted("lift", tikhonov.tikhonov_direction))
    rec = execute(setup)
    assert (rec.stop_reason, rec.stop_iteration) == stop
    qs = [rec.snapshots[k][1] for k in range(stop[1] + 1)]
    fresh = [k == 0 or not np.array_equal(q, qs[k - 1])
             for k, q in enumerate(qs)]
    assert calls["forward"] == rec.residual_evaluations == sum(fresh) \
        == applies
    pulled, unused = ("adjoint", "lift") if cfg.method == METHOD_TRANSPORT \
        else ("lift", "adjoint")
    assert calls[pulled] == sum(fresh[:-1])
    assert calls[unused] == 0


# -- the benchmark tracer sees the loop ---------------------------------------

@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, loaded from its file without changing it."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_instrumented_callable_resolves(tracing):
    for _, mod_name, attr in tracing.INSTRUMENTED:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(mod, attr, None)), attr


@pytest.mark.parametrize("cfg, spans, fresh_spans, evaluations", [
    (replace(exp2_config(0.5), max_iters=5),
     ("tikhonov.step", "levelset.curvature"), (), 6),
    # the indicator does not change in the first 5 iterations, so the one
    # velocity, of iterate 0's residual, serves every step
    (replace(transport_benchmark_config(), max_iters=5),
     ("transport.step", "transport.upwind"), ("transport.velocity",), 1),
], ids=["exp2", "transport_benchmark"])
def test_tracer_sees_one_step_span_per_iteration(tracing, cfg, spans,
                                                 fresh_spans, evaluations):
    """spans open once per iteration, fresh_spans once per computed
    residual that a step follows (here every computed one)."""
    setup = prepare(cfg)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        rec = execute(setup)
    assert (rec.stop_reason, rec.stop_iteration) == (STOP_MAX_ITERS, 5)
    assert rec.residual_evaluations == evaluations
    name_id = np.array(tracer.name_id)
    for span in spans:
        assert np.sum(name_id == tracer.name_index(span)) == 5, span
    for span in fresh_spans:
        assert np.sum(name_id == tracer.name_index(span)) == evaluations, \
            span


def test_tracer_sees_one_observation_per_chunk(tracing):
    """Three chunks: two full ones and the five iterates before the stop."""
    n = 2 * OBSERVE_CHUNK + 4
    setup = prepare(replace(exp2_config(0.5), max_iters=n))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        rec = execute(setup)
    assert len(rec.residuals) == rec.residual_evaluations == n + 1
    name_id = np.array(tracer.name_id)
    for span in ("record.observe", "levelset.components", "record.record"):
        assert np.sum(name_id == tracer.name_index(span)) == 3, span
