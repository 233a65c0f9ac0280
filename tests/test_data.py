"""Trace norms, data synthesis on a finer grid, calibrated noise."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyls import (GAMMA1, GAMMA2, CauchyData, OperatorContext, TraceFn,
                      add_noise, apply_forward, build_grid, l2_norm_trace,
                      operator_context, synthesize_cauchy_data, trace_inner,
                      trace_from_function, with_noise, zero_trace)
from cauchyls.experiments import execute, exact_problem, exp2_config, prepare


def test_l2_norm_of_sine_mode(grid64):
    t = trace_from_function(grid64, GAMMA2, lambda x: np.sin(np.pi * x))
    # ||sin(pi x)||_{L2(0,1)} = 1/sqrt(2)
    assert l2_norm_trace(t) == pytest.approx(np.sqrt(0.5), rel=1e-3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=9, max_size=9),
       st.lists(st.floats(-5, 5), min_size=9, max_size=9))
def test_trace_inner_symmetric_and_consistent(a_vals, b_vals):
    g = build_grid(1.0, 0.5, 8)
    a = TraceFn(g, GAMMA2, np.array(a_vals))
    b = TraceFn(g, GAMMA2, np.array(b_vals))
    assert trace_inner(a, b) == pytest.approx(trace_inner(b, a), abs=1e-12)
    assert trace_inner(a, a) == pytest.approx(l2_norm_trace(a) ** 2, abs=1e-10)


def test_trace_inner_rejects_mismatched_parts(grid64):
    a = zero_trace(grid64, GAMMA1)
    b = zero_trace(grid64, GAMMA2)
    with pytest.raises(ValueError):
        trace_inner(a, b)


# -- noise ---------------------------------------------------------------------

def test_noise_has_exact_relative_magnitude(grid64):
    g2 = trace_from_function(grid64, GAMMA1, lambda x: 1.0 + np.cos(np.pi * x))
    noisy, delta = add_noise(g2, 0.1, seed=5)
    assert delta == pytest.approx(0.1 * l2_norm_trace(g2))
    diff = g2.with_values(noisy.values - g2.values)
    assert l2_norm_trace(diff) == pytest.approx(delta, rel=1e-12)


def test_noise_is_deterministic(grid64):
    g2 = trace_from_function(grid64, GAMMA1, lambda x: np.cos(np.pi * x))
    a, da = add_noise(g2, 0.1, seed=42)
    b, db = add_noise(g2, 0.1, seed=42)
    c, _ = add_noise(g2, 0.1, seed=43)
    assert np.array_equal(a.values, b.values) and da == db
    assert not np.array_equal(a.values, c.values)


def test_zero_level_noise_is_identity(grid64):
    g2 = trace_from_function(grid64, GAMMA1, lambda x: np.cos(np.pi * x))
    noisy, delta = add_noise(g2, 0.0, seed=1)
    assert delta == 0.0
    assert np.array_equal(noisy.values, g2.values)


def test_negative_level_rejected(grid64):
    with pytest.raises(ValueError):
        add_noise(zero_trace(grid64, GAMMA1), -0.1, seed=1)


def test_nan_level_rejected(grid64):
    with pytest.raises(ValueError, match="noise level"):
        add_noise(zero_trace(grid64, GAMMA1), float("nan"), seed=1)


# -- synthesis ----------------------------------------------------------------

def _truth(grid):
    return trace_from_function(
        grid, GAMMA2, lambda x: ((x >= 0.3) & (x <= 0.7)).astype(float))


def test_same_grid_synthesis_closes(ctx64, grid64):
    # on one grid the truth flux reproduces the data to solver precision
    data = synthesize_cauchy_data(_truth(grid64), zero_trace(grid64, GAMMA1),
                                  ctx64, ctx64)
    res = apply_forward(ctx64, _truth(grid64)).values - data.rhs.values
    assert np.abs(res).max() < 1e-10
    assert data.delta == 0.0


def test_finer_grid_synthesis_keeps_discretization_gap(grid64):
    # data from a 2x finer forward solve: the truth no longer fits exactly,
    # which is precisely the point of synthesizing off-grid
    fine = build_grid(1.0, 0.5, 128)
    # synthesis reads the symbols of both grids through transforms: no
    # dense matrix is built on either
    ctx_fine, ctx = OperatorContext(fine), OperatorContext(grid64)
    data = synthesize_cauchy_data(_truth(fine), zero_trace(fine, GAMMA1),
                                  ctx_fine, ctx)
    for c in (ctx_fine, ctx):
        assert not {"maps", "smoothing", "normal"} & vars(c).keys()
    res = apply_forward(ctx, _truth(grid64)).values - data.rhs.values
    gap = np.abs(res).max()
    assert 1e-8 < gap < 1e-2


def test_run_builds_no_dense_matrix_on_the_synthesis_grid():
    # prepare puts the synthesis grid's context in the per-grid cache next
    # to the inversion grid's; only the latter ever builds its maps. The
    # exact problem is cleared too, or a warm one would skip the synthesis
    operator_context.cache_clear()
    exact_problem.cache_clear()
    setup = prepare(replace(exp2_config(0.5), max_iters=2))
    execute(setup)
    assert operator_context.cache_info().currsize == 2
    fine = build_grid(1.0, 0.5, 128, 2 * setup.grid.ny)
    hits = operator_context.cache_info().hits
    assert not {"maps", "smoothing", "normal"} & vars(
        operator_context(fine)).keys()
    assert operator_context.cache_info().hits == hits + 1
    assert "maps" in vars(setup.ctx)


def test_with_noise_only_touches_g2(ctx64, grid64):
    data = synthesize_cauchy_data(_truth(grid64), zero_trace(grid64, GAMMA1),
                                  ctx64, ctx64)
    noisy = with_noise(data, 0.1, seed=9)
    assert noisy.delta > 0
    assert np.array_equal(noisy.g1.values, data.g1.values)
    assert np.array_equal(noisy.z.values, data.z.values)
    assert not np.array_equal(noisy.g2.values, data.g2.values)


def test_nan_delta_rejected(grid64):
    # a nan delta would switch the discrepancy stop off: delta > 0 is false
    zero = zero_trace(grid64, GAMMA1)
    with pytest.raises(ValueError, match="noise magnitude"):
        CauchyData(g1=zero, g2=zero, delta=float("nan"), z=zero)


def test_cauchy_data_lives_on_one_grid(grid64, grid64_h1):
    zero, other = zero_trace(grid64, GAMMA1), zero_trace(grid64_h1, GAMMA1)
    for g1, g2, z in ((other, zero, zero), (zero, other, zero),
                      (zero, zero, other)):
        with pytest.raises(ValueError, match="one grid"):
            CauchyData(g1=g1, g2=g2, delta=0.0, z=z)
    # every part lives on the bottom edge
    with pytest.raises(ValueError, match="bottom edge"):
        CauchyData(g1=zero_trace(grid64, GAMMA2), g2=zero, delta=0.0, z=zero)


def test_synthesis_validates_trace_homes(ctx64, grid64):
    with pytest.raises(ValueError):
        synthesize_cauchy_data(zero_trace(grid64, GAMMA1),
                               zero_trace(grid64, GAMMA1), ctx64, ctx64)
