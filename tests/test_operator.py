"""Forward map, adjoint, offset and the assembled spectrum.

The closed-form oracle throughout: on the strip (0, w) x (0, a) with unit
coefficient, the map from a top-edge cosine flux cos(k pi x) to the bottom
Neumann trace is multiplication by -1/cosh(k pi a), obtained by separating
variables. The k = 0 column encodes flux conservation: a unit inflow on top
leaves through the bottom unchanged for every height.

The discrete oracle: a context given the unit coefficient as a function
takes the general path, the same five-point operator solved through
MixedSolver, against which the spectral (cosine-mode) maps are checked.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyls import (GAMMA1, GAMMA2, Coefficient, OperatorContext,
                      apply_adjoint, apply_forward, assemble_forward_matrix,
                      build_grid, compute_offset_z, decay_slope, l2_norm_trace,
                      singular_values, trace_from_function, trace_inner,
                      zero_trace)
from cauchyls.operator import MAX_ASSEMBLE_NX, MAX_SPECTRAL_NX, bottom_flux


def _general(grid) -> OperatorContext:
    """Context on the general path: the unit coefficient given as a function
    is the same discrete operator, solved through MixedSolver."""
    return OperatorContext(grid, Coefficient(fn=lambda x, y: np.ones_like(x)))


def test_forward_conserves_unit_flux(ctx64, grid64):
    one = trace_from_function(grid64, GAMMA2, np.ones_like)
    out = apply_forward(ctx64, one)
    assert np.abs(out.values + 1.0).max() < 1e-12


def test_forward_conservation_is_height_independent(ctx64_h1, grid64_h1):
    one = trace_from_function(grid64_h1, GAMMA2, np.ones_like)
    out = apply_forward(ctx64_h1, one)
    assert np.abs(out.values + 1.0).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 4])
def test_forward_damps_cosines_by_sech(ctx64, grid64, k):
    q = trace_from_function(grid64, GAMMA2, lambda x: np.cos(k * np.pi * x))
    out = apply_forward(ctx64, q)
    exact = -np.cos(k * np.pi * grid64.xs) / np.cosh(k * np.pi * grid64.height)
    rel = np.linalg.norm(out.values - exact) / np.linalg.norm(exact)
    assert rel < 1e-2


def test_adjoint_of_constant(ctx64, grid64):
    r = trace_from_function(grid64, GAMMA1, np.ones_like)
    out = apply_adjoint(ctx64, r)
    assert np.abs(out.values + 1.0).max() < 1e-10


def test_adjoint_identity_on_random_pair(ctx64, grid64):
    rng = np.random.default_rng(2)
    q = zero_trace(grid64, GAMMA2).with_values(rng.normal(size=grid64.nx + 1))
    r = zero_trace(grid64, GAMMA1).with_values(rng.normal(size=grid64.nx + 1))
    lhs = trace_inner(apply_forward(ctx64, q), r)
    rhs = trace_inner(q, apply_adjoint(ctx64, r))
    gap = abs(lhs - rhs) / (l2_norm_trace(q) * l2_norm_trace(r))
    assert gap < 1e-3


@settings(max_examples=10, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2 ** 31 - 1))
def test_forward_is_linear(a, b, seed):
    g = build_grid(1.0, 0.5, 16)
    ctx = OperatorContext(g)
    rng = np.random.default_rng(seed)
    q1 = zero_trace(g, GAMMA2).with_values(rng.normal(size=g.nx + 1))
    q2 = zero_trace(g, GAMMA2).with_values(rng.normal(size=g.nx + 1))
    combo = q1.with_values(a * q1.values + b * q2.values)
    lhs = apply_forward(ctx, combo).values
    rhs = a * apply_forward(ctx, q1).values + b * apply_forward(ctx, q2).values
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_offset_matches_separated_solution(ctx64, grid64):
    # g1 = cos(pi x), f = 0, zero top flux: the bottom Neumann trace of the
    # auxiliary field is pi tanh(pi a) cos(pi x)
    g1 = trace_from_function(grid64, GAMMA1, lambda x: np.cos(np.pi * x))
    z = compute_offset_z(ctx64, g1)
    exact = np.pi * np.tanh(np.pi * grid64.height) * np.cos(np.pi * grid64.xs)
    rel = np.linalg.norm(z.values - exact) / np.linalg.norm(exact)
    assert rel < 1e-2


def test_assembled_matrix_matches_operator(grid16, ctx16):
    m = assemble_forward_matrix(ctx16)
    e3 = np.zeros(grid16.nx + 1)
    e3[3] = 1.0
    col = apply_forward(ctx16, zero_trace(grid16, GAMMA2).with_values(e3))
    assert np.allclose(m[:, 3], col.values, atol=1e-12)


def _sparse_matrix(grid, apply, part):
    """Column-by-column matrix of apply on a fresh general context. Its nx + 1
    applies are exactly the budget before the switch, so all are sparse."""
    ctx = _general(grid)
    basis = zero_trace(grid, part)
    cols = [apply(ctx, basis.with_values(e)).values for e in np.eye(grid.nx + 1)]
    assert not ctx.assembled
    return np.column_stack(cols)


@pytest.mark.parametrize("nx", [16, 64, 256])
@pytest.mark.parametrize("height", [0.5, 1.0])
def test_assembled_maps_match_sparse_applies(nx, height):
    grid = build_grid(1.0, height, nx)
    ctx = _general(grid)
    forward = assemble_forward_matrix(ctx)
    adjoint = ctx.assemble()[1]
    spectral = OperatorContext(grid).assemble()
    for dense, cosine, apply, part in (
            (forward, spectral[0], apply_forward, GAMMA2),
            (adjoint, spectral[1], apply_adjoint, GAMMA1)):
        # at nx = 256 the block assembly is the reference: its column solves
        # are the sparse applies, and 2 (nx + 1) of them one by one are slow
        sparse = dense if nx == 256 else _sparse_matrix(grid, apply, part)
        assert np.abs(dense - sparse).max() <= 1e-12 * np.abs(sparse).max()
        assert np.abs(cosine - sparse).max() <= 1e-12 * np.abs(sparse).max()


def test_spectral_context_is_dense_from_the_first_apply(grid16):
    ctx = OperatorContext(grid16)
    assert ctx.spectral and not ctx.assembled
    q = trace_from_function(grid16, GAMMA2, lambda x: np.cos(np.pi * x))
    out = apply_forward(ctx, q).values
    assert ctx.assembled and ctx.sparse_applies == 0
    assert np.array_equal(out, ctx.assemble()[0] @ q.values)


def test_spectral_offset_and_synthesis_flux_match_general_path(grid16):
    # bottom_flux carries both the synthesis (top flux plus Dirichlet datum)
    # and, with q omitted, compute_offset_z
    rng = np.random.default_rng(5)
    q = zero_trace(grid16, GAMMA2).with_values(rng.normal(size=grid16.nx + 1))
    g1 = zero_trace(grid16, GAMMA1).with_values(rng.normal(size=grid16.nx + 1))
    for args in ((q, g1), (None, g1), (q, None)):
        cosine = bottom_flux(OperatorContext(grid16), *args).values
        sparse = bottom_flux(_general(grid16), *args).values
        assert np.abs(cosine - sparse).max() <= 1e-12 * np.abs(sparse).max()


def test_wide_grid_leaves_the_spectral_path():
    # a strip four cells deep, wider than the cosine path's dense matrices
    nx = MAX_SPECTRAL_NX + 8
    g = build_grid(1.0, 4.0 / nx, nx)
    ctx = OperatorContext(g)
    assert not ctx.spectral
    out = apply_forward(ctx, trace_from_function(g, GAMMA2, np.ones_like))
    assert ctx.sparse_applies == 1
    assert np.abs(out.values + 1.0).max() < 1e-12


def test_context_assembles_after_nx_plus_one_sparse_applies(grid16):
    ctx = _general(grid16)
    q = trace_from_function(grid16, GAMMA2, lambda x: np.cos(np.pi * x))
    r = trace_from_function(grid16, GAMMA1, lambda x: x * x)
    for k in range(grid16.nx + 1):
        if k % 2:
            sparse_fwd = apply_forward(ctx, q).values
        else:
            sparse_adj = apply_adjoint(ctx, r).values
        assert ctx.sparse_applies == k + 1
        assert not ctx.assembled
    dense_fwd = apply_forward(ctx, q).values
    assert ctx.assembled
    dense_adj = apply_adjoint(ctx, r).values
    assert ctx.sparse_applies == grid16.nx + 1
    assert np.allclose(dense_fwd, sparse_fwd, rtol=0, atol=1e-13)
    assert np.allclose(dense_adj, sparse_adj, rtol=0, atol=1e-13)


def test_normal_matrix_is_cached_adjoint_times_forward(grid16):
    ctx = OperatorContext(grid16)
    normal = ctx.normal_matrix()
    forward, adjoint = ctx.assemble()
    assert np.array_equal(normal, adjoint @ forward)
    assert ctx.normal_matrix() is normal
    assert not normal.flags.writeable


def test_assembly_size_guard():
    g = build_grid(1.0, 0.5, 512)
    with pytest.raises(ValueError):
        assemble_forward_matrix(OperatorContext(g))
    assert MAX_ASSEMBLE_NX < 512


def test_singular_values_sorted_descending(ctx16):
    sigma = singular_values(assemble_forward_matrix(ctx16))
    assert np.all(np.diff(sigma) <= 0)
    assert sigma[0] > 0


def test_decay_slope_recovers_synthetic_rate():
    k = np.arange(1, 30)
    sigma = np.exp(-0.8 * k)
    assert decay_slope(sigma) == pytest.approx(-0.8, abs=1e-9)


def test_spectrum_decay_steepens_with_height(ctx64, ctx64_h1):
    s_shallow = singular_values(assemble_forward_matrix(ctx64))
    s_deep = singular_values(assemble_forward_matrix(ctx64_h1))
    # frozen regression values for the fitted log-decay over k = 2..15
    assert decay_slope(s_shallow) == pytest.approx(-1.5298, abs=2e-3)
    assert decay_slope(s_deep) == pytest.approx(-2.8722, abs=2e-3)
    assert decay_slope(s_deep) < decay_slope(s_shallow)


def test_leading_singular_values_match_sech(ctx64, grid64):
    sigma = singular_values(assemble_forward_matrix(ctx64))
    a = grid64.height
    # sigma_1 is the k = 0 conservation mode; the next ones follow sech(k pi a)
    assert sigma[0] == pytest.approx(1.0, rel=5e-2)
    assert sigma[1] == pytest.approx(1.0 / np.cosh(np.pi * a), rel=5e-2)
    assert sigma[2] == pytest.approx(1.0 / np.cosh(2 * np.pi * a), rel=5e-2)
