"""Forward map, adjoint, offset and the assembled spectrum.

The closed-form oracle throughout: on the strip (0, w) x (0, a) with unit
coefficient, the map from a top-edge cosine flux cos(k pi x) to the bottom
Neumann trace is multiplication by -1/cosh(k pi a), obtained by separating
variables. The k = 0 column encodes flux conservation: a unit inflow on top
leaves through the bottom unchanged for every height.

The discrete oracle: the same finite-volume operator solved through
MixedSolver, one column or one right-hand side at a time, against which the
cosine-mode maps, offset and synthesis flux are checked.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyls import (GAMMA1, GAMMA2, GAMMA3, Coefficient, MixedSolver,
                      OperatorContext, TraceFn, apply_adjoint, apply_forward,
                      build_grid, compute_offset_z, decay_slope,
                      l2_norm_trace, neumann_trace, operator_context,
                      singular_values, trace_from_function, trace_inner,
                      zero_trace)
from cauchyls.operator import GRID_CACHE_SIZE, bottom_flux
from cauchyls.pde import SolverError, conormal_values


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
    m = ctx16.maps[0]
    e3 = np.zeros(grid16.nx + 1)
    e3[3] = 1.0
    col = apply_forward(ctx16, zero_trace(grid16, GAMMA2).with_values(e3))
    assert np.allclose(m[:, 3], col.values, atol=1e-12)


def _solver(grid) -> MixedSolver:
    return MixedSolver(grid, Coefficient(), {GAMMA1: "dirichlet",
                                             GAMMA2: "neumann",
                                             GAMMA3: "neumann"})


def _column_solves(solver, part, columns=slice(None)):
    """Matrix columns of the forward map (part GAMMA2, top flux -> bottom
    conormal trace) or the adjoint (part GAMMA1, bottom Dirichlet datum ->
    negated top trace), one solve per unit column; columns selects them
    (default: all)."""
    grid = solver.grid
    cols = []
    for e in np.eye(grid.nx + 1)[columns]:
        if part is GAMMA2:
            u = solver.solve(neumann={GAMMA2: TraceFn(grid, GAMMA2, e)})
            cols.append(neumann_trace(u, Coefficient(), GAMMA1).values)
        else:
            u = solver.solve(dirichlet={GAMMA1: TraceFn(grid, GAMMA1, e)})
            cols.append(-u.values[-1, :])
    return np.column_stack(cols)


@pytest.mark.parametrize("nx", [16, 64, 256])
@pytest.mark.parametrize("height", [0.5, 1.0])
def test_assembled_maps_match_column_solves(nx, height):
    grid = build_grid(1.0, height, nx)
    forward, adjoint = OperatorContext(grid).maps
    # all 2 (nx + 1) column solves at nx = 256 are slow; a wrong cosine
    # symbol shows in every column (column 0 alone carries every mode), so
    # every 8th column and the last one check it there
    picked = slice(None) if nx < 256 else np.r_[0:nx:8, nx]
    solver = _solver(grid)
    for dense, part in ((forward, GAMMA2), (adjoint, GAMMA1)):
        cosine = dense[:, picked]
        columns = _column_solves(solver, part, picked)
        assert np.abs(cosine - columns).max() <= 1e-12 * np.abs(columns).max()


def _sweep_symbols(grid):
    """(forward, adjoint, offset) symbols from one top-down elimination of
    every mode's y-system T_k at once: the row sweep the closed forms
    replace. g is the pivot left at a row once the rows above it are
    eliminated, rho the eliminated right-hand side of the load e_ny."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    mu = (2.0 - 2.0 * np.cos(np.pi * np.arange(nx + 1) / nx)) / (hx * hx)
    diag = mu * hy + 2.0 / hy
    g = 0.5 * mu * hy + 1.0 / hy
    rho = np.ones(nx + 1)
    for _ in range(ny - 1):
        g2, rho2 = g, rho
        rho = rho / (hy * g)
        g = diag - 1.0 / (hy * hy * g)
    x1 = rho / g
    x2 = (rho2 + x1 / hy) / g2
    y1 = 1.0 / (hy * g)
    y2 = y1 / (hy * g2)
    rows = np.array([[np.zeros_like(x1), x1, x2],
                     [np.ones_like(y1), y1, y2]])
    forward, offset = conormal_values(rows, grid, GAMMA1)
    return forward, -x1 / hy, offset


@pytest.mark.parametrize("nx, ny, height", [
    (64, 32, 0.5), (64, 64, 1.0), (256, 128, 0.5), (512, 256, 0.5),
    (16, 48, 3.0), (64, 4, 0.5), (7, 5, 5.0 / 7.0)])
def test_closed_form_symbols_match_row_sweep(nx, ny, height):
    # (64, 4, 0.5) has cells with hy = 8 hx, (16, 48, 3.0) is a deep strip
    ctx = OperatorContext(build_grid(1.0, height, nx, ny))
    for new, ref in zip(ctx.symbols, _sweep_symbols(ctx.grid)):
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


def _cosines(nx):
    """Explicit DCT-I matrix C[i, k] = cos(k pi i / nx)."""
    i = np.arange(nx + 1)
    return np.cos(np.pi * np.outer(i, i) / nx)


@pytest.mark.parametrize("nx", [4, 7, 64])
def test_transforms_match_cosine_sums(nx):
    ctx = OperatorContext(build_grid(1.0, 1.0, nx))
    c = _cosines(nx)
    w = np.ones(nx + 1)
    w[[0, -1]] = 0.5
    norms = np.full(nx + 1, nx / 2.0)
    norms[[0, -1]] = nx
    v = np.random.default_rng(nx).normal(size=nx + 1)
    hat = c.T @ (w * v) / norms
    assert np.abs(ctx.coefficients(v) - hat).max() <= 1e-13
    assert np.abs(ctx.synthesize(v) - c @ v).max() <= 1e-13
    assert np.abs(ctx.synthesize(ctx.coefficients(v)) - v).max() <= 1e-13


@pytest.mark.parametrize("nx", [4, 7, 64, 256])
def test_matrices_match_explicit_cosine_products(nx):
    ctx = OperatorContext(build_grid(1.0, 1.0, nx))
    c = _cosines(nx)
    w = np.ones(nx + 1)
    w[[0, -1]] = 0.5
    norms = np.full(nx + 1, nx / 2.0)
    norms[[0, -1]] = nx
    inverse = c.T * w / norms[:, None]
    assert np.allclose(inverse @ c, np.eye(nx + 1), atol=1e-12)
    rng = np.random.default_rng(nx)
    symbols = (*ctx.symbols[:2], rng.normal(size=nx + 1))
    for m, s in zip(ctx.matrices(*symbols), symbols):
        ref = (c * s) @ inverse
        assert not m.flags.writeable
        assert np.abs(m - ref).max() <= 1e-12 * np.abs(ref).max()


def test_context_maps_are_built_on_first_use_and_read_only(grid16):
    q = trace_from_function(grid16, GAMMA2, lambda x: np.cos(np.pi * x))
    r = trace_from_function(grid16, GAMMA1, lambda x: np.cos(np.pi * x))
    ctx = OperatorContext(grid16)
    assert not {"maps", "smoothing", "neumann", "derivative", "normal"} \
        & vars(ctx).keys()
    forward, adjoint = ctx.maps
    for m in (forward, adjoint):
        assert m.shape == (grid16.nx + 1, grid16.nx + 1)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
    assert ctx.maps[0] is forward
    assert np.array_equal(apply_forward(ctx, q).values, forward @ q.values)
    assert np.array_equal(apply_adjoint(ctx, r).values, adjoint @ r.values)


def test_spectral_offset_and_synthesis_flux_match_general_path(grid16):
    # bottom_flux carries both the synthesis (top flux plus Dirichlet datum)
    # and, with q omitted, compute_offset_z; the reference is one direct
    # MixedSolver solve
    rng = np.random.default_rng(5)
    q = zero_trace(grid16, GAMMA2).with_values(rng.normal(size=grid16.nx + 1))
    g1 = zero_trace(grid16, GAMMA1).with_values(rng.normal(size=grid16.nx + 1))
    solver = _solver(grid16)
    for args in ((q, g1), (None, g1), (q, None)):
        cosine = bottom_flux(OperatorContext(grid16), *args).values
        u = solver.solve(dirichlet={GAMMA1: args[1]}, neumann={GAMMA2: args[0]})
        direct = neumann_trace(u, Coefficient(), GAMMA1).values
        assert np.abs(cosine - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("from_context", [True, False])
def test_bottom_flux_rejects_misplaced_traces(grid16, ctx16, from_context):
    # q and g1 are checked against the context grid at entry, and so is the
    # offset; the context is the fixture's or, as on a synthesis grid, a
    # fresh one with no dense maps built
    ctx = ctx16 if from_context else OperatorContext(grid16)
    shallow = build_grid(1.0, 0.25, 16)
    top = trace_from_function(grid16, GAMMA2, np.cos)
    bottom = trace_from_function(grid16, GAMMA1, np.cos)
    with pytest.raises(ValueError):
        compute_offset_z(ctx16, top)
    with pytest.raises(ValueError):
        compute_offset_z(ctx16, trace_from_function(shallow, GAMMA1, np.cos))
    with pytest.raises(ValueError):
        bottom_flux(ctx, q=bottom)
    with pytest.raises(ValueError):
        bottom_flux(ctx, q=trace_from_function(shallow, GAMMA2, np.cos))
    with pytest.raises(ValueError):
        bottom_flux(ctx, g1=top)
    with pytest.raises(ValueError):
        bottom_flux(ctx, g1=trace_from_function(shallow, GAMMA1, np.cos))
    assert np.all(np.isfinite(bottom_flux(ctx, top, bottom).values))
    assert from_context or "maps" not in vars(ctx)


def test_wide_grid_stays_spectral():
    # a strip four cells deep, wider than any config can describe
    nx = 1032
    g = build_grid(1.0, 4.0 / nx, nx)
    ctx = OperatorContext(g)
    out = apply_forward(ctx, trace_from_function(g, GAMMA2, np.ones_like))
    assert np.abs(out.values + 1.0).max() < 1e-12
    back = apply_adjoint(ctx, trace_from_function(g, GAMMA1, np.ones_like))
    assert np.abs(back.values + 1.0).max() < 1e-10


def test_normal_matrix_is_cached_adjoint_times_forward(grid16):
    ctx = OperatorContext(grid16)
    normal = ctx.normal
    forward, adjoint = ctx.maps
    assert np.array_equal(normal, adjoint @ forward)
    assert ctx.normal is normal
    assert not normal.flags.writeable


@pytest.mark.parametrize("nx", [4, 16, 64, 256])
def test_derivative_is_np_gradient_per_column(nx):
    """Column j of the derivative matrix is np.gradient of e_j: centered
    inside, one-sided at the ends, so D @ f is np.gradient(f, hx)."""
    ctx = OperatorContext(build_grid(1.0, 1.0, nx))
    d = ctx.derivative
    assert d.shape == (nx + 1, nx + 1) and not d.flags.writeable
    for j, e in enumerate(np.eye(nx + 1)):
        ref = np.gradient(e, ctx.grid.hx)
        assert np.abs(d[:, j] - ref).max() <= 1e-14 * np.abs(ref).max()
    f = np.random.default_rng(nx).normal(size=nx + 1)
    ref = np.gradient(f, ctx.grid.hx)
    assert np.abs(d @ f - ref).max() <= 1e-14 * np.abs(ref).max()
    assert ctx.derivative is d


# -- the per-grid cache -----------------------------------------------------

def test_contexts_on_equal_grids_share_their_maps(grid16):
    ctx = operator_context(grid16)
    equal = build_grid(1.0, grid16.height, 16, grid16.ny)
    assert equal == grid16 and equal is not grid16
    twin = operator_context(equal)
    assert twin is ctx
    other = operator_context(build_grid(1.0, 0.25, 16))
    assert other is not ctx
    assert not any(a is b for a, b in zip(other.maps, ctx.maps))
    # the lazily built matrices belong to the grid's one context
    assert twin.normal is ctx.normal and twin.smoothing is ctx.smoothing
    assert twin.derivative is ctx.derivative and twin.neumann is ctx.neumann


@pytest.mark.parametrize("nx", [16, 64, 256, 1024])
def test_applies_give_the_bytes_of_the_matmul(nx):
    """forward and adjoint apply their maps with np.dot, the gemv of @."""
    ctx = OperatorContext(build_grid(1.0, 0.5, nx))
    forward, adjoint = ctx.maps
    rng = np.random.default_rng(nx)
    for v in rng.standard_normal((10, nx + 1)) * rng.uniform(1e-6, 1e6,
                                                             (10, 1)):
        assert ctx.forward(v).tobytes() == (forward @ v).tobytes()
        assert ctx.adjoint(v).tobytes() == (adjoint @ v).tobytes()


def test_every_cached_array_is_read_only(grid16):
    ctx = operator_context(grid16)
    arrays = (ctx.mu, *ctx.symbols, ctx._weights, ctx._norms, *ctx.maps,
              ctx.smoothing, ctx.neumann, ctx.derivative, ctx.normal)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert operator_context(grid16) is ctx


def test_grid_caches_are_bounded():
    assert operator_context.cache_info().maxsize == GRID_CACHE_SIZE
    assert 0 < GRID_CACHE_SIZE <= 8
    for nx in range(4, 6 + GRID_CACHE_SIZE):
        operator_context(build_grid(1.0, 1.0, nx))
    assert operator_context.cache_info().currsize == GRID_CACHE_SIZE


def test_grid_with_non_finite_symbols_is_not_cached():
    # 1/hx^2 overflows in the x-stencil eigenvalues
    narrow = build_grid(1e-200, 5e-201, 16, 8)
    hits = operator_context.cache_info().hits
    for _ in range(2):
        with np.errstate(over="ignore"), pytest.raises(SolverError):
            operator_context(narrow)
    assert operator_context.cache_info().hits == hits


def test_singular_values_sorted_descending(ctx16):
    sigma = singular_values(ctx16.maps[0])
    assert np.all(np.diff(sigma) <= 0)
    assert sigma[0] > 0


def test_decay_slope_recovers_synthetic_rate():
    k = np.arange(1, 30)
    sigma = np.exp(-0.8 * k)
    assert decay_slope(sigma) == pytest.approx(-0.8, abs=1e-9)
    with pytest.raises(ValueError, match="at least 30 singular values"):
        decay_slope(sigma, 2, 30)


def test_spectrum_decay_steepens_with_height(ctx64, ctx64_h1):
    s_shallow = singular_values(ctx64.maps[0])
    s_deep = singular_values(ctx64_h1.maps[0])
    # frozen regression values for the fitted log-decay; at h = 1.0 the
    # singular values from k = 14 on sit at the 1e-16 rounding floor, where
    # the rounding of the map decides them, so that fit stops at k = 11
    assert decay_slope(s_shallow) == pytest.approx(-1.5298, abs=2e-3)
    assert decay_slope(s_deep, 2, 11) == pytest.approx(-3.0907, abs=1e-4)
    assert decay_slope(s_deep) < decay_slope(s_shallow)


def test_leading_singular_values_match_sech(ctx64, grid64):
    sigma = singular_values(ctx64.maps[0])
    a = grid64.height
    # sigma_1 is the k = 0 conservation mode; the next ones follow sech(k pi a)
    assert sigma[0] == pytest.approx(1.0, rel=5e-2)
    assert sigma[1] == pytest.approx(1.0 / np.cosh(np.pi * a), rel=5e-2)
    assert sigma[2] == pytest.approx(1.0 / np.cosh(2 * np.pi * a), rel=5e-2)


@pytest.mark.parametrize("height", [0.5, 1.0])
@pytest.mark.parametrize("nx", [64, 256, 512, 1024])
def test_low_mode_symbols_match_40_digit_reference(nx, height):
    """mu_k and the adjoint symbol -sech(ny theta_k) of modes 1..5 against
    40-digit mpmath: mu_k = (2 sin(k pi / (2 nx)) / hx)^2 does not cancel
    at low k, where (2 - 2 cos(k pi / nx)) / hx^2 loses up to 4e-12."""
    mpmath = pytest.importorskip("mpmath")
    grid = build_grid(1.0, height, nx)
    ctx = OperatorContext(grid)
    with mpmath.workdps(40):
        hx, hy = mpmath.mpf(grid.hx), mpmath.mpf(grid.hy)
        for k in range(1, 6):
            mu = (2 * mpmath.sin(mpmath.pi * k / (2 * nx)) / hx) ** 2
            adjoint = -mpmath.sech(grid.ny * 2 * mpmath.asinh(
                hy * mpmath.sqrt(mu) / 2))
            assert abs(ctx.symbols[1][k] - adjoint) <= 4e-15 * abs(adjoint), k
            assert abs(ctx.mu[k] - mu) <= 1e-15 * mu, k
