"""Smoothed projector, profile initialization, screened-Poisson solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from cauchyls import (GAMMA2, TraceFn, build_grid, component_count,
                      curvature_term, init_levelset, operator_context,
                      sharp_indicator, smoothed_heaviside,
                      smoothed_heaviside_deriv, solve_helmholtz_neumann,
                      trace_from_function)
from cauchyls.levelset import disjoint_intervals, redistance
from cauchyls.tikhonov import lift_matrix


# -- one-sided ramp projector -------------------------------------------------

@pytest.mark.parametrize("t, eps, expected", [
    (-2.0, 1.0, 0.0),   # below the band
    (-1.0, 1.0, 0.0),   # band entry
    (-0.5, 1.0, 0.5),   # ramp midpoint
    (0.0, 1.0, 1.0),    # the projector is already 1 at zero
    (1.0, 1.0, 1.0),    # above
])
def test_ramp_values(t, eps, expected):
    assert smoothed_heaviside(np.array([t]), eps)[0] == pytest.approx(expected)


@pytest.mark.parametrize("t, eps, expected", [
    (-2.0, 1.0, 0.0),
    (-0.5, 1.0, 1.0),   # 1/eps inside the band
    (0.5, 1.0, 0.0),
    (-0.25, 0.5, 2.0),
])
def test_ramp_derivative_values(t, eps, expected):
    assert smoothed_heaviside_deriv(np.array([t]), eps)[0] == pytest.approx(expected)


@pytest.mark.parametrize("ramp", [smoothed_heaviside,
                                  smoothed_heaviside_deriv])
def test_ramp_rejects_a_band_of_no_width(ramp):
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="eps"):
            ramp(np.zeros(3), eps)


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 3.0))
def test_ramp_monotone_and_bounded(t1, t2, eps):
    lo, hi = sorted((t1, t2))
    h_lo = smoothed_heaviside(np.array([lo]), eps)[0]
    h_hi = smoothed_heaviside(np.array([hi]), eps)[0]
    assert 0.0 <= h_lo <= h_hi <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.floats(-5, 5), st.floats(0.1, 3.0))
def test_ramp_scales_with_eps(t, eps):
    a = smoothed_heaviside(np.array([t]), eps)[0]
    b = smoothed_heaviside(np.array([t / eps]), 1.0)[0]
    assert a == pytest.approx(b)


def test_sharp_indicator_threshold_at_zero():
    vals = sharp_indicator(np.array([-1.0, -1e-12, 0.0, 1e-12, 2.0]))
    assert np.array_equal(vals, [0.0, 0.0, 1.0, 1.0, 1.0])


# -- component counting -------------------------------------------------------

def _runs_above(vals, thr):
    above = (np.asarray(vals) > thr).astype(int)
    return int(np.sum(np.diff(np.concatenate([[0], above])) == 1))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=1, max_size=40))
def test_component_count_matches_run_length_reference(vals):
    assert component_count(np.array(vals)) == _runs_above(vals, 0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), min_size=n,
             max_size=n), min_size=1, max_size=8)))
def test_component_count_of_a_stack_counts_each_row(rows):
    counts = component_count(np.array(rows))
    assert counts.tolist() == [_runs_above(r, 0.5) for r in rows]


# -- profile initialization ---------------------------------------------------

def test_init_levelset_signs_and_clipping():
    g = build_grid(1.0, 0.5, 64)
    eps = 4 * g.hx
    phi = init_levelset(g, ((0.25, 0.5),), eps)
    x = g.xs
    inside = (x > 0.25 + eps) & (x < 0.5 - eps)
    outside = (x < 0.25 - 4 * eps) | (x > 0.5 + 4 * eps)
    assert np.all(phi.values[inside] > 0)
    assert np.all(phi.values[outside] == -3 * eps)  # clipped plateau
    assert phi.values.max() <= 3 * eps
    # unit slope across the interface
    k = np.searchsorted(x, 0.25)
    assert abs((phi.values[k + 1] - phi.values[k]) / g.hx) == pytest.approx(1.0)


def _init_reference(x, ivals, eps):
    """Per node: the least distance to an interval end, positive on closed
    membership, clipped to [-3 eps, 3 eps]."""
    out = []
    for xi in x:
        d = min((abs(xi - e) for iv in ivals for e in iv), default=np.inf)
        inside = any(a <= xi <= b for a, b in ivals)
        out.append(min(max(d if inside else -d, -3 * eps), 3 * eps))
    return np.array(out)


@st.composite
def _disjoint_intervals(draw):
    """Up to four disjoint intervals in (0, 1); the ends are drawn as node
    positions of the 16-cell grid or as free floats, so some land on
    nodes."""
    end = st.one_of(st.integers(1, 15).map(lambda i: i / 16),
                    st.floats(0.01, 0.99))
    ends = sorted(set(draw(st.lists(end, max_size=8))))
    return tuple(zip(ends[::2], ends[1::2]))


@settings(max_examples=100, deadline=None)
@given(_disjoint_intervals(), st.sampled_from([0.5, 1.0, 4.0]))
def test_init_levelset_is_the_signed_distance_to_the_interval_ends(
        ivals, eps_cells):
    g = build_grid(1.0, 0.5, 16)
    eps = eps_cells * g.hx
    phi = init_levelset(g, ivals, eps).values
    ref = _init_reference(g.xs, ivals, eps)
    assert phi.tobytes() == ref.tobytes()


def test_init_levelset_empty_union_is_deep_outside():
    g = build_grid(1.0, 0.5, 16)
    phi = init_levelset(g, (), 0.1)
    assert np.allclose(phi.values, -0.3)


def test_disjoint_intervals_sorts_or_raises():
    # any sequence of pairs, ints included, becomes sorted float pairs
    assert disjoint_intervals([[0.6, 0.8], (0.2, 0.4)]) == \
        ((0.2, 0.4), (0.6, 0.8))
    assert disjoint_intervals([(0, 1)]) == ((0.0, 1.0),)
    assert disjoint_intervals(()) == ()
    with pytest.raises(ValueError, match="degenerate"):
        disjoint_intervals([(0.4, 0.4)])
    for touching in ([(0.4, 0.6), (0.2, 0.4)], [(0.2, 0.5), (0.4, 0.6)]):
        with pytest.raises(ValueError, match="^intervals must be disjoint, "
                                             "got 0.2:0.[45] and 0.4:0.6$"):
            disjoint_intervals(touching)


def test_init_levelset_rejects_bad_intervals():
    g = build_grid(1.0, 0.5, 16)
    with pytest.raises(ValueError):
        init_levelset(g, ((0.4, 0.4),), 0.1)
    with pytest.raises(ValueError):
        init_levelset(g, ((0.1, 0.5), (0.4, 0.8)), 0.1)
    with pytest.raises(ValueError, match="eps"):
        init_levelset(g, ((0.4, 0.6),), 0.0)


# -- screened Poisson solve ---------------------------------------------------

def test_helmholtz_fixes_constants():
    g = build_grid(1.0, 0.5, 32)
    rhs = trace_from_function(g, GAMMA2, lambda x: 2.5 * np.ones_like(x))
    sol = solve_helmholtz_neumann(rhs)
    assert np.allclose(sol.values, 2.5, atol=1e-12)


def test_helmholtz_damps_cosine_mode():
    g = build_grid(1.0, 0.5, 128)
    k = 2
    rhs = trace_from_function(g, GAMMA2, lambda x: np.cos(k * np.pi * x))
    sol = solve_helmholtz_neumann(rhs)
    exact = np.cos(k * np.pi * g.xs) / (1.0 + (k * np.pi) ** 2)
    rel = np.linalg.norm(sol.values - exact) / np.linalg.norm(exact)
    assert rel < 1e-3


def test_helmholtz_preserves_trapezoid_mean():
    g = build_grid(1.0, 0.5, 64)
    rng = np.random.default_rng(11)
    rhs = TraceFn(g, GAMMA2, rng.normal(size=g.nx + 1))
    sol = solve_helmholtz_neumann(rhs)
    w = np.full(g.nx + 1, g.hx)
    w[0] = w[-1] = 0.5 * g.hx
    assert np.dot(w, sol.values) == pytest.approx(np.dot(w, rhs.values),
                                                  abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_helmholtz_smooths(seed):
    # the solve never amplifies: ||sol||_inf <= ||rhs||_inf (M-matrix bound)
    g = build_grid(1.0, 0.5, 32)
    rng = np.random.default_rng(seed)
    rhs = TraceFn(g, GAMMA2, rng.uniform(-1, 1, size=g.nx + 1))
    sol = solve_helmholtz_neumann(rhs)
    assert np.abs(sol.values).max() <= np.abs(rhs.values).max() + 1e-12


def test_helmholtz_zero_coupling_matches_banded_solve():
    g = build_grid(1.0, 0.5, 32)
    rng = np.random.default_rng(12)
    rhs = TraceFn(g, GAMMA2, rng.normal(size=g.nx + 1))
    n = g.nx + 1
    dense = operator_context(g).neumann_solve(rhs.values, np.zeros((n, n)))
    assert np.allclose(dense, solve_helmholtz_neumann(rhs).values,
                       rtol=1e-12, atol=1e-12)


def test_helmholtz_coupling_shifts_the_cosine_eigenvalue():
    # a coupling c I turns the mode's eigenvalue lam into lam + c
    g = build_grid(1.0, 0.5, 64)
    rhs = trace_from_function(g, GAMMA2, lambda x: np.cos(3 * np.pi * x))
    lam = 1.0 / solve_helmholtz_neumann(rhs).values[0]
    c = 7.5
    sol = operator_context(g).neumann_solve(rhs.values, c * np.eye(g.nx + 1))
    assert np.allclose(sol * (lam + c), rhs.values, atol=1e-12)


# -- redistancing -------------------------------------------------------------

def test_redistance_keeps_mid_level_set_and_places_fronts():
    g = build_grid(1.0, 0.5, 16)
    h, eps = g.hx, 0.25 * g.hx
    q = np.zeros(g.nx + 1)
    q[4], q[5:9], q[9] = 0.74, 1.0, 0.26
    phi = redistance(q, g.xs, h, eps)
    new_q = smoothed_heaviside(phi, eps)
    assert np.array_equal(new_q > 0.5, q > 0.5)
    # the left front sits where 0 -> 0.74 crosses 1/2, 0.324 cells from node 4
    front = g.xs[3] + h * 0.5 / 0.74
    assert phi[4] == pytest.approx(g.xs[4] - front - 0.5 * eps)
    # fronts farther than eps/2 from every node leave a binary ramp
    assert set(np.unique(new_q)) == {0.0, 1.0}
    assert phi.min() == -3 * eps and phi.max() == 3 * eps


def test_redistance_without_fronts_and_at_walls():
    g = build_grid(1.0, 0.5, 16)
    eps = 0.05
    low = redistance(np.full(g.nx + 1, 0.2), g.xs, g.hx, eps)
    assert np.all(low == -3 * eps)
    high = redistance(np.full(g.nx + 1, 0.9), g.xs, g.hx, eps)
    assert np.all(high == 3 * eps)
    # a run touching the wall has one front; the wall node is deep inside
    q = np.where(g.xs < 0.3, 1.0, 0.0)
    phi = redistance(q, g.xs, g.hx, eps)
    assert phi[0] == 3 * eps
    with pytest.raises(ValueError):
        redistance(q, g.xs, g.hx, 0.0)


# -- curvature source ---------------------------------------------------------

def test_curvature_vanishes_on_flat_profiles():
    g = build_grid(1.0, 0.5, 32)
    ramp = smoothed_heaviside(np.full(g.nx + 1, 0.3), 0.1)
    out = curvature_term(ramp, operator_context(g).derivative, eta=1e-6)
    assert np.allclose(out, 0.0)


def test_curvature_scales_linearly_in_beta():
    # the source beta * D u: the lift's first block times the slope u
    g = build_grid(1.0, 0.5, 64)
    ctx, n = operator_context(g), g.nx + 1
    phi = init_levelset(g, ((0.3, 0.6),), 4 * g.hx)
    ramp = smoothed_heaviside(phi.values, 4 * g.hx)
    u = curvature_term(ramp, ctx.derivative, eta=1e-6)
    a = lift_matrix(ctx, 1e-3)[:, :n] @ u
    b = lift_matrix(ctx, 2e-3)[:, :n] @ u
    assert np.abs(a).max() > 0
    assert np.allclose(b, 2.0 * a)


# -- array kernels that replaced library calls --------------------------------

def test_factored_helmholtz_is_solveh_banded():
    # the grid's cached cosine-diagonal inverse is the banded solve, to
    # rounding (tests/test_kernel_references.py draws the inputs)
    g = build_grid(1.0, 0.5, 64)
    inv_h2 = 1.0 / g.hx ** 2
    ab = np.zeros((2, g.nx + 1))
    ab[0, 1:] = -inv_h2
    ab[1, :] = 1.0 + 2.0 * inv_h2
    ab[1, 0] = ab[1, -1] = 0.5 + inv_h2
    ctx = operator_context(g)
    rng = np.random.default_rng(14)
    for _ in range(20):
        rhs = rng.normal(size=g.nx + 1)
        half = rhs.copy()
        half[[0, -1]] *= 0.5
        ref = solveh_banded(ab, half)
        assert np.abs(np.dot(ctx.smoothing, rhs) - ref).max() \
            <= 1e-12 * np.abs(ref).max()
