"""The per-iteration kernels against the formulations they replaced.

Each reference below is an earlier, plainer form of a kernel the two flows
call at every step: the np.clip ramp, the np.where gate, the slice-based
derivative, the _half_ends copy before the Helmholtz solve, the dm/dp
upwind step and transport's np.array_equal check of its indicator. The
kernels must give the same bytes on every finite input.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchyls import (sharp_indicator, smoothed_heaviside,
                      smoothed_heaviside_deriv, upwind_step)
from cauchyls.levelset import (NeumannHelmholtz, centered_derivative,
                               tridiagonal_solver)


def _clip_ramp(t, eps):
    return np.clip(1.0 + np.asarray(t, dtype=float) / eps, 0.0, 1.0)


def _where_gate(t, eps):
    t = np.asarray(t, dtype=float)
    return np.where((t >= -eps) & (t <= 0.0), 1.0 / eps, 0.0)


def _slice_derivative(f, h):
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (f[1] - f[0]) / h
    out[-1] = (f[-1] - f[-2]) / h
    return out


def _half_ends(a):
    out = np.array(a, dtype=float)
    out[0] *= 0.5
    out[-1] *= 0.5
    return out


def _dm_dp_upwind(phi, v, dt, h):
    diff = (phi[1:] - phi[:-1]) / h
    dm = np.empty_like(phi)
    dp = np.empty_like(phi)
    dm[1:] = diff
    dp[:-1] = diff
    dm[0] = 0.0
    dp[-1] = 0.0
    return phi - dt * (np.maximum(v, 0.0) * dm + np.minimum(v, 0.0) * dp)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# finite values with both signed zeros, small and extreme magnitudes
ZEROS = st.sampled_from([0.0, -0.0])
FINITE = st.one_of(ZEROS, st.floats(-10.0, 10.0),
                   st.floats(allow_nan=False, allow_infinity=False))
NONZERO = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: x != 0.0)
POSITIVE = st.one_of(st.floats(1e-3, 1e3),
                     st.floats(min_value=0.0, exclude_min=True,
                               allow_infinity=False))
PROFILE = st.lists(FINITE, min_size=2, max_size=40).map(np.array)

# extreme inputs overflow on both sides alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@settings(max_examples=100, deadline=None)
@given(PROFILE, POSITIVE)
def test_ramp_is_the_clip_ramp(t, eps):
    assert _same_bytes(smoothed_heaviside(t, eps), _clip_ramp(t, eps))


@settings(max_examples=100, deadline=None)
@given(PROFILE, POSITIVE)
@example(np.array([-1.0, -0.0, 0.0, 1.0]), 5e-324)  # 1/eps overflows
def test_gate_is_the_where_gate(t, eps):
    assert _same_bytes(smoothed_heaviside_deriv(t, eps), _where_gate(t, eps))


@settings(max_examples=100, deadline=None)
@given(PROFILE, POSITIVE)
def test_derivative_is_the_slice_derivative(f, h):
    assert _same_bytes(centered_derivative(f, h), _slice_derivative(f, h))


def _helmholtz_matrix(n, h):
    inv_h2 = 1.0 / (h * h)
    diag = np.full(n, 1.0 + 2.0 * inv_h2)
    diag[[0, -1]] = 0.5 + inv_h2
    return diag, np.full(n - 1, -inv_h2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(ZEROS, st.floats(-1e6, 1e6)), min_size=3,
                max_size=40).map(np.array),
       st.integers(0, 2 ** 31 - 1))
def test_helmholtz_solve_is_the_half_ends_solve(rhs, seed):
    n, h = rhs.size, 1.0 / (rhs.size - 1)
    diag, off = _helmholtz_matrix(n, h)
    solver = NeumannHelmholtz(n, h)
    plain = tridiagonal_solver(diag, off)(_half_ends(rhs))
    assert _same_bytes(solver.solve(rhs), plain)
    coupling = np.random.default_rng(seed).normal(size=(n, n))
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    coupled = np.linalg.solve(dense + _half_ends(coupling), _half_ends(rhs))
    assert _same_bytes(solver.solve(rhs, coupling), coupled)


@st.composite
def _velocities(draw, n, entries):
    """n velocities: ends nonzero, inner entries from entries or zero."""
    inner = draw(st.lists(st.one_of(ZEROS, entries), min_size=n - 2,
                          max_size=n - 2))
    return np.array([draw(NONZERO), *inner, draw(NONZERO)])


@st.composite
def _upwind_case(draw, entries=FINITE):
    phi = draw(PROFILE)
    return phi, draw(_velocities(phi.size, entries)), draw(POSITIVE), \
        draw(POSITIVE)


@settings(max_examples=100, deadline=None)
@given(_upwind_case())
@example((np.array([-0.0, 0.0, -0.0, 1.0]), np.array([0.0, -0.0, 1.0, 0.0]),
          0.5, 0.25))
def test_upwind_step_is_the_dm_dp_step(case):
    phi, v, dt, h = case
    assert _same_bytes(upwind_step(phi, v, dt, h),
                       _dm_dp_upwind(phi, v, dt, h))


@settings(max_examples=100, deadline=None)
@given(_upwind_case(st.one_of(
    st.floats(-10.0, 10.0), st.sampled_from([np.nan, np.inf, -np.inf]))))
def test_upwind_step_keeps_non_finite_velocities_non_finite(case):
    phi, v, dt, h = case
    out = upwind_step(phi, v, dt, h)
    ref = _dm_dp_upwind(phi, v, dt, h)
    assert not np.isfinite(out[~np.isfinite(v)]).any()
    assert np.array_equal(np.isfinite(out), np.isfinite(ref))
    finite = np.isfinite(ref)
    assert _same_bytes(out[finite], ref[finite])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, st.booleans()), min_size=1,
                max_size=40))
@example([(-0.0, 0.0, False), (-1.0, -2.0, False)])
def test_indicator_bytes_compare_as_array_equal(entries):
    """Transport compares indicators by bytes: the same verdict as
    np.array_equal, since a sharp indicator holds only 0.0 and 1.0."""
    a = np.array([x for x, _, _ in entries])
    b = np.array([x if same else y for x, y, same in entries])
    qa, qb = sharp_indicator(a), sharp_indicator(b)
    assert (qa.tobytes() == qb.tobytes()) == np.array_equal(qa, qb)
