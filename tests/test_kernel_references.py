"""The per-iteration kernels against the formulations they replaced.

Each reference below is an earlier, plainer form of a kernel the two flows
call at every step: the np.clip ramp, the np.where gate, the _half_ends
copy before the coupled Helmholtz solve, the dm/dp upwind step and
transport's np.array_equal check of its indicator. Those kernels must give
the same bytes on every finite input.

Some kernels replaced a solve or a chain of calls with a closed form or a
matrix product, which rounds differently: the uncoupled Helmholtz smoothing
(a matvec by the cosine-diagonal inverse), the transport velocity
(cumulative sums) and the Tikhonov step (per-run matrices in place of
gather derivatives, a separate adjoint and the 1/eps gate). They must agree
with the reference to 1e-12 relative on bounded inputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from cauchyls import (TikhonovParams, build_grid, front_velocity,
                      operator_context, sharp_indicator, smoothed_heaviside,
                      smoothed_heaviside_deriv, split_velocity, tikhonov_step,
                      upwind_step)
from cauchyls.levelset import helmholtz_solve
from cauchyls.tikhonov import (MAX_STEP_CELLS, lift_matrix,
                               tikhonov_direction)
from cauchyls.transport import SIGN_CLAMP


def _clip_ramp(t, eps):
    return np.clip(1.0 + np.asarray(t, dtype=float) / eps, 0.0, 1.0)


def _where_gate(t, eps):
    t = np.asarray(t, dtype=float)
    return np.where((t >= -eps) & (t <= 0.0), 1.0 / eps, 0.0)


def _gather_derivative(f, h):
    """np.gradient(f, h) as one gather (f[hi] - f[lo]) / den."""
    n = f.size
    hi = np.minimum(np.arange(1, n + 1), n - 1)
    lo = np.maximum(np.arange(-1, n - 1), 0)
    return (f[hi] - f[lo]) / ((hi - lo) * h)


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


def _kinks(eps):
    """The two kink points of the ramp and their floating-point
    neighbours, by name."""
    return {"-eps-": np.nextafter(-eps, -np.inf), "-eps": -eps,
            "-eps+": np.nextafter(-eps, 0.0), "0-": np.nextafter(0.0, -1.0),
            "-0": -0.0, "0": 0.0, "0+": np.nextafter(0.0, 1.0)}


KINK_PROFILE = ["-eps-", "-eps", "-eps+", "0-", "-0", "0", "0+"]
# the band as the ramp reads it is exact below eps = 2 (see
# smoothed_heaviside)
BAND_EPS = st.one_of(st.floats(1e-3, 1.999),
                     st.floats(min_value=0.0, max_value=1.999,
                               exclude_min=True))


@settings(max_examples=100, deadline=None)
@given(PROFILE, BAND_EPS, st.booleans())
@example(np.array([]), 1.0 / 16.0, True)
@example(np.array([]), 0.3, True)
@example(np.array([]), 5e-324, True)
@example(np.array([]), 1.999, True)
def test_ramp_band_is_the_where_gate_support(t, eps, with_kinks):
    """The band smoothed_heaviside reads off its unclipped argument is the
    support of the np.where gate, kinks and their neighbours included, and
    asking for it leaves the ramp's bytes as they were."""
    if with_kinks:
        kinks = _kinks(eps)
        t = np.concatenate((t, [kinks[name] for name in KINK_PROFILE]))
    band = np.empty(t.size, dtype=bool)
    ramp = smoothed_heaviside(t, eps, band)
    assert _same_bytes(ramp, _clip_ramp(t, eps))
    assert np.array_equal(band, _where_gate(t, eps) != 0.0)
    if with_kinks:
        # in: the two kinks, -eps+, 0- and -0; out: -eps- and 0+
        assert band[-7:].tolist() == [False, True, True, True, True, True,
                                      False]


def test_ramp_band_sliver_above_eps_two():
    """From eps = 2 on, a subnormal t > 0 whose quotient t / eps rounds to
    0 reads as the kink t = 0 and joins the band; the gate leaves it out."""
    t = np.array([5e-324, 1e-323, 0.0, -5e-324])
    band = np.empty(t.size, dtype=bool)
    smoothed_heaviside(t, 2.0, band)
    assert band.tolist() == [True, False, True, True]
    assert (_where_gate(t, 2.0) != 0.0).tolist() == [False, False, True, True]


def _helmholtz_matrix(n, h):
    inv_h2 = 1.0 / (h * h)
    diag = np.full(n, 1.0 + 2.0 * inv_h2)
    diag[[0, -1]] = 0.5 + inv_h2
    return diag, np.full(n - 1, -inv_h2)


# closed forms against banded solves: relative to the reference's max norm
CLOSED_FORM_RTOL = 1e-12


def _agrees(out, ref):
    return np.abs(out - ref).max() <= CLOSED_FORM_RTOL * np.abs(ref).max()


# no subnormals, which the closed form and the banded solve round apart
BOUNDED = st.one_of(ZEROS, st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


@settings(max_examples=40, deadline=None)
@given(st.lists(BOUNDED, min_size=5, max_size=41).map(np.array),
       st.integers(0, 2 ** 31 - 1), st.floats(1e-3, 1e3))
def test_helmholtz_solve_is_the_half_ends_solve(rhs, seed, scale):
    n = rhs.size
    grid = build_grid(1.0, 1.0, n - 1)
    diag, off = _helmholtz_matrix(n, grid.hx)
    ctx = operator_context(grid)
    ab = np.vstack([np.concatenate(([0.0], off)), diag])
    banded = solveh_banded(ab, _half_ends(rhs))
    assert _agrees(helmholtz_solve(ctx, rhs), banded)
    # the explicit Tikhonov step's per-band-width matrix
    assert _agrees(np.dot(ctx.smoothing / scale, rhs), banded / scale)
    coupling = np.random.default_rng(seed).normal(size=(n, n))
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    coupled = np.linalg.solve(dense + _half_ends(coupling), _half_ends(rhs))
    assert _same_bytes(helmholtz_solve(ctx, rhs, coupling), coupled)


def _gather_step(phi, r, eps, ctx, params):
    """dphi of the Tikhonov step before the per-run matrices: gather
    derivatives and sqrt(g^2 + eta^2) for the curvature, a separate
    adjoint, the np.where gate and S / alpha after the gate's 1/eps; the
    implicit step's coupled solve with the half-ends copies and its cap."""
    h = ctx.grid.hx
    g = _gather_derivative(smoothed_heaviside(phi, eps), h)
    g = g / np.sqrt(g * g + params.eta * params.eta)
    drive = params.beta * _gather_derivative(g, h) - ctx.maps[1] @ r
    gate = _where_gate(phi, eps)
    drive = drive * gate
    if params.step == "explicit":
        return (ctx.smoothing / params.alpha) @ drive
    diag, off = _helmholtz_matrix(phi.size, h)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    coupling = gate[:, None] * ctx.normal * (gate / params.alpha)
    dphi = np.linalg.solve(dense + _half_ends(coupling),
                           _half_ends(drive)) / params.alpha
    cap = MAX_STEP_CELLS * h
    largest = np.abs(dphi).max()
    return dphi * (cap / largest) if largest > cap else dphi


@st.composite
def _step_cases(draw):
    """(nx, eps in cells, profile in units of eps or kink names, residual
    seed, alpha, beta): bounded profiles through and around the band."""
    nx = draw(st.sampled_from([8, 16, 64]))
    entries = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(KINK_PROFILE))
    return (nx, draw(st.floats(0.25, 8.0)),
            draw(st.lists(entries, min_size=nx + 1, max_size=nx + 1)),
            draw(st.integers(0, 2 ** 31 - 1)), draw(st.floats(1.0, 1e3)),
            draw(st.sampled_from([0.0, 1e-3, 1e-1])))


@pytest.mark.parametrize("kind", ["explicit", "implicit"])
@settings(max_examples=40, deadline=None)
@given(_step_cases())
@example((8, 4.0, KINK_PROFILE + [-0.5, 2.0], 1, 100.0, 1e-3))
@example((8, 0.5, KINK_PROFILE + [-0.5, 2.0], 2, 1.0, 1e-1))
def test_tikhonov_step_is_the_gather_step(kind, case):
    nx, eps_cells, codes, seed, alpha, beta = case
    ctx = operator_context(build_grid(1.0, 0.5, nx))
    eps = eps_cells * ctx.grid.hx
    kinks = _kinks(eps)
    phi = np.array([kinks[c] if isinstance(c, str) else c * eps
                    for c in codes])
    r = np.random.default_rng(seed).normal(size=nx + 1)
    params = TikhonovParams(alpha=alpha, beta=beta, eps=eps, step=kind)
    band = np.empty(nx + 1, dtype=bool)
    ramp = smoothed_heaviside(phi, eps, band)
    assert np.array_equal(band, _where_gate(phi, eps) != 0.0)
    drive = tikhonov_direction(ramp, r, ctx, lift_matrix(ctx, beta),
                               params.eta, np.empty(2 * (nx + 1)))
    new, dphi = tikhonov_step(phi, drive, band, eps, ctx, params,
                              ctx.smoothing / (alpha * eps))
    ref = _gather_step(phi, r, eps, ctx, params)
    assert np.abs(dphi - ref).max() <= CLOSED_FORM_RTOL * np.abs(ref).max()
    assert _same_bytes(new, phi + dphi)


def _banded_velocity(q, grad, eps_clamp, h):
    """front_velocity through a banded solve of -psi'' = 2 grad / (2q - 1)
    and np.gradient, the centered difference with the ends zeroed."""
    s = 2.0 * q - 1.0
    s = np.where(np.abs(s) < eps_clamp,
                 eps_clamp * np.where(s >= 0.0, 1.0, -1.0), s)
    ab = np.zeros((2, q.size - 2))
    ab[0, 1:] = -1.0 / (h * h)
    ab[1] = 2.0 / (h * h)
    psi = np.zeros(q.size)
    psi[1:-1] = solveh_banded(ab, (2.0 * grad / s)[1:-1])
    v = np.gradient(psi, h)
    v[0] = v[-1] = 0.0
    return v


@pytest.mark.parametrize("nx", [16, 64, 256, 512])
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.floats(1e-3, 1e6))
def test_velocity_is_the_banded_poisson_velocity(nx, seed, sharp, size):
    rng = np.random.default_rng(seed)
    q = rng.uniform(size=nx + 1)
    if sharp:
        q = sharp_indicator(q - 0.5)
    grad = size * rng.uniform(-1.0, 1.0, size=nx + 1)
    h = 1.0 / nx
    v = front_velocity(q, grad, h)
    assert v[0] == 0.0 and v[-1] == 0.0
    assert _agrees(v, _banded_velocity(q, grad, SIGN_CLAMP, h))


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
    assert _same_bytes(upwind_step(phi, *split_velocity(v), dt, h),
                       _dm_dp_upwind(phi, v, dt, h))


@settings(max_examples=100, deadline=None)
@given(_upwind_case(st.one_of(
    st.floats(-10.0, 10.0), st.sampled_from([np.nan, np.inf, -np.inf]))))
def test_upwind_step_keeps_non_finite_velocities_non_finite(case):
    phi, v, dt, h = case
    out = upwind_step(phi, *split_velocity(v), dt, h)
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
