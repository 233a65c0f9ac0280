"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers before
asserting, so a full run documents the quantitative state of the solver in
one screen. Budgets are wall-clock seconds on a desk machine.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cauchyls import (GAMMA1, GAMMA2, GAMMA3, Coefficient, MixedSolver,
                      OperatorContext, TraceFn, add_noise, apply_adjoint,
                      apply_forward, build_grid, decay_slope, l2_norm_trace,
                      neumann_trace, operator_context, prolong_trace,
                      restrict_trace, singular_values, smoothed_heaviside,
                      smoothed_heaviside_deriv, solve_helmholtz_neumann,
                      split_velocity, trace_inner, trace_from_function,
                      upwind_step, zero_trace)
from cauchyls.experiments import (EXP2_REL_RESIDUAL, exp1_config, exp2_config,
                                  exp3_config, history_csv,
                                  iterations_to_relative_residual, run_config,
                                  transport_benchmark_config)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1: solver convergence -----------------------------------------------------

def _manufactured_errors(nx: int, height: float = 0.5) -> tuple[float, float]:
    g = build_grid(1.0, height, nx)
    top = trace_from_function(
        g, GAMMA2,
        lambda x: np.pi * np.sin(np.pi * x) * np.cosh(np.pi * height))
    side = trace_from_function(g, GAMMA3,
                               lambda s: -np.pi * np.sinh(np.pi * s))
    solver = MixedSolver(g, Coefficient(), {GAMMA1: "dirichlet",
                                            GAMMA2: "neumann",
                                            GAMMA3: "neumann"})
    u = solver.solve(dirichlet={GAMMA1: zero_trace(g, GAMMA1)},
                     neumann={GAMMA2: top, GAMMA3: side})
    x, y = np.meshgrid(g.xs, g.ys)
    interior = np.abs(u.values - np.sin(np.pi * x) * np.sinh(np.pi * y)).max()
    flux = neumann_trace(u, Coefficient(), GAMMA1)
    trace_err = np.abs(flux.values + np.pi * np.sin(np.pi * g.xs)).max()
    return interior, trace_err


def test_criterion_1_pde_convergence_orders():
    t0 = time.perf_counter()
    i32, t32 = _manufactured_errors(32)
    i64, t64 = _manufactured_errors(64)
    interior_order = float(np.log2(i32 / i64))
    trace_order = float(np.log2(t32 / t64))
    elapsed = time.perf_counter() - t0
    ok = interior_order >= 1.8 and trace_order >= 1.8 and elapsed < 5.0
    _verdict("criterion 1 (solver orders)", ok,
             f"interior order {interior_order:.3f}, trace order "
             f"{trace_order:.3f} (need >= 1.8), {elapsed:.2f}s")


# -- 2: adjoint identity --------------------------------------------------------

def _adjoint_gaps(nx: int, pairs: int = 10, seed: int = 1234) -> float:
    g = build_grid(1.0, 0.5, nx)
    ctx = OperatorContext(g)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        q = zero_trace(g, GAMMA2).with_values(rng.normal(size=g.nx + 1))
        r = zero_trace(g, GAMMA1).with_values(rng.normal(size=g.nx + 1))
        lhs = trace_inner(apply_forward(ctx, q), r)
        rhs = trace_inner(q, apply_adjoint(ctx, r))
        gap = abs(lhs - rhs) / (l2_norm_trace(q) * l2_norm_trace(r))
        worst = max(worst, gap)
    return worst


def test_criterion_2_adjoint_identity():
    t0 = time.perf_counter()
    gap64 = _adjoint_gaps(64)
    gap128 = _adjoint_gaps(128)
    elapsed = time.perf_counter() - t0
    ok = gap64 <= 5e-2 and gap128 <= 0.6 * gap64 and elapsed < 10.0
    _verdict("criterion 2 (adjoint identity)", ok,
             f"max gap nx=64 {gap64:.2e} (need <= 5e-2), nx=128 {gap128:.2e} "
             f"(need <= {0.6 * gap64:.2e}), {elapsed:.2f}s")


# -- 3: spectral ill-posedness ---------------------------------------------------

def test_criterion_3_spectral_decay_tracks_height():
    t0 = time.perf_counter()
    slopes, ratios = {}, {}
    for h in (0.5, 1.0):
        ctx = operator_context(build_grid(1.0, h, 64))
        sigma = singular_values(ctx.maps[0])
        slopes[h] = decay_slope(sigma)           # fitted over k = 2..15
        ratios[h] = sigma[9] / sigma[1]          # sigma_10 / sigma_2
    elapsed = time.perf_counter() - t0
    slope_ok = all(abs(slopes[h] - (-np.pi * h)) <= 0.15 * np.pi * h
                   for h in (0.5, 1.0))
    ratio_ok = ratios[1.0] < ratios[0.5]
    ok = slope_ok and ratio_ok and elapsed < 30.0
    _verdict("criterion 3 (spectral decay)", ok,
             f"slopes {slopes[0.5]:.4f}/{slopes[1.0]:.4f} vs targets "
             f"{-np.pi * 0.5:.4f}/{-np.pi:.4f} within 15%, "
             f"sigma10/sigma2 {ratios[1.0]:.1e} < {ratios[0.5]:.1e}, "
             f"{elapsed:.2f}s")


# -- 4: topology change under exact data ----------------------------------------

# the inclusion the exp1 run has to nucleate away from its seed
RIGHT_INCLUSION = (0.6, 0.8)


def _mid_level_runs(q: np.ndarray) -> list[tuple[int, int]]:
    """First and last node of each maximal run of {q > 1/2}."""
    above = np.concatenate(([False], q > 0.5, [False]))
    edges = np.flatnonzero(np.diff(above.astype(int)))
    return list(zip(edges[::2], edges[1::2] - 1))


def _first_right_split(record, xs: np.ndarray):
    """(iteration, node span, nodes inside) of the first two-component
    iterate with a component over RIGHT_INCLUSION, or Nones. A gray ramp at
    the wall on (0.8, 1] does not count."""
    lo, hi = RIGHT_INCLUSION
    for k, n in enumerate(record.components):
        if n == 2:
            for i, j in _mid_level_runs(record.snapshots[k][1]):
                nodes = xs[i:j + 1]
                inside = int(np.sum((nodes > lo) & (nodes < hi)))
                if inside:
                    return k, (nodes[0], nodes[-1]), inside
    return None, None, 0


def test_criterion_4_two_inclusions_from_one_seed():
    cfg = exp1_config()
    t0 = time.perf_counter()
    # every iterate is kept, so the split can be placed on the edge
    record, setup = run_config(
        replace(cfg, snapshot_iters=range(cfg.max_iters + 1)))
    elapsed = time.perf_counter() - t0
    first2, span, overlap = _first_right_split(record, setup.grid.xs)
    split = record.components[0] == 1 and first2 is not None
    where = (f"component [{span[0]:.3f}, {span[1]:.3f}] has {overlap} nodes "
             f"in {RIGHT_INCLUSION}" if split
             else f"no component over {RIGHT_INCLUSION}")
    final_err = record.errors[-1]
    ok = split and final_err < 5e-2 and elapsed < 120.0
    _verdict("criterion 4 (splitting run)", ok,
             f"components 1->2 at iter {first2} ({where}), "
             f"final error {final_err:.4f} (need < 5e-2), "
             f"stop {record.stop_reason}@{record.stop_iteration}, "
             f"{elapsed:.1f}s")


# -- 5: deeper strip costs iterations --------------------------------------------

def _mean_mode_share(r: TraceFn) -> float:
    """Share of ||r|| in the k = 0 cosine mode, the constant on the edge,
    which the forward map does not damp at any height."""
    one = r.with_values(np.ones_like(r.values))
    return abs(trace_inner(r, one)) / (l2_norm_trace(one) * l2_norm_trace(r))


def test_criterion_5_iteration_cost_grows_with_height():
    t0 = time.perf_counter()
    counts, shares = {}, {}
    for h in (0.5, 1.0):
        cfg = exp2_config(h)
        # every iterate is kept, so the residual at the count can be taken
        record, setup = run_config(
            replace(cfg, snapshot_iters=range(cfg.max_iters + 1)))
        counts[h] = iterations_to_relative_residual(record, setup.data,
                                                    EXP2_REL_RESIDUAL)
        if counts[h] is not None:
            q = zero_trace(setup.grid, GAMMA2).with_values(
                record.snapshots[counts[h]][1])
            lq = apply_forward(setup.ctx, q)
            shares[h] = _mean_mode_share(
                lq.with_values(lq.values - setup.data.rhs.values))
    elapsed = time.perf_counter() - t0
    reached = counts[0.5] is not None and counts[1.0] is not None
    ratio = counts[1.0] / counts[0.5] if reached and counts[0.5] else np.nan
    ok = reached and ratio >= 3.0 and elapsed < 180.0
    share_text = ", ".join(f"h={h:g} {shares[h]:.3f}" for h in sorted(shares))
    _verdict("criterion 5 (height cost ratio)", ok,
             f"iters to {EXP2_REL_RESIDUAL:g}*||rhs||: h=1.0 {counts[1.0]}, "
             f"h=0.5 {counts[0.5]}, ratio {ratio:.2f} (need >= 3), "
             f"k=0 mode share of the residual at the count: {share_text}, "
             f"{elapsed:.1f}s")


# -- 6: noisy run with the discrepancy stop ---------------------------------------

def test_criterion_6_discrepancy_stop_under_noise():
    t0 = time.perf_counter()
    record, setup = run_config(exp3_config())
    rerun, _ = run_config(exp3_config())
    elapsed = time.perf_counter() - t0
    delta = setup.data.delta
    tau = setup.cfg.tau
    stopped = record.stop_reason == "discrepancy"
    res_ok = record.residuals[-1] <= tau * delta
    err_ok = record.errors[-1] <= 0.15
    repro = history_csv(record) == history_csv(rerun)
    ok = stopped and res_ok and err_ok and repro and elapsed < 120.0
    _verdict("criterion 6 (noisy stop)", ok,
             f"stop {record.stop_reason}@{record.stop_iteration}, residual "
             f"{record.residuals[-1]:.4f} <= tau*delta {tau * delta:.4f}, "
             f"error {record.errors[-1]:.4f} (need <= 0.15), rerun "
             f"{'byte-identical' if repro else 'DIVERGED'}, {elapsed:.1f}s")


# -- 7: transport monotonicity ------------------------------------------------------

def test_criterion_7_transport_error_decays_monotonically():
    t0 = time.perf_counter()
    record, setup = run_config(transport_benchmark_config())
    elapsed = time.perf_counter() - t0
    errs = np.asarray(record.errors)
    res = np.asarray(record.residuals)
    decreased = errs[-1] < errs[0]
    noninc_frac = float(np.mean(np.diff(errs) <= 1e-12))
    res_upticks = np.diff(res)
    res_tol = 1e-3 * res[0]
    res_ok = bool(np.all(res_upticks <= res_tol))
    ok = decreased and noninc_frac >= 0.9 and res_ok
    _verdict("criterion 7 (transport monotonicity)", ok,
             f"error {errs[0]:.3f}->{errs[-1]:.2e}, non-increasing in "
             f"{noninc_frac:.1%} of steps (need >= 90%), max residual uptick "
             f"{res_upticks.max():.2e} <= {res_tol:.2e}, "
             f"stop {record.stop_reason}@{record.stop_iteration}, {elapsed:.1f}s")


# -- 8: unit invariants -----------------------------------------------------------

def test_criterion_8_unit_invariants():
    t0 = time.perf_counter()
    checks = {}

    # projector ramp values
    ts = np.array([-2.0, -1.0, -0.5, 0.0, 1.0])
    # both kink points carry the band value 1/eps
    checks["ramp"] = (
        np.allclose(smoothed_heaviside(ts, 1.0), [0, 0, 0.5, 1, 1])
        and np.allclose(smoothed_heaviside_deriv(ts, 1.0), [0, 1, 1, 1, 0]))

    # screened-Poisson analytic modes, Richardson-extrapolated n=128/256
    worst = 0.0
    for k in (1, 2, 5):
        sols = {}
        for n in (128, 256):
            g = build_grid(1.0, 0.5, n)
            rhs = trace_from_function(g, GAMMA2,
                                      lambda x: np.cos(k * np.pi * x))
            sols[n] = solve_helmholtz_neumann(rhs).values
        rich = (4.0 * sols[256][::2] - sols[128]) / 3.0
        gg = build_grid(1.0, 0.5, 128)
        exact = np.cos(k * np.pi * gg.xs) / (1.0 + (k * np.pi) ** 2)
        worst = max(worst, np.linalg.norm(rich - exact) / np.linalg.norm(exact))
    checks["modes"] = worst <= 1e-6

    # mean preservation of the screened-Poisson solve
    g = build_grid(1.0, 0.5, 64)
    rng = np.random.default_rng(5)
    rhs = TraceFn(g, GAMMA2, rng.normal(size=g.nx + 1))
    sol = solve_helmholtz_neumann(rhs)
    w = np.full(g.nx + 1, g.hx)
    w[0] = w[-1] = 0.5 * g.hx
    checks["mean"] = abs(np.dot(w, sol.values - rhs.values)) < 1e-12

    # upwind maximum principle on a rough random profile
    rng = np.random.default_rng(6)
    phi = rng.uniform(-1, 1, size=65)
    v = rng.uniform(-1, 1, size=65)
    h = 1.0 / 64
    out = upwind_step(phi, *split_velocity(v), 0.9 * h / np.abs(v).max(),
                      h)
    checks["upwind"] = out.max() <= phi.max() + 1e-12 \
        and out.min() >= phi.min() - 1e-12

    # restriction undoes prolongation on nested grids
    coarse, fine = build_grid(1.0, 0.5, 16), build_grid(1.0, 0.5, 32)
    t = TraceFn(coarse, GAMMA2, rng.normal(size=17))
    checks["transfer"] = np.array_equal(
        restrict_trace(prolong_trace(t, fine), coarse).values, t.values)

    # calibrated noise is reproducible
    g2 = trace_from_function(g, GAMMA1, lambda x: 1.0 + np.cos(np.pi * x))
    a, da = add_noise(g2, 0.1, seed=21)
    b, db = add_noise(g2, 0.1, seed=21)
    checks["noise"] = np.array_equal(a.values, b.values) and da == db \
        and da == pytest.approx(0.1 * l2_norm_trace(g2))

    elapsed = time.perf_counter() - t0
    failed = [name for name, good in checks.items() if not good]
    ok = not failed and elapsed < 10.0
    _verdict("criterion 8 (unit invariants)", ok,
             f"ramp/modes/mean/upwind/transfer/noise all hold "
             f"(mode error {worst:.1e} <= 1e-6), {elapsed:.2f}s"
             if not failed else f"failed: {', '.join(failed)}")
