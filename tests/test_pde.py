"""Mixed boundary-value solver: exactness, convergence, trace extraction."""

import numpy as np
import pytest

from cauchyls import (GAMMA1, GAMMA2, GAMMA3, Coefficient, Field,
                      MixedSolver, SolverError, TraceFn, build_grid,
                      neumann_trace, quadrature_weights, trace_from_function,
                      zero_trace)
from cauchyls import pde


def _operator_solver(g):
    """Dirichlet bottom, Neumann top and sides: the forward map's pattern."""
    return MixedSolver(g, Coefficient(), {GAMMA1: "dirichlet",
                                          GAMMA2: "neumann", GAMMA3: "neumann"})


def _harmonic_errors(nx: int, height: float = 0.5) -> tuple[float, float]:
    """sin(pi x) sinh(pi y): harmonic, zero on the bottom edge."""
    g = build_grid(1.0, height, nx)
    top = trace_from_function(
        g, GAMMA2, lambda x: np.pi * np.sin(np.pi * x) * np.cosh(np.pi * height))
    # both vertical sides share the same outward flux -pi sinh(pi y)
    side = trace_from_function(g, GAMMA3, lambda s: -np.pi * np.sinh(np.pi * s))
    u = _operator_solver(g).solve(dirichlet={GAMMA1: zero_trace(g, GAMMA1)},
                                  neumann={GAMMA2: top, GAMMA3: side})
    x, y = np.meshgrid(g.xs, g.ys)
    exact = np.sin(np.pi * x) * np.sinh(np.pi * y)
    interior = np.abs(u.values - exact).max()
    flux = neumann_trace(u, Coefficient(), GAMMA1)
    exact_flux = -np.pi * np.sin(np.pi * g.xs)
    trace_err = np.abs(flux.values - exact_flux).max()
    return interior, trace_err


def test_harmonic_solution_second_order_interior_and_trace():
    i32, t32 = _harmonic_errors(32)
    i64, t64 = _harmonic_errors(64)
    assert np.log2(i32 / i64) > 1.8
    assert np.log2(t32 / t64) > 1.8


def test_quadratic_solution_reproduced_exactly():
    # the 5-point stencil and the 3-point one-sided flux are exact on x^2 - y^2
    g = build_grid(1.0, 0.5, 16)
    bottom = trace_from_function(g, GAMMA1, lambda x: x ** 2)
    top = trace_from_function(g, GAMMA2, lambda x: -2.0 * g.height
                              * np.ones_like(x))
    ny_side = g.ny - 1
    side = TraceFn(g, GAMMA3, np.concatenate([np.zeros(ny_side),
                                              np.full(ny_side, 2.0)]))
    u = _operator_solver(g).solve(dirichlet={GAMMA1: bottom},
                                  neumann={GAMMA2: top, GAMMA3: side})
    x, y = np.meshgrid(g.xs, g.ys)
    assert np.abs(u.values - (x ** 2 - y ** 2)).max() < 1e-10


def test_neumann_trace_of_linear_field():
    g = build_grid(1.0, 0.5, 8)
    u = Field(g, np.meshgrid(g.xs, g.ys)[1])
    a = Coefficient()
    assert np.allclose(neumann_trace(u, a, GAMMA1).values, -1.0)
    assert np.allclose(neumann_trace(u, a, GAMMA2).values, 1.0)


def test_neumann_trace_refuses_the_side_walls():
    g = build_grid(1.0, 0.5, 8)
    u = Field(g, np.meshgrid(g.xs, g.ys)[0])
    with pytest.raises(ValueError, match="side walls"):
        neumann_trace(u, Coefficient(), GAMMA3)


def test_assembled_system_is_symmetric_and_conservative():
    g = build_grid(1.0, 0.5, 16)
    solver = _operator_solver(g)
    # Green's symmetry: the response at top node l to a unit load at top
    # node k equals the response at k to a load at l. A top flux e_k / seg_k
    # loads node k with exactly 1
    seg = quadrature_weights(g, GAMMA2)
    green = np.array([
        solver.solve(neumann={GAMMA2: TraceFn(g, GAMMA2, e / seg)}).values[-1]
        for e in np.eye(g.nx + 1)])
    assert np.abs(green - green.T).max() <= 1e-12 * np.abs(green).max()
    # no flux is lost: constant Dirichlet data with zero Neumann data and no
    # source gives back the constant
    ones = trace_from_function(g, GAMMA1, np.ones_like)
    field = solver.solve(dirichlet={GAMMA1: ones}).values
    assert np.abs(field - 1.0).max() <= 1e-12


def test_field_validation_rejects_bad_values():
    g = build_grid(1.0, 0.5, 8)
    with pytest.raises(ValueError, match="shape"):
        Field(g, np.zeros((g.nx + 1, g.ny + 1)))
    with pytest.raises(ValueError, match="finite"):
        Field(g, np.full((g.ny + 1, g.nx + 1), np.inf))


def test_spec_requires_every_part():
    g = build_grid(1.0, 0.5, 8)
    with pytest.raises(ValueError, match="every boundary part"):
        MixedSolver(g, Coefficient(), {GAMMA1: "dirichlet"})
    with pytest.raises(ValueError, match="every boundary part"):
        MixedSolver(g, Coefficient(), {GAMMA1: "dirichlet",
                                       GAMMA2: "robin", GAMMA3: "neumann"})


def test_all_neumann_problem_rejected():
    g = build_grid(1.0, 0.5, 8)
    with pytest.raises(ValueError, match="all-Neumann"):
        MixedSolver(g, Coefficient(), {GAMMA1: "neumann", GAMMA2: "neumann",
                                       GAMMA3: "neumann"})


def test_only_the_cauchy_pattern_is_accepted():
    g = build_grid(1.0, 0.5, 8)
    for pattern in (
            {GAMMA1: "dirichlet"},
            {GAMMA1: "dirichlet", GAMMA2: "robin", GAMMA3: "neumann"},
            {GAMMA1: "neumann", GAMMA2: "neumann", GAMMA3: "neumann"},
            {GAMMA1: "dirichlet", GAMMA2: "dirichlet", GAMMA3: "neumann"}):
        with pytest.raises(ValueError, match="Cauchy pattern"):
            MixedSolver(g, Coefficient(), pattern)


def test_solve_rejects_misplaced_data():
    g = build_grid(1.0, 0.5, 16)
    solver = _operator_solver(g)
    shallow = build_grid(1.0, 0.25, 16)
    bottom = trace_from_function(g, GAMMA1, np.cos)
    top = trace_from_function(g, GAMMA2, np.cos)
    for kwargs in (
            # a trace whose part is not its key
            {"neumann": {GAMMA2: bottom}},
            {"dirichlet": {GAMMA1: top}},
            # a trace on another grid of the same width
            {"neumann": {GAMMA2: trace_from_function(shallow, GAMMA2,
                                                     np.cos)}},
            # a key the pattern does not carry
            {"neumann": {GAMMA1: bottom}},
            {"dirichlet": {GAMMA2: top}}):
        with pytest.raises(ValueError):
            solver.solve(**kwargs)
    # None still means zero data
    assert np.array_equal(solver.solve(dirichlet={GAMMA1: None},
                                       neumann={GAMMA2: None}).values,
                          solver.solve().values)


def test_corner_incompatible_dirichlet_still_solves():
    # g1 = x does not match the zero side flux at the corners; the discrete
    # problem stays well posed and finite
    g = build_grid(1.0, 0.5, 16)
    bottom = trace_from_function(g, GAMMA1, lambda x: x)
    u = _operator_solver(g).solve(dirichlet={GAMMA1: bottom})
    assert np.all(np.isfinite(u.values))
    # the solution obeys the discrete maximum principle for harmonic data
    assert u.values.max() <= 1.0 + 1e-8
    assert u.values.min() >= -1e-8


def test_block_solve_keeps_the_residual_check(monkeypatch):
    g = build_grid(1.0, 0.5, 8)
    solver = _operator_solver(g)
    monkeypatch.setattr(pde, "SOLVER_RTOL", 0.0)
    with pytest.raises(SolverError):
        solver.solve(neumann={GAMMA2: trace_from_function(g, GAMMA2, np.cos)})


def test_non_finite_solution_raises_solver_error():
    # near the float maximum the solve overflows; its nan residual passes a
    # ">" comparison with the bound, so the solution itself is checked
    g = build_grid(1.0, 0.5, 8)
    solver = _operator_solver(g)
    with pytest.raises(SolverError, match="non-finite"):
        solver.solve(neumann={GAMMA2: TraceFn(g, GAMMA2,
                                               np.full(g.nx + 1, 1.7e308))})
    big = solver.solve(neumann={GAMMA2: TraceFn(g, GAMMA2,
                                                 np.full(g.nx + 1, 1e305))})
    assert np.all(np.isfinite(big.values))
