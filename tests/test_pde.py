"""Mixed boundary-value solver: exactness, convergence, trace extraction."""

import numpy as np
import pytest

from cauchyls import (GAMMA1, GAMMA2, GAMMA3, BvpSpec, Coefficient, Dirichlet,
                      MixedSolver, Neumann, SolverError, TraceFn,
                      boundary_nodes, build_grid, field_from_function,
                      neumann_trace, solve_mixed_bvp, trace_from_function,
                      zero_trace)
from cauchyls import pde


def _harmonic_spec(nx: int, height: float = 0.5) -> tuple:
    """sin(pi x) sinh(pi y): harmonic, zero on the bottom edge."""
    g = build_grid(1.0, height, nx)
    top = trace_from_function(
        g, GAMMA2, lambda x: np.pi * np.sin(np.pi * x) * np.cosh(np.pi * height))
    # both vertical sides share the same outward flux -pi sinh(pi y)
    side = trace_from_function(g, GAMMA3, lambda s: -np.pi * np.sinh(np.pi * s))
    spec = BvpSpec(grid=g, coefficient=Coefficient(), f=None,
                   bcs={GAMMA1: Dirichlet(zero_trace(g, GAMMA1)),
                        GAMMA2: Neumann(top),
                        GAMMA3: Neumann(side)})
    return g, spec


def _harmonic_errors(nx: int) -> tuple[float, float]:
    g, spec = _harmonic_spec(nx)
    u = solve_mixed_bvp(spec)
    x, y = np.meshgrid(g.xs, g.ys)
    exact = np.sin(np.pi * x) * np.sinh(np.pi * y)
    interior = np.abs(u.values - exact).max()
    flux = neumann_trace(u, spec.coefficient, GAMMA1)
    exact_flux = -np.pi * np.sin(np.pi * g.xs)
    trace_err = np.abs(flux.values - exact_flux).max()
    return interior, trace_err


def test_harmonic_solution_second_order_interior_and_trace():
    i32, t32 = _harmonic_errors(32)
    i64, t64 = _harmonic_errors(64)
    assert np.log2(i32 / i64) > 1.8
    assert np.log2(t32 / t64) > 1.8


def _variable_coefficient_error(nx: int) -> float:
    """Largest nodal error for u = exp(x + y/2) under a = 2 + sin(pi x) y,
    with the matching source, Dirichlet data on the bottom and conormal flux
    data on the top and sides."""
    g = build_grid(1.0, 0.5, nx)
    a = Coefficient(fn=lambda x, y: 2.0 + np.sin(np.pi * x) * y)

    def u(x, y):
        return np.exp(x + 0.5 * y)

    # -div(a grad u) with u_x = u, u_y = u/2, a_x = pi cos(pi x) y and
    # a_y = sin(pi x)
    f = field_from_function(g, lambda x, y: -u(x, y) * (
        np.pi * np.cos(np.pi * x) * y + 0.5 * np.sin(np.pi * x)
        + 1.25 * a(x, y)))
    bottom = trace_from_function(g, GAMMA1, lambda x: u(x, 0.0))
    top = trace_from_function(g, GAMMA2,
                              lambda x: 0.5 * a(x, g.height) * u(x, g.height))
    s = np.arange(1, g.ny) * g.hy
    side = TraceFn(g, GAMMA3, np.concatenate([-a(0.0, s) * u(0.0, s),
                                              a(1.0, s) * u(1.0, s)]))
    solver = MixedSolver(g, a, {GAMMA1: "dirichlet", GAMMA2: "neumann",
                                GAMMA3: "neumann"})
    sol = solver.solve(dirichlet={GAMMA1: bottom},
                       neumann={GAMMA2: top, GAMMA3: side}, f=f)
    x, y = np.meshgrid(g.xs, g.ys)
    return float(np.abs(sol.values - u(x, y)).max())


def test_variable_coefficient_solution_second_order():
    order = np.log2(_variable_coefficient_error(32)
                    / _variable_coefficient_error(64))
    assert order >= 1.8


def test_quadratic_solution_reproduced_exactly():
    # the 5-point stencil and the 3-point one-sided flux are exact on x^2 - y^2
    g = build_grid(1.0, 0.5, 16)
    bottom = trace_from_function(g, GAMMA1, lambda x: x ** 2)
    top = trace_from_function(g, GAMMA2, lambda x: -2.0 * g.height
                              * np.ones_like(x))
    ny_side = g.ny - 1
    side = TraceFn(g, GAMMA3, np.concatenate([np.zeros(ny_side),
                                              np.full(ny_side, 2.0)]))
    spec = BvpSpec(grid=g, coefficient=Coefficient(), f=None,
                   bcs={GAMMA1: Dirichlet(bottom), GAMMA2: Neumann(top),
                        GAMMA3: Neumann(side)})
    u = solve_mixed_bvp(spec)
    x, y = np.meshgrid(g.xs, g.ys)
    assert np.abs(u.values - (x ** 2 - y ** 2)).max() < 1e-10


def test_neumann_trace_of_linear_field():
    g = build_grid(1.0, 0.5, 8)
    u = field_from_function(g, lambda x, y: y)
    a = Coefficient()
    assert np.allclose(neumann_trace(u, a, GAMMA1).values, -1.0)
    assert np.allclose(neumann_trace(u, a, GAMMA2).values, 1.0)


def test_spec_requires_every_part():
    g = build_grid(1.0, 0.5, 8)
    with pytest.raises(ValueError):
        BvpSpec(grid=g, coefficient=Coefficient(), f=None,
                bcs={GAMMA1: Dirichlet(zero_trace(g, GAMMA1))})


def test_all_neumann_problem_rejected():
    g = build_grid(1.0, 0.5, 8)
    with pytest.raises(ValueError):
        BvpSpec(grid=g, coefficient=Coefficient(), f=None,
                bcs={GAMMA1: Neumann(zero_trace(g, GAMMA1)),
                     GAMMA2: Neumann(zero_trace(g, GAMMA2)),
                     GAMMA3: Neumann(zero_trace(g, GAMMA3))})


def test_corner_incompatible_dirichlet_still_solves():
    # g1 = x does not match the zero side flux at the corners; the discrete
    # problem stays well posed and finite
    g = build_grid(1.0, 0.5, 16)
    bottom = trace_from_function(g, GAMMA1, lambda x: x)
    spec = BvpSpec(grid=g, coefficient=Coefficient(), f=None,
                   bcs={GAMMA1: Dirichlet(bottom),
                        GAMMA2: Neumann(zero_trace(g, GAMMA2)),
                        GAMMA3: Neumann(zero_trace(g, GAMMA3))})
    u = solve_mixed_bvp(spec)
    assert np.all(np.isfinite(u.values))
    # the solution obeys the discrete maximum principle for harmonic data
    assert u.values.max() <= 1.0 + 1e-8
    assert u.values.min() >= -1e-8


def test_source_term_enters_with_correct_sign():
    # -u'' = 2 in 1D cross-section: u = y(height - y) + linear parts; check
    # against a manufactured polynomial with f = 2
    g = build_grid(1.0, 0.5, 16)
    f = field_from_function(g, lambda x, y: 2.0 * np.ones_like(x))
    top = trace_from_function(
        g, GAMMA2, lambda x: -np.ones_like(x) * g.height * 2 + 0.5)

    # u = 0.5 y - y^2 satisfies -u'' = 2, u(x, 0) = 0, a du/dy|top = 0.5 - 2h
    spec = BvpSpec(grid=g, coefficient=Coefficient(), f=f,
                   bcs={GAMMA1: Dirichlet(zero_trace(g, GAMMA1)),
                        GAMMA2: Neumann(top),
                        GAMMA3: Neumann(zero_trace(g, GAMMA3))})
    u = solve_mixed_bvp(spec)
    x, y = np.meshgrid(g.xs, g.ys)
    assert np.abs(u.values - (0.5 * y - y ** 2)).max() < 1e-10


def _operator_solver(g):
    return MixedSolver(g, Coefficient(), {GAMMA1: "dirichlet",
                                          GAMMA2: "neumann", GAMMA3: "neumann"})


def test_unit_load_block_matches_single_solves():
    g = build_grid(1.0, 0.5, 8)
    solver = _operator_solver(g)
    top = boundary_nodes(g, GAMMA2)
    u, reaction = solver.solve_unit_loads(top[2:5])
    for k, i in enumerate(range(2, 5)):
        # a top flux of 1/hx at interior node i is a unit load there
        q = np.zeros(g.nx + 1)
        q[i] = 1.0 / g.hx
        single = solver.solve(neumann={GAMMA2: zero_trace(g, GAMMA2).with_values(q)})
        assert np.allclose(u[k], single.values, rtol=0, atol=1e-13)
    # reactions live on the Dirichlet bottom row only
    assert np.all(reaction[:, 1:, :] == 0.0)
    with pytest.raises(ValueError):
        solver.solve_unit_loads(boundary_nodes(g, GAMMA1))


def test_block_solve_keeps_the_residual_check(monkeypatch):
    g = build_grid(1.0, 0.5, 8)
    solver = _operator_solver(g)
    monkeypatch.setattr(pde, "SOLVER_RTOL", 0.0)
    with pytest.raises(SolverError):
        solver.solve_unit_loads(boundary_nodes(g, GAMMA2))
    with pytest.raises(SolverError):
        solver.solve(neumann={GAMMA2: trace_from_function(g, GAMMA2, np.cos)})
