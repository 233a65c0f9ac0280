"""Grid layout, traces, quadrature and the nested transfer operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyls import (GAMMA1, GAMMA2, GAMMA3, TraceFn, build_grid,
                      prolong_trace, quadrature_weights, restrict_trace,
                      trace_from_function, zero_trace)
from cauchyls.grid import INDEX_MAX, isotropic_ny


def test_build_grid_derives_ny_from_height():
    g = build_grid(1.0, 0.5, 64)
    assert g.ny == 32
    assert g.hx == pytest.approx(1.0 / 64)
    assert g.hy == pytest.approx(0.5 / 32)


def test_isotropic_ny_survives_an_overflowing_product():
    # 16 * 1e308 overflows; height / width is taken first there
    assert isotropic_ny(1e308, 1e308, 16) == 16
    assert isotropic_ny(1e308, 5e307, 16) == 8
    assert build_grid(1e308, 1e308, 16).ny == 16


def test_a_row_count_that_is_not_finite_raises_value_error():
    # 16 * 1e308 overflows, and so does 16 * (1e308 / 1)
    with pytest.raises(ValueError, match="no finite row count"):
        isotropic_ny(1.0, 1e308, 16)
    with pytest.raises(ValueError, match="no finite row count"):
        build_grid(1.0, 1e308, 16)


def test_a_row_count_beyond_a_numpy_index_raises_value_error():
    # 1.6e301 rows is finite, but no array can be indexed by it
    with pytest.raises(ValueError, match="numpy index"):
        build_grid(1e-300, 1.0, 16)
    for nx, ny in ((INDEX_MAX + 1, 16), (16, INDEX_MAX + 1)):
        with pytest.raises(ValueError, match="numpy index"):
            build_grid(1.0, 1.0, nx, ny)
    assert build_grid(1.0, 1.0, 16, INDEX_MAX).ny == INDEX_MAX


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-300, 1e308), st.floats(1e-300, 1e308),
       st.integers(4, 1024))
def test_isotropic_ny_keeps_the_quotient_where_it_is_finite(width, height,
                                                            nx):
    ny = nx * height / width
    if np.isfinite(ny):
        assert isotropic_ny(width, height, nx) == int(round(ny))


def test_boundary_node_counts():
    g = build_grid(1.0, 0.5, 16)
    # horizontal edges own the corners, sides exclude them
    assert g.node_count(GAMMA1) == 17
    assert g.node_count(GAMMA2) == 17
    assert g.node_count(GAMMA3) == 2 * (g.ny - 1)


def test_quadrature_integrates_constant_to_edge_length():
    g = build_grid(1.0, 0.5, 32)
    for part, length in ((GAMMA1, 1.0), (GAMMA2, 1.0),
                         (GAMMA3, 2 * 0.5 - 2 * g.hy)):
        w = quadrature_weights(g, part)
        assert np.sum(w) == pytest.approx(length)


def test_trace_coords_follow_arc_coordinate():
    g = build_grid(1.0, 0.5, 8)
    top = zero_trace(g, GAMMA2)
    assert np.allclose(top.coords, g.xs)
    side = zero_trace(g, GAMMA3)
    ys_interior = g.ys[1:-1]
    assert np.allclose(side.coords, np.concatenate([ys_interior, ys_interior]))


def test_trace_from_function_samples_arc_coordinate():
    g = build_grid(1.0, 0.5, 8)
    t = trace_from_function(g, GAMMA2, lambda x: x ** 2)
    assert np.allclose(t.values, g.xs ** 2)


def test_trace_validation_rejects_bad_values():
    g = build_grid(1.0, 0.5, 8)
    with pytest.raises(ValueError):
        TraceFn(g, GAMMA2, np.zeros(3))
    with pytest.raises(ValueError):
        TraceFn(g, GAMMA2, np.full(9, np.nan))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=9, max_size=9))
def test_restrict_after_prolong_is_identity(vals):
    coarse = build_grid(1.0, 0.5, 8)
    fine = build_grid(1.0, 0.5, 16)
    t = TraceFn(coarse, GAMMA2, np.array(vals))
    back = restrict_trace(prolong_trace(t, fine), coarse)
    assert np.array_equal(back.values, t.values)


def test_restrict_is_injection_at_shared_nodes():
    fine = build_grid(1.0, 0.5, 32)
    coarse = build_grid(1.0, 0.5, 8)
    t = trace_from_function(fine, GAMMA1, np.sin)
    r = restrict_trace(t, coarse)
    assert np.allclose(r.values, np.sin(coarse.xs))


def test_transfer_rejects_a_side_trace():
    coarse = build_grid(1.0, 0.5, 8)
    fine = build_grid(1.0, 0.5, 16)
    with pytest.raises(ValueError, match="only edge traces"):
        restrict_trace(zero_trace(fine, GAMMA3), coarse)
    with pytest.raises(ValueError, match="only edge traces"):
        prolong_trace(zero_trace(coarse, GAMMA3), fine)


def test_transfer_rejects_non_nested_grids():
    a = build_grid(1.0, 0.5, 12)
    b = build_grid(1.0, 0.5, 8)
    with pytest.raises(ValueError):
        restrict_trace(zero_trace(a, GAMMA2), b)
    # grids of another rectangle are not nested
    with pytest.raises(ValueError, match="different rectangles"):
        restrict_trace(zero_trace(build_grid(1.0, 1.0, 8), GAMMA2), b)


def test_grid_guards():
    with pytest.raises(ValueError):
        build_grid(-1.0, 0.5, 8)
    with pytest.raises(ValueError):
        build_grid(1.0, 0.5, 1)
