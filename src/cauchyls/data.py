"""Synthetic Cauchy pairs, calibrated noise and trace norms.

Data is manufactured on a strictly finer nested grid and injected onto the
inversion grid, so the inversion never sees its own discretization of the
truth. Noise is uniform per node and rescaled so the perturbation norm is
exactly level * ||g2||; the Dirichlet datum stays exact.
"""

from __future__ import annotations

import numpy as np

from .grid import GAMMA1, GAMMA2, TraceFn, quadrature_weights, restrict_trace
from .operator import CauchyData, OperatorContext, bottom_flux, compute_offset_z


def l2_norm_trace(t: TraceFn) -> float:
    """Trace-weighted L2 norm, trapezoid quadrature with h/2 end weights."""
    w = quadrature_weights(t.grid, t.part)
    return float(np.sqrt(np.sum(w * t.values * t.values)))


def trace_inner(a: TraceFn, b: TraceFn) -> float:
    """Trapezoid inner product of two traces on the same part."""
    if a.part is not b.part or a.grid != b.grid:
        raise ValueError("traces live on different parts or grids")
    w = quadrature_weights(a.grid, a.part)
    return float(np.sum(w * a.values * b.values))


def synthesize_cauchy_data(true_q: TraceFn, g1_fine: TraceFn,
                           ctx_fine: OperatorContext,
                           ctx_inv: OperatorContext) -> CauchyData:
    """Exact Cauchy pair on the inversion grid from the fine grid's bottom
    flux (operator.bottom_flux: cosine transforms on a spectral context).

    true_q and g1_fine live on ctx_fine's grid; the fine grid must be nested
    in the inversion grid (equal grids are allowed for same-grid closure
    tests). The offset z is computed on the inversion grid from the injected
    Dirichlet datum and ctx_inv's own source.
    """
    fine, inv = ctx_fine.grid, ctx_inv.grid
    if true_q.grid != fine or true_q.part is not GAMMA2:
        raise ValueError("truth flux must live on the fine grid's top edge")
    if g1_fine.grid != fine or g1_fine.part is not GAMMA1:
        raise ValueError("Dirichlet datum must live on the fine grid's bottom edge")

    g2_fine = bottom_flux(ctx_fine, true_q, g1_fine)

    if fine == inv:
        g1, g2 = g1_fine, g2_fine
    else:
        g1 = restrict_trace(g1_fine, inv)
        g2 = restrict_trace(g2_fine, inv)
    z = compute_offset_z(ctx_inv, g1)
    return CauchyData(g1=g1, g2=g2, delta=0.0, z=z)


def add_noise(g2: TraceFn, level: float, seed: int) -> tuple[TraceFn, float]:
    """Perturb a trace so the perturbation has norm exactly level * ||g2||.

    Returns the noisy trace and delta = level * ||g2||. level = 0 returns an
    identical copy. Fixed seed gives bit-identical output.
    """
    if level < 0:
        raise ValueError("noise level cannot be negative")
    base = l2_norm_trace(g2)
    delta = level * base
    if level == 0.0 or base == 0.0:
        return g2.with_values(g2.values.copy()), delta
    rng = np.random.default_rng(seed)
    e = rng.uniform(-1.0, 1.0, size=g2.values.size)
    e_norm = l2_norm_trace(g2.with_values(e))
    e *= delta / e_norm
    return g2.with_values(g2.values + e), delta


def with_noise(data: CauchyData, level: float, seed: int) -> CauchyData:
    """Noisy copy of a Cauchy pair; only the flux datum g2 is perturbed."""
    g2_noisy, delta = add_noise(data.g2, level, seed)
    return CauchyData(g1=data.g1, g2=g2_noisy, delta=delta, z=data.z)
