"""Correctness checks applied to every benchmark op.

An op fails when it raises, when it deviates from the reference recorded
in baseline.json (stop reason, stop iteration, or final residual or error
off by more than REL_TOL relative), or when an invariant breaks:

- the reported final residual equals one recomputed from the final iterate
  by a fresh sparse solve that the benchmark builds itself;
- the residual and error histories are finite;
- with noisy data, the residual is at most tau * delta at the stop iterate
  and above it at every iterate before.
"""

from __future__ import annotations

import math

import numpy as np

from cauchyls.data import l2_norm_trace
from cauchyls.grid import GAMMA1, GAMMA2, GAMMA3
from cauchyls.pde import Coefficient, MixedSolver, neumann_trace
from cauchyls.record import STOP_DISCREPANCY

REL_TOL = 1e-6


def outcome(record) -> dict:
    """What the reference stores about one op."""
    return {
        "stop_reason": record.stop_reason,
        "stop_iteration": record.stop_iteration,
        "final_residual": record.residuals[-1],
        "final_error": record.errors[-1] if record.errors else None,
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def fresh_residual(record, setup) -> float:
    """Residual of the final iterate through a newly factorized solver."""
    coefficient = Coefficient()
    solver = MixedSolver(setup.grid, coefficient,
                         {GAMMA1: "dirichlet", GAMMA2: "neumann",
                          GAMMA3: "neumann"})
    u = solver.solve(neumann={GAMMA2: record.final_q})
    lq = neumann_trace(u, coefficient, GAMMA1)
    return l2_norm_trace(lq.with_values(lq.values - setup.data.rhs.values))


def check_op(record, setup, reference: dict | None) -> list[str]:
    """Problems found with one op's result; empty when it is correct."""
    problems = []
    got = outcome(record)
    if reference is not None:
        for key in ("stop_reason", "stop_iteration"):
            if got[key] != reference[key]:
                problems.append(f"{key} {got[key]!r}, reference "
                                f"{reference[key]!r}")
        for key in ("final_residual", "final_error"):
            a, b = got[key], reference[key]
            if (a is None) != (b is None) or (a is not None
                                              and not _close(a, b)):
                problems.append(f"{key} {a!r}, reference {b!r}")

    history = list(record.residuals) + list(record.errors or [])
    if not all(math.isfinite(v) for v in history):
        problems.append("history is not finite")
    fresh = fresh_residual(record, setup)
    if not _close(got["final_residual"], fresh):
        problems.append(f"final residual {got['final_residual']!r}, "
                        f"fresh solve gives {fresh!r}")

    delta = setup.data.delta
    if delta > 0:
        threshold = setup.cfg.tau * delta
        res = np.asarray(record.residuals)
        if record.stop_reason != STOP_DISCREPANCY or res[-1] > threshold \
                or np.any(res[:-1] <= threshold):
            problems.append(f"discrepancy stop broken: reason "
                            f"{record.stop_reason}, threshold {threshold!r}, "
                            f"residuals {res.tolist()}")
    return problems
