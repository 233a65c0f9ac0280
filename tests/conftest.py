"""Shared fixtures: grids and operator contexts reused across modules.

The contexts are the grids' cached ones (operator_context), as a run's are.
A context builds its dense maps from the cosine symbols on first use, so
session scope builds each fixture's maps once for the whole run.
"""

import pytest

from cauchyls import Grid, OperatorContext, build_grid, operator_context


@pytest.fixture(scope="session")
def grid64() -> Grid:
    return build_grid(1.0, 0.5, 64)


@pytest.fixture(scope="session")
def ctx64(grid64) -> OperatorContext:
    return operator_context(grid64)


@pytest.fixture(scope="session")
def grid64_h1() -> Grid:
    return build_grid(1.0, 1.0, 64)


@pytest.fixture(scope="session")
def ctx64_h1(grid64_h1) -> OperatorContext:
    return operator_context(grid64_h1)


@pytest.fixture(scope="session")
def grid16() -> Grid:
    return build_grid(1.0, 0.5, 16)


@pytest.fixture(scope="session")
def ctx16(grid16) -> OperatorContext:
    return operator_context(grid16)
