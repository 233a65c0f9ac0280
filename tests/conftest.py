"""Shared fixtures: grids and operator contexts reused across modules.

OperatorContext caches its dense maps, and the block-solve assembly behind
assemble_forward_matrix factorizes once per context, so session scope avoids
paying for either in every test.
"""

import pytest

from cauchyls import Grid, OperatorContext, build_grid


@pytest.fixture(scope="session")
def grid64() -> Grid:
    return build_grid(1.0, 0.5, 64)


@pytest.fixture(scope="session")
def ctx64(grid64) -> OperatorContext:
    return OperatorContext(grid64)


@pytest.fixture(scope="session")
def grid64_h1() -> Grid:
    return build_grid(1.0, 1.0, 64)


@pytest.fixture(scope="session")
def ctx64_h1(grid64_h1) -> OperatorContext:
    return OperatorContext(grid64_h1)


@pytest.fixture(scope="session")
def grid16() -> Grid:
    return build_grid(1.0, 0.5, 16)


@pytest.fixture(scope="session")
def ctx16(grid16) -> OperatorContext:
    return OperatorContext(grid16)
