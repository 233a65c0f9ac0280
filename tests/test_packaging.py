"""Packaging: a run needs numpy alone; scipy serves the test oracle only."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _project() -> dict:
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_runtime_dependencies_are_numpy_alone():
    assert _project()["dependencies"] == ["numpy>=1.24"]


def test_scipy_is_a_test_extra():
    test_extra = _project()["optional-dependencies"]["test"]
    assert any(req.startswith("scipy") for req in test_extra)
