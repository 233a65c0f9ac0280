"""The benchmark's correctness checker of perfbench/checks.py accepts the
package's own runs.

The checker recomputes each op's final residual through a freshly built
MixedSolver and neumann_trace, so a change to their call forms or results
would otherwise show only as failed benchmark ops.
"""

import importlib.util
from pathlib import Path

import pytest

from cauchyls.experiments import (exp3_config, run_config,
                                  transport_benchmark_config)

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("config", [exp3_config, transport_benchmark_config])
def test_checker_passes_a_built_in_run(checks, config):
    record, setup = run_config(config())
    assert checks.check_op(record, setup, None) == []
