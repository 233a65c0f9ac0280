"""The span tracer of perfbench/tracing.py finds every callable it names.

The tracer instruments the package from outside, by module and attribute
name, so a rename in the package would otherwise show only in traced
benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_instrumented_target_resolves(tracing):
    for span, mod_name, attr in tracing.INSTRUMENTED:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name, object)), \
                f"{span}: {mod_name}.{attr}"
        else:
            assert callable(getattr(mod, attr, None)), \
                f"{span}: {mod_name}.{attr}"


def test_instrument_enters_and_restores(tracing):
    targets = [(importlib.import_module(f"{tracing.PACKAGE}.{m}"), a)
               for _, m, a in tracing.INSTRUMENTED if "." not in a]
    before = [getattr(mod, attr) for mod, attr in targets]
    with tracing.instrument(tracing.Tracer()) as tracer:
        assert all(getattr(mod, attr) is not fn
                   for (mod, attr), fn in zip(targets, before))
    assert len(tracer) == 0
    assert all(getattr(mod, attr) is fn
               for (mod, attr), fn in zip(targets, before))
