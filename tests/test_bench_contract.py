"""The names the benchmark's tracer wraps still exist in the package.

bench/tracer.py replaces functions by name for a traced run (`bench/run.py
--trace 1`).  A deletion or rename that would break it fails here, without
running a workload.
"""

import importlib
import importlib.util
from pathlib import Path

from spincavity import spin_models

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_its_module():
    missing = [
        f"{module}.{name}"
        for module, names in _tracer().TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"spincavity.{module}"), name, None))
    ]
    assert missing == []


def test_every_builder_is_a_spin_models_attribute():
    # the tracer re-binds each _BUILDERS entry to the attribute of that name
    for builder in spin_models._BUILDERS.values():
        assert getattr(spin_models, builder.__name__) is builder
