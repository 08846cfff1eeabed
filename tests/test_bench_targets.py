"""The benchmark's tracer (perfbench/tracer.py) installs its shims by name
with ``vars(owner)[attr]``, so renaming or deleting a traced function would
make every traced benchmark run raise KeyError.  This checks each name."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_defined_on_its_owner():
    tracer = _load_tracer()
    assert tracer.TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracer.TARGETS if attr not in vars(owner)]
    assert not missing, f"traced names no longer defined: {missing}"
