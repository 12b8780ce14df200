"""The benchmark tracer wraps functions by name: every (owner, attribute)
it lists must exist, or `bench/run.py --trace 1` fails with a KeyError."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = ["%s.%s" % (owner.__name__, attr) for owner, attr, _ in tracer.TARGETS
               if attr not in vars(owner)]
    assert missing == []
