"""Every benchmark workload runs one op through the library and passes its
own checks: a library change that breaks a call `bench/` makes fails
here, not only in the benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_of_each_workload_passes_its_checks(name):
    workload = workloads.WORKLOADS[name]
    seeds = workloads.op_seeds(1, 1)
    ctx = workload.setup(seeds)
    outcome = workload.outcome(ctx, workload.call(ctx, seeds[0]))
    assert outcome.failures == []
