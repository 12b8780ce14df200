"""Every benchmark workload runs one op through the library and passes its
own checks: a library change that breaks a call `bench/` makes fails
here, not only in the benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from prmlearn import active, environment

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


@pytest.mark.parametrize("name", ["active-office", "passive-uniform"])
def test_every_environment_step_is_recorded_and_an_op_repeats(name, monkeypatch):
    # The traced benchmark run wraps `environment.step` and `active.step`,
    # requires their calls to equal the recorded steps, and requires a
    # traced op to give the timed op's fingerprint: a rollout that steps
    # without those names, or records other steps than it takes, fails
    # here too.
    calls = [0]
    original = environment.step

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(environment, "step", counted)
    monkeypatch.setattr(active, "step", counted)
    workload = workloads.WORKLOADS[name]
    seeds = workloads.op_seeds(1, 1)
    ctx = workload.setup(seeds)
    first = workload.outcome(ctx, workload.call(ctx, seeds[0]))
    assert calls[0] == first.counters["env_steps"] > 0
    again = workload.outcome(ctx, workload.call(ctx, seeds[0]))
    assert again.fingerprint() == first.fingerprint()
