"""The benchmark tracer wraps functions by name: every (owner, attribute)
it lists must exist, or `bench/run.py --trace 1` fails with a KeyError."""

import importlib.util
from pathlib import Path

import prmlearn
from prmlearn import active, environment
from prmlearn.active import LearnerConfig, learn_active
from prmlearn.environment import load_env_config

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PATROL = Path(prmlearn.__file__).resolve().parent / "assets" / "patrol.yaml"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = ["%s.%s" % (owner.__name__, attr) for owner, attr, _ in tracer.TARGETS
               if attr not in vars(owner)]
    assert missing == []


def test_every_learner_step_calls_the_wrapped_step(monkeypatch):
    # the traced bench checks that environment.step calls equal the steps
    # the table recorded: a step taken without the module global escapes it
    calls = []
    for module in (active, environment):
        original = module.step
        monkeypatch.setattr(module, "step",
                            lambda *args, original=original: calls.append(1) or original(*args))
    env = load_env_config(PATROL)
    cfg = LearnerConfig(n_check=20, n_query=50, n_stop=3, n_episode=env.n_episode, seed=1)
    result = learn_active(env.nmdp, cfg)
    assert result.table.total_samples() > 0
    assert len(calls) == result.table.total_samples()
