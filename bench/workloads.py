"""The benchmark's workloads: set-up, one op, and the op's checks.

An op is one call into the library: one `learn_active` run, one
`learn_passive` run, or one `encoding_distance` check.  `call` makes it,
through module attributes (`active.learn_active`, ...) so that the traced
pass sees the wrappers it installs there; `outcome` reads the counters off
the result and checks it, outside the timed and traced call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import prmlearn
from prmlearn import active, passive, verify
from prmlearn.environment import load_env_config, uniform_policy
from prmlearn.machine import Prm, UnreachableWordError, prm_from_text, prm_to_text

OFFICE = Path(prmlearn.__file__).resolve().parent / "assets" / "office.yaml"
COFFEE, OFFICE_CELL = frozenset({"c"}), frozenset({"o"})
# the office truth pays 1 on `o` after `c` with probability 0.9
TRUE_SPLIT = 0.9
SPLIT_GATE = 0.05          # acceptance-4 gate on |p̂ - 0.9| ...
SPLIT_PASS_SHARE = 0.8     # ... met by at least 8 op seeds in 10
ROW_TOL = 1e-9
VERIFY_MAX_LEN = 5
VERIFY_WORDS = 37_448      # truth-realizable office words of length 1..5
VERIFY_TOL = 1e-12


@dataclass
class Outcome:
    """What one op produced.  `counters` are exact for a given op seed."""

    hypothesis: Prm
    counters: dict
    work: int                 # env steps, or words checked
    split_err: float | None = None
    failures: list = field(default_factory=list)

    def fingerprint(self) -> dict:
        digest = hashlib.sha256(prm_to_text(self.hypothesis).encode("utf-8")).hexdigest()
        return {"sha256": digest, **self.counters}


@dataclass
class Workload:
    name: str
    batch: int                # op seeds per round
    work_unit: str            # name of the throughput metric
    setup: object             # op seeds -> context
    call: object              # (context, op seed) -> library result
    outcome: object           # (context, library result) -> Outcome
    split_gate: bool = False  # hold the batch to the acceptance-4 gate


def op_seeds(seed: int, batch: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(batch)]


def split_error(h: Prm) -> float:
    """|p̂(reward 1 | c then o) - 0.9|; a machine on which `c` then `o` is
    unreachable never pays, so its p̂ is 0."""
    try:
        p = h.next_reward_distribution((COFFEE,), OFFICE_CELL).get(1.0, 0.0)
    except UnreachableWordError:
        p = 0.0
    return abs(p - TRUE_SPLIT)


def row_failures(h: Prm) -> list:
    """A learned machine must be total with stochastic successor rows."""
    if not h.is_total():
        return ["hypothesis is not total"]
    for y in range(h.n_states()):
        for label in h.ap.labels():
            vec = h.successor_vector(y, label)
            if np.any(vec < 0.0) or abs(float(vec.sum()) - 1.0) > ROW_TOL:
                return ["row (%s, %s) is not a distribution" % (h.states[y], sorted(label))]
    return []


# -- active-office -------------------------------------------------------------


def setup_office(seeds):
    return load_env_config(OFFICE)


def active_call(env, seed: int):
    cfg = active.LearnerConfig(n_check=200, n_query=500, n_stop=50, n_episode=100, seed=seed)
    return active.learn_active(env.nmdp, cfg, env.terminal_labels)


def active_outcome(env, result) -> Outcome:
    report, table = result.report, result.table
    steps = table.total_samples()   # every teacher episode is recorded
    out = Outcome(
        hypothesis=result.hypothesis,
        counters={
            "env_steps": steps,
            "episodes": report.total_membership_episodes + report.total_equivalence_episodes,
            "table.words": len(table.t),
            "table.S": len(table.s),
            "table.E": len(table.e),
            "active.mq.episodes": report.total_membership_episodes,
            "active.eq.episodes": report.total_equivalence_episodes,
            "active.counterexamples": report.total_counterexamples,
            "active.rounds": len(report.rounds),
        },
        work=steps,
        # gated over the batch, not per op: see split_gate_problems
        split_err=split_error(result.hypothesis),
    )
    out.failures.extend(row_failures(result.hypothesis))
    return out


def split_gate_problems(outcomes) -> list:
    """Acceptance-4 over a batch: at least 80% of its op seeds learn a
    split within 0.05 of 0.9.  The learner misses on about one seed in a
    hundred, so the gate is on the share, as in the acceptance test."""
    misses = sorted(seed for seed, o in outcomes.items() if not o.split_err <= SPLIT_GATE)
    if len(misses) <= (1.0 - SPLIT_PASS_SHARE) * len(outcomes):
        return []
    return ["acceptance-4: %d of %d op seeds have a split error above %.2f: %s"
            % (len(misses), len(outcomes), SPLIT_GATE, misses)]


# -- passive-uniform -----------------------------------------------------------


def setup_passive(seeds):
    env = load_env_config(OFFICE)
    return env, uniform_policy(env.nmdp)


def passive_call(ctx, seed: int):
    env, policy = ctx
    cfg = passive.PassiveConfig(
        n_check=100, n_episode=env.n_episode, terminal_labels=env.terminal_labels,
        seed=seed, jobs=1,
    )
    return passive.learn_passive(env.nmdp, policy, 1000, cfg)


def passive_outcome(ctx, result) -> Outcome:
    table = result.table
    steps = table.total_samples()
    out = Outcome(
        hypothesis=result.hypothesis,
        counters={
            "env_steps": steps,
            "episodes": result.report.episodes,
            "table.words": len(table.t),
            "table.S": len(table.s),
            "table.E": len(table.e),
            "passive.dropped_suffixes": result.report.dropped_suffixes,
        },
        work=steps,
        # not gated: the passive learner's known defect is reported, not hidden
        split_err=split_error(result.hypothesis),
    )
    out.failures.extend(row_failures(result.hypothesis))
    return out


# -- verify-encoding -------------------------------------------------------------


def equal_copy(truth: Prm, seed: int) -> Prm:
    """The truth read back from its text with the edge lines shuffled, so
    its states come in a seed-dependent order: a machine that a perfect
    learner could return."""
    lines = prm_to_text(truth).splitlines()
    head = [line for line in lines if "-->" not in line]
    edges = [line for line in lines if "-->" in line]
    order = np.random.default_rng(seed).permutation(len(edges))
    return prm_from_text("\n".join(head + [edges[i] for i in order]) + "\n")


def setup_verify(seeds):
    truth = load_env_config(OFFICE).truth
    return truth, {seed: equal_copy(truth, seed) for seed in seeds}


def verify_call(ctx, seed: int):
    truth, copies = ctx
    return copies[seed], verify.encoding_distance(copies[seed], truth, VERIFY_MAX_LEN)


def verify_outcome(ctx, result) -> Outcome:
    h, report = result
    out = Outcome(
        hypothesis=h,
        counters={
            "verify.words_checked": report.words_checked,
            "verify.bottom_words": len(report.bottom_words),
        },
        work=report.words_checked,
    )
    if not report.distance <= VERIFY_TOL:
        out.failures.append("distance %r above %g" % (report.distance, VERIFY_TOL))
    if report.words_checked != VERIFY_WORDS:
        out.failures.append("%d words checked, expected %d" % (report.words_checked, VERIFY_WORDS))
    if report.bottom_words:
        out.failures.append("%d words absorbed by the failure state" % len(report.bottom_words))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("active-office", batch=12, work_unit="steps_per_s",
                 setup=setup_office, call=active_call, outcome=active_outcome, split_gate=True),
        Workload("passive-uniform", batch=8, work_unit="steps_per_s",
                 setup=setup_passive, call=passive_call, outcome=passive_outcome),
        Workload("verify-encoding", batch=1, work_unit="words_per_s",
                 setup=setup_verify, call=verify_call, outcome=verify_outcome),
    )
}
