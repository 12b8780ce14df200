"""Passive learning: reconstruct the reward machine of a fixed policy.

All rollout traces are recorded into one observation table; every
nonempty suffix of a trace's label word becomes an experiment (capped in
length), well-sampled prefixes seed the state rows, and the table is
then closed and made consistent on the frozen data before hypothesis
construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .alphabet import EPSILON, label_sort_key, word_str
from .environment import Nmdp, check_count, check_terminal_labels, collect_traces
from .machine import Prm
from .table import ObservationTable, build_hypothesis, repair_on_frozen_data


MAX_STATES = 500
MAX_EXPERIMENT_LEN = 12


@dataclass
class PassiveConfig:
    n_check: int
    n_episode: int = 100
    terminal_labels: object = None   # when given, must equal the environment's
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        check_count(self.n_check, "n_check", positive=True)
        check_count(self.n_episode, "n_episode", positive=True)
        check_count(self.seed, "seed")
        check_count(self.jobs, "jobs", positive=True)


@dataclass
class PassiveReport:
    episodes: int = 0
    dropped_suffixes: int = 0
    notes: list = field(default_factory=list)


@dataclass
class PassiveResult:
    table: ObservationTable
    hypothesis: Prm
    report: PassiveReport


def learn_passive_from_traces(traces, ap, cfg: PassiveConfig, alphabet=None) -> PassiveResult:
    """Algorithm core over pre-recorded traces of hashable (label, reward)
    pairs, as `run_episode` and `load_traces` give.  A label with a
    proposition outside `ap`, or traces without a single step, raise ValueError."""
    if not any(traces):
        raise ValueError("need at least one trace with a step, got %d traces" % len(traces))
    report = PassiveReport(episodes=len(traces))
    # each distinct trace in first-seen order, recorded once with its count
    distinct = Counter(map(tuple, traces))
    observed = sorted({label for trace in distinct for label, _ in trace}, key=label_sort_key)
    for label in observed:
        ap.validate_label(label)
    table = ObservationTable(ap, observed if alphabet is None else alphabet)

    seen = set()   # the ids of the label words seen: their suffixes are in E already
    for trace, count in distinct.items():
        node = table.record(trace, count)
        # the suffixes longer than the cap are the first ones
        first = max(len(trace) - MAX_EXPERIMENT_LEN, 0)
        report.dropped_suffixes += first * count
        if node not in seen:
            seen.add(node)
            word = tuple(label for label, _ in trace)
            # E is closed under suffixes here: the rest are in E already
            for k in range(first, len(word)):
                if not table.add_experiment(word[k:]):
                    break

    # Seed S with every prefix sampled at least n_check times: rows without
    # enough data would be routed to the failure state anyway, and the seed
    # stops sparse rows from collapsing into one vacuously compatible class.
    seeds = sorted(
        table.sampled_words(cfg.n_check),
        key=lambda w: (len(w), word_str(w)),
    )
    for w in seeds:
        if len(table.s) >= MAX_STATES:
            report.notes.append("state seeding stopped at max_states=%d" % MAX_STATES)
            break
        table.add_state(w)

    repair_on_frozen_data(table)
    hypothesis = build_hypothesis(table, cfg.n_check)
    return PassiveResult(table=table, hypothesis=hypothesis, report=report)


def learn_passive(m: Nmdp, policy, episodes: int, cfg: PassiveConfig) -> PassiveResult:
    """Roll out `episodes` episodes under the policy, each ending on m's
    terminal labels, then learn from them."""
    check_terminal_labels(m, cfg.terminal_labels)
    traces = collect_traces(m, policy, episodes, cfg.seed, cfg.n_episode, jobs=cfg.jobs)
    return learn_passive_from_traces(traces, m.ap, cfg, alphabet=m.label_alphabet())
