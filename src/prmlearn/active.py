"""RL-primed active learning of probabilistic reward machines.

Membership queries are answered by priming a tabular Q-learner on the
product of the environment with a membership reward machine; equivalence
queries run a Q-learner against the current hypothesis and watch for
trace prefixes that contradict it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import EPSILON, Word, label_str, word_str
from .environment import (
    Nmdp, check_count, check_terminal_labels, membership_reward_machine, step, word_realizable,
)
# sample_index and diff_against_distribution are unused here; the benchmark tracer wraps
# them, and is_counterexample, which equivalence_query calls through this module's global
from .machine import Prm, Stream, draw_row, sample_index  # noqa: F401
from .table import ObservationTable, build_hypothesis, diff_against_distribution, is_counterexample  # noqa: F401
from .table import repair_step


MAX_ROUNDS = 500
MAX_REPAIRS_PER_ROUND = 100
LEARN_RATE = 0.5
DISCOUNT = 0.9
EXPLORE = 0.1


@dataclass
class LearnerConfig:
    n_check: int
    n_query: int
    n_stop: int
    n_episode: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n_check", "n_query", "n_stop", "n_episode"):
            check_count(getattr(self, name), name, positive=True)
        check_count(self.seed, "seed")


def teacher_episodes(q: list, m: Nmdp, h: Prm, mode: str, cfg: LearnerConfig, rng):
    """Q-learning episodes on the implicit product of m and h, one per
    `next()`, which returns the episode's trace of (environment label,
    environment reward) pairs and updates q in place: `q[y][x]` holds the
    values at machine state y of the actions of `m.available[x]`, in that
    order; it is None until visited and starts at zeros.  In membership mode
    the update target uses the machine reward; in equivalence mode it uses
    the environment reward, and the machine is only advanced.  An episode
    ends after n_episode steps or on one of m's terminal labels.  The mode
    is checked at the call; nothing is drawn before an episode is asked for."""
    if mode not in ("membership", "equivalence"):
        raise ValueError("unknown query mode %r" % (mode,))
    return _episodes(q, m, h, mode == "membership", cfg, rng)


def _episodes(rows: list, m: Nmdp, h: Prm, membership: bool, cfg: LearnerConfig, rng):
    labels = m.label_alphabet()   # by label index, as step numbers them
    terminal = [label in m.terminal_labels for label in labels]
    available = m.available
    explore, learn_rate, discount, n_episode = EXPLORE, LEARN_RATE, DISCOUNT, cfg.n_episode
    h_steps = [[None] * len(labels) for _ in h.states]   # h's compiled steps by (state, label index), filled on use
    rows.extend([None] * len(available) for _ in range(len(rows), len(h.states)))
    x_init, y_init, z_init = m.x_init, h.init, m.truth.init   # z: the truth's state
    while True:
        x, y, z, actions = x_init, y_init, z_init, available[x_init]
        row = rows[y][x] = rows[y][x] or [0.0] * len(actions)   # the Q-values of (y, x), updated in place
        best, trace = None, []   # best: the greedy maximum of row, carried from the last update
        for _ in range(n_episode):
            # epsilon-greedy on k, the position of the action in `actions` and in row
            if explore > 0.0 and rng.random() < explore:
                k = rng.integers(0, len(row))
            else:
                if best is None:
                    best = max(row)
                ties = row.count(best)
                if ties == 1:
                    k = row.index(best)
                elif ties == len(row):
                    # break ties randomly: a fixed tie-break turns a flat Q-table into a
                    # wall-hugging policy and starves exploration
                    k = rng.integers(0, ties)
                else:
                    k = [j for j, value in enumerate(row) if value == best][rng.integers(0, ties)]
            x_next, z, pair, i = step(m, x, z, actions[k], rng)
            h_step = h_steps[y][i]
            if h_step is None:
                h_step = h_steps[y][i] = h.compiled_step(y, labels[i])
            h_row, emits = h_step
            y_next = h_row if h_row.__class__ is int else draw_row(h_row, rng)
            target = emits[y_next][1] if membership else pair[1]
            row_next = rows[y_next][x_next]
            if row_next is None:
                row_next = rows[y_next][x_next] = [0.0] * len(available[x_next])
            best_next = max(row_next)
            row[k] = (1.0 - learn_rate) * row[k] + learn_rate * (target + discount * best_next)
            trace.append(pair)
            # a self-loop's update has just written the next row: its maximum is stale
            best = None if row_next is row else best_next
            x, y, row, actions = x_next, y_next, row_next, available[x_next]
            if terminal[i]:
                break
        yield trace


def teacher_query(q: list, m: Nmdp, h: Prm, mode: str, cfg: LearnerConfig, rng):
    """One episode's trace, `next(teacher_episodes(...))`; the learner draws from one generator per query."""
    return next(teacher_episodes(q, m, h, mode, cfg, rng))


def membership_query(table: ObservationTable, zeta: Word, m: Nmdp, q_m: list,
                     cfg: LearnerConfig, rng) -> int:
    """Prime the RL teacher toward realizing `zeta`; every episode trace is
    recorded.  Returns the number of episodes run."""
    if not zeta or not word_realizable(m, zeta):
        # provably not a trace prefix of any episode: priming would burn
        # the whole n_query budget for nothing
        return 0
    q_m.clear()  # machine shape changes with every query word
    teacher = teacher_episodes(q_m, m, membership_reward_machine(m.ap, zeta), "membership", cfg, rng)
    episodes = 0
    # zeta is not empty, so its sample count is its id's total; an id,
    # once made, stays, so it is looked up again only until it exists
    node = table.row(zeta)
    while table.samples(node) < cfg.n_check and episodes < cfg.n_query:
        table.record(next(teacher))
        episodes += 1
        if node is None:
            node = table.row(zeta)
    return episodes


def equivalence_query(table: ObservationTable, m: Nmdp, q_h: list, hypothesis: Prm,
                      cfg: LearnerConfig, rng):
    """Run equivalence-mode teacher episodes against the hypothesis until a
    counterexample appears or n_stop episodes elapse.  Returns
    (counterexample word or None, episodes run)."""
    teacher = teacher_episodes(q_h, m, hypothesis, "equivalence", cfg, rng)
    steps = {}  # is_counterexample's memo of hypothesis steps
    for episodes, trace in zip(range(1, cfg.n_stop + 1), teacher):   # range first: none drawn past n_stop
        table.record(trace)
        ce = is_counterexample(table, hypothesis, trace, cfg.n_check, steps)
        if ce is not None:
            return ce, episodes
    return None, cfg.n_stop


@dataclass
class RoundStats:
    round: int
    membership_episodes: int
    equivalence_episodes: int
    counterexample: str | None
    n_s: int
    n_e: int


@dataclass
class ActiveReport:
    rounds: list = field(default_factory=list)
    total_membership_episodes: int = 0
    total_equivalence_episodes: int = 0
    total_counterexamples: int = 0
    truncated: bool = False

    def render(self) -> str:
        lines = []
        for r in self.rounds:
            lines.append(
                "round %d: membership_episodes=%d equivalence_episodes=%d "
                "counterexample=%s |S|=%d |E|=%d"
                % (
                    r.round,
                    r.membership_episodes,
                    r.equivalence_episodes,
                    r.counterexample if r.counterexample is not None else "-",
                    r.n_s,
                    r.n_e,
                )
            )
        lines.append(
            "totals: membership_episodes=%d equivalence_episodes=%d counterexamples=%d rounds=%d%s"
            % (
                self.total_membership_episodes,
                self.total_equivalence_episodes,
                self.total_counterexamples,
                len(self.rounds),
                " (truncated by max_rounds)" if self.truncated else "",
            )
        )
        return "\n".join(lines) + "\n"


@dataclass
class ActiveResult:
    hypothesis: Prm
    table: ObservationTable
    report: ActiveReport


def learn_active(m: Nmdp, cfg: LearnerConfig, terminal_labels=None) -> ActiveResult:
    """The outer active-learning loop: repair the table with membership
    queries until closed and consistent, pose an equivalence query, feed
    counterexample prefixes back into S, and stop after n_stop
    consecutive counterexample-free equivalence rounds.  Episodes end on
    m's terminal labels; `terminal_labels`, when given, must equal them."""
    check_terminal_labels(m, terminal_labels)
    rng = Stream(np.random.PCG64(cfg.seed))   # the draws of default_rng(cfg.seed)
    alphabet = m.label_alphabet()
    table = ObservationTable(m.ap, alphabet)
    q_m, q_h = [], []   # the teacher's Q-values, as teacher_episodes lays them out
    report = ActiveReport()
    hypothesis = None
    last_shape = None
    clean_rounds = 0

    extensions = [EPSILON] + [(label,) for label in alphabet]
    exhausted = set()  # words that already received a full n_query budget unrealized

    def fill_table() -> int:
        episodes = 0
        for s in [table.word(i) for i in table.s]:
            for x in extensions:
                for e in list(table.e):
                    zeta = s + x + e
                    if not zeta or zeta in exhausted:
                        continue
                    if table.sample_count(zeta) >= cfg.n_check:
                        continue
                    used = membership_query(table, zeta, m, q_m, cfg, rng)
                    episodes += used
                    if table.sample_count(zeta) < cfg.n_check:
                        exhausted.add(zeta)
        return episodes

    for round_no in range(1, MAX_ROUNDS + 1):
        membership_episodes = 0
        for _ in range(MAX_REPAIRS_PER_ROUND):
            membership_episodes += fill_table()
            if not repair_step(table):
                break

        hypothesis = build_hypothesis(table, cfg.n_check)
        if hypothesis.n_states() != last_shape:
            q_h.clear()
            last_shape = hypothesis.n_states()
        ce, eq_episodes = equivalence_query(table, m, q_h, hypothesis, cfg, rng)
        report.rounds.append(
            RoundStats(
                round=round_no,
                membership_episodes=membership_episodes,
                equivalence_episodes=eq_episodes,
                counterexample=None if ce is None else word_str(ce),
                n_s=len(table.s),
                n_e=len(table.e),
            )
        )
        report.total_membership_episodes += membership_episodes
        report.total_equivalence_episodes += eq_episodes
        if ce is None:
            clean_rounds += 1
            if clean_rounds >= cfg.n_stop:
                break
        else:
            clean_rounds = 0
            report.total_counterexamples += 1
            for k in range(1, len(ce) + 1):
                table.add_state(ce[:k])
    else:
        report.truncated = True

    return ActiveResult(hypothesis=hypothesis, table=table, report=report)
