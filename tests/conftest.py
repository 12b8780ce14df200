"""Shared fixtures and generators for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from prmlearn import (
    Alphabet,
    EMPTY_LABEL,
    Nmdp,
    Prm,
    coffee_prm,
    patrol_prm,
)
from prmlearn.alphabet import label_sort_key, label_str, word_str
from prmlearn.environment import step
from prmlearn.machine import draw_row, unit_vector
from prmlearn.passive import MAX_EXPERIMENT_LEN, MAX_STATES
from prmlearn.table import ObservationTable, build_hypothesis, diff_against_distribution, repair_on_frozen_data

C = frozenset({"c"})
O = frozenset({"o"})
STAR = frozenset({"*"})


@pytest.fixture
def coffee():
    return coffee_prm()


@pytest.fixture
def patrol():
    return patrol_prm()


def machine_run(prm, word, rng) -> list:
    """[(state entered, reward), ...] of one run of `prm` reading `word`,
    drawn as `step` draws the truth's successors."""
    y, run = prm.init, []
    for label in word:
        row, emits = prm.compiled_step(y, label)
        y = draw_row(row, rng)
        run.append((y, emits[y][1]))
    return run


def single_state_zero_prm(props=("a",)):
    """One state, reward 0 on every label."""
    ap = Alphabet(props)
    tau = {(0, label): np.ones(1) for label in ap.labels()}
    rho = {(0, label, 0): 0.0 for label in ap.labels()}
    return Prm(ap, [0.0], ["y0"], 0, tau, rho)


def edges_of(tau) -> list:
    """Every edge (y, label, y') of positive probability."""
    return [(y, label, int(j)) for (y, label), vec in tau.items() for j in np.flatnonzero(vec)]


def successor_rewards(tau, tags) -> dict:
    """rho of a machine whose edges pay the reward of the state they
    enter, `tags[y']`: the edges of one pair can pay different rewards."""
    return {(y, label, j): tags[j] for y, label, j in edges_of(tau)}


def dyadic_vector(rng, n, grain=64):
    """A probability vector whose entries are multiples of 1/grain."""
    cuts = sorted(rng.integers(0, grain + 1, size=n - 1).tolist())
    return np.diff([0] + cuts + [grain]).astype(float) / grain


def random_prm(rng, n_states: int, props, rewards, *, dyadic: bool = False) -> Prm:
    """A random total machine.  With `dyadic` every probability is a
    multiple of 1/64, so products with dyadic factors stay exact."""
    ap = Alphabet(props)
    rewards = [float(r) for r in rewards]
    names = ["y%d" % i for i in range(n_states)]
    tau, rho = {}, {}
    for y in range(n_states):
        for label in ap.labels():
            if dyadic:
                vec = dyadic_vector(rng, n_states)
            else:
                vec = rng.random(n_states) + 1e-3
                vec = vec / vec.sum()
            tau[(y, label)] = vec
            reward = rewards[int(rng.integers(0, len(rewards)))]
            rho.update(((y, label, int(j)), reward) for j in np.flatnonzero(vec))
    return Prm(ap, rewards, names, 0, tau, rho)


def probability_vectors(n):
    """A hypothesis strategy of probability vectors of length n:
    deterministic, dyadic and non-dyadic."""
    deterministic = st.integers(0, n - 1).map(lambda i: unit_vector(n, i))
    dyadic = st.lists(st.integers(0, 64), min_size=n - 1, max_size=n - 1).map(
        lambda cuts: np.diff([0] + sorted(cuts) + [64]).astype(float) / 64
    )
    non_dyadic = st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n).map(
        lambda parts: np.array(parts) / sum(parts)
    )
    return st.one_of(deterministic, dyadic, non_dyadic)


def random_nmdp(rng, n_states=3, n_actions=2, props=("a",), *, dyadic=False, truth=None, available=None,
                terminal_labels=()):
    """A random NMDP with random transition labels and a row for every
    action at every state; every action is available everywhere unless
    `available` lists the actions of each state.  The reward source
    defaults to a zero machine."""
    ap = Alphabet(props)
    labels = ap.labels()
    p, labeling = {}, {}
    for x in range(n_states):
        for a in range(n_actions):
            if dyadic:
                vec = dyadic_vector(rng, n_states)
            else:
                vec = rng.random(n_states) + 1e-3
                vec = vec / vec.sum()
            p[(x, a)] = vec
            for j in np.flatnonzero(vec):
                labeling[(x, a, int(j))] = labels[int(rng.integers(0, len(labels)))]
    if truth is None:
        truth = single_state_zero_prm(props)
    return Nmdp(
        states=tuple("x%d" % i for i in range(n_states)),
        x_init=0,
        actions=tuple("a%d" % i for i in range(n_actions)),
        available=available or [list(range(n_actions)) for _ in range(n_states)],
        p=p,
        labeling=labeling,
        truth=truth,
        terminal_labels=terminal_labels,
    )


def free_nmdp(truth):
    """One state per label plus an initial state; action k moves to the
    state emitting label k.  Every label word is realizable."""
    labels = truth.ap.labels()
    n = len(labels) + 1
    names = ("x_init",) + tuple("x_%s" % label_str(l) for l in labels)
    p, labeling = {}, {}
    available = [list(range(len(labels))) for _ in range(n)]
    for x in range(n):
        for a, label in enumerate(labels):
            p[(x, a)] = unit_vector(n, a + 1)
            labeling[(x, a, a + 1)] = label
    return Nmdp(
        states=names,
        x_init=0,
        actions=tuple("goto_%s" % label_str(l) for l in labels),
        available=available,
        p=p,
        labeling=labeling,
        truth=truth,
    )


def two_cell_nmdp(truth, terminal_labels=()):
    """1x2 grid "Ac": action 0 stays (label empty), action 1 toggles the
    cell, entering the marked cell emits {c}."""
    c = frozenset({"c"})
    p = {
        (0, 0): unit_vector(2, 0),
        (0, 1): unit_vector(2, 1),
        (1, 0): unit_vector(2, 1),
        (1, 1): unit_vector(2, 0),
    }
    labeling = {
        (0, 0, 0): EMPTY_LABEL,
        (0, 1, 1): c,
        (1, 0, 1): c,
        (1, 1, 0): EMPTY_LABEL,
    }
    return Nmdp(
        states=("left", "right"),
        x_init=0,
        actions=("stay", "move"),
        available=[[0, 1], [0, 1]],
        p=p,
        labeling=labeling,
        truth=truth,
        terminal_labels=terminal_labels,
    )


def q_value(q, m, y, x, a) -> float:
    """The Q-value of (y, x, a) in a QTable on m, read at a's position in
    `m.available[x]`; an unvisited row reads as zeros."""
    row = q.rows[y][x] if y < len(q.rows) else None
    return row[m.available[x].index(a)] if row else 0.0


def q_values(q, m) -> dict:
    """{(y, x, a): value} over the visited rows of a QTable on m."""
    return {(y, x, m.available[x][k]): value for y, xs in enumerate(q.rows)
            for x, row in enumerate(xs) if row for k, value in enumerate(row)}


def greedy_action(q, m, y, x) -> int:
    """The best action available at x in the Q-table at (y, x); the lowest index wins ties."""
    return max(m.available[x], key=lambda a: (q_value(q, m, y, x, a), -a))


def rollout_greedy(q, m, h, n_episode, rng):
    """Greedy (explore=0) rollout, ending on m's terminal labels; returns
    the trace and the total machine reward collected along it."""
    terminal = m.terminal_labels
    x, y, z = m.x_init, h.init, m.truth.init   # z: the truth's state
    trace = []
    total_machine_reward = 0.0
    for _ in range(n_episode):
        a = greedy_action(q, m, y, x)
        x_next, z, (label, r), i = step(m, x, z, a, rng)
        assert m.label_alphabet()[i] == label   # step numbers the label by its place there
        y_next = draw_row(h.compiled_step(y, label)[0], rng)
        total_machine_reward += h.edge_reward(y, label, y_next)
        trace.append((label, r))
        x, y = x_next, y_next
        if label in terminal:
            break
    return trace, total_machine_reward


def ref_is_counterexample(table, h, trace, n_check, tests=None):
    """is_counterexample without the memo of hypothesis steps, walking every
    prefix of the trace; `tests` counts its Hoeffding tests."""
    m_total = max(table.total_samples(), 1)
    vec = h.initial_vector()
    word = []
    for label, _ in trace:
        vec, expected = h.advance(vec, label)
        word.append(label)
        prefix = tuple(word)
        if h.bottom is not None and vec[h.bottom] >= 1.0 - 1e-12:
            if table.sample_count(prefix) >= n_check:
                return prefix
            continue
        freq = table.freq(prefix)
        if sum(freq.values()) > 0 and expected:
            if tests is not None:
                tests.append(prefix)
            if diff_against_distribution(freq, expected, m_total):
                return prefix
    return None


def ref_learn_passive(traces, ap, n_check: int):
    """`learn_passive_from_traces` step by step, with one record call per
    trace and every suffix up to the cap offered to E, each time: returns
    (the table, the dropped suffixes, the hypothesis)."""
    observed = sorted({label for trace in traces for label, _ in trace}, key=label_sort_key)
    table, dropped = ObservationTable(ap, observed), 0
    for trace in traces:
        table.record(trace)
        word = tuple(label for label, _ in trace)
        first = max(len(word) - MAX_EXPERIMENT_LEN, 0)
        dropped += first
        for k in range(first, len(word)):
            table.add_experiment(word[k:])
    for w in sorted(table.sampled_words(n_check), key=lambda w: (len(w), word_str(w))):
        if len(table.s) >= MAX_STATES:
            break
        table.add_state(w)
    repair_on_frozen_data(table)
    return table, dropped, build_hypothesis(table, n_check)
