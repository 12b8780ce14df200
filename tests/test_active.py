import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prmlearn
import prmlearn.table

from prmlearn import (
    Alphabet,
    LearnerConfig,
    Nmdp,
    ObservationTable,
    QTable,
    coffee_prm,
    learn_active,
    membership_reward_machine,
    patrol_prm,
)
from prmlearn import active
from prmlearn.active import (
    equivalence_query,
    is_counterexample,
    membership_query,
    teacher_episodes,
    teacher_query,
)
from prmlearn.alphabet import EMPTY_LABEL
from prmlearn.environment import load_env_config, word_realizable
from prmlearn.machine import (
    Prm,
    Stream,
    UndefinedTransitionError,
    draw_row,
    prm_from_text,
    prm_to_text,
    sample_index,
)
from prmlearn.table import _differ, build_hypothesis, repair_on_frozen_data

from conftest import (
    C,
    O,
    free_nmdp,
    greedy_action,
    random_nmdp,
    random_prm,
    ref_is_counterexample,
    rollout_greedy,
    single_state_zero_prm,
    successor_rewards,
    two_cell_nmdp,
)

ASSETS = Path(prmlearn.__file__).resolve().parent / "assets"
OFFICE = ASSETS / "office.yaml"


def config(**kw):
    base = dict(n_check=30, n_query=100, n_stop=10, n_episode=10, seed=0)
    base.update(kw)
    return LearnerConfig(**base)


# -- configuration validation -------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"n_check": 0},
        {"n_query": -1},
        {"n_stop": 0},
        {"n_episode": 0},
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        config(**kw)


# -- Q-table and action selection ------------------------------------------------


def test_qtable_defaults_and_greedy():
    q = QTable()
    assert greedy_action(q, 0, 0, [1, 0]) == 0  # a missing row reads as zeros: lowest index
    assert q.row(0, 0, 2) == [0.0, 0.0]
    q.row(0, 0, 2)[1] = 2.5
    assert q.rows == {(0, 0): [0.0, 2.5]}
    assert greedy_action(q, 0, 0, [0, 1]) == 1
    q.row(0, 0, 2)[0] = 2.5
    assert greedy_action(q, 0, 0, [1, 0]) == 0  # ties go to the lowest index
    q.reset()
    assert q.row(0, 0, 2) == [0.0, 0.0]


# The ε-greedy choice sits inside teacher_query's loop.  A one-step
# episode of choice_nmdp shows it: action k emits the k-th label, and the
# environment, its truth and the machine draw nothing, so every draw is the
# choice's.

# (actions, whole): the row read whole, a strict subset of its actions,
# and every action out of index order
CHOICES = [([0, 1, 2, 3], True), ([3, 1, 2], False), ([2, 0, 1, 3], False)]


def choice_nmdp(actions):
    """free_nmdp on two propositions (four labels, four actions), offering
    only `actions`, in that order, at its initial state."""
    m = free_nmdp(single_state_zero_prm(("a", "b")))
    return Nmdp(states=m.states, x_init=0, actions=m.actions, available=[list(actions)] + m.available[1:],
                p=m.p, labeling=m.labeling, truth=m.truth)


def choose(m, row, rng):
    """The action of a one-step episode on m from a Q row seeded with `row`."""
    q = QTable()
    q.rows[(0, 0)] = list(row)
    (label, _), = teacher_query(q, m, m.truth, "equivalence", config(n_episode=1), rng)
    return m.truth.ap.labels().index(label)


def test_epsilon_greedy_breaks_ties_randomly(monkeypatch):
    monkeypatch.setattr(active, "EXPLORE", 0.0)
    rng = np.random.default_rng(0)
    for actions, whole in CHOICES:
        m = choice_nmdp(actions)
        picks = {choose(m, [0.0] * 4, rng) for _ in range(200)}
        assert picks == set(actions)  # a flat table must not collapse onto one action


def test_epsilon_greedy_exploits_a_clear_winner(monkeypatch):
    monkeypatch.setattr(active, "EXPLORE", 0.0)
    # the best value is at 0, which the subset does not offer
    row = [5.0, 0.0, 1.0, 0.0]
    rng = np.random.default_rng(0)
    for actions, whole in CHOICES:
        m = choice_nmdp(actions)
        picks = {choose(m, row, rng) for _ in range(50)}
        assert picks == ({0} if 0 in actions else {2})


def test_epsilon_greedy_matches_the_reference_draws(monkeypatch):
    # some actions tie; a row of equal values; a subset of actions whose
    # values tie while the row's others do not
    cases = [([1.0, 0.5, 1.0, 1.0], CHOICES), ([0.25] * 4, CHOICES),
             ([1.0, 0.5, 1.0, 1.0], [([3, 0], False), ([2, 3, 0], False)])]
    for row, choices in cases:
        q = RefQTable()
        for a, value in enumerate(row):
            q.set(0, 0, a, value)
        for actions, whole in choices:
            m = choice_nmdp(actions)
            assert (m.available[0] == list(range(4))) == whole
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            for explore in (0.0, 0.5):
                monkeypatch.setattr(active, "EXPLORE", explore)
                for _ in range(100):
                    assert (choose(m, row, rng)
                            == ref_epsilon_greedy_action(q, 0, 0, actions, explore, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (row, actions)


# (Q row at the start, the second step's action): on two_cell's stay
# action the first step is a self-loop whose update lowers the row's
# maximum from 1.0 to 0.95 before the second choice; the second action
# then wins, or ties with the first
SELF_LOOPS = [([1.0, 0.99], 1), ([1.0, 0.5 * 1.0 + 0.5 * (0.0 + 0.9 * 1.0)], None)]


@pytest.mark.parametrize("row, second", SELF_LOOPS)
def test_epsilon_greedy_reads_a_self_loop_s_update(row, second, monkeypatch):
    monkeypatch.setattr(active, "EXPLORE", 0.0)
    truth = single_state_zero_prm(("c",))
    m = two_cell_nmdp(truth)
    for seed in range(20):
        q, ref_q = QTable(), RefQTable()
        q.rows[(0, 0)] = list(row)
        for a, value in enumerate(row):
            ref_q.set(0, 0, a, value)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        trace = teacher_query(q, m, truth, "equivalence", config(n_episode=2), rng)
        assert trace == ref_teacher_query(ref_q, m, truth, "equivalence", config(n_episode=2), ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert trace[0] == (EMPTY_LABEL, 0.0)   # stayed: the self-loop
        if second is not None:
            assert trace[1][0] == C   # action 1 moves to the marked cell
        for (y, x), values in q.rows.items():
            assert values == [ref_q.get(y, x, a) for a in range(2)]


# -- teacher episodes ----------------------------------------------------------------


def test_q_update_arithmetic(monkeypatch):
    # all-zero Q, learn_rate 0.5, machine reward 1, zero successor values:
    # the visited entry becomes exactly 0.5
    monkeypatch.setattr(active, "EXPLORE", 0.0)
    assert (active.LEARN_RATE, active.DISCOUNT) == (0.5, 0.9)
    truth = patrol_prm()
    m = two_cell_nmdp(truth)
    machine = membership_reward_machine(m.ap, (C,))
    q = QTable()
    cfg = config(n_episode=1)
    rng = np.random.default_rng(1)
    trace = teacher_query(q, m, machine, "membership", cfg, rng)
    (label, _reward), = trace
    expected = 0.5 if label == C else 0.0
    visited = (0, 0, 1 if label == C else 0)   # action 1 enters the marked cell
    assert q.row(0, 0, 2)[visited[2]] == expected
    for y, x, a in itertools.product(range(2), range(2), range(2)):
        if (y, x, a) != visited:
            assert q.row(y, x, 2)[a] == 0.0


# The teacher episode as it was written before the Q-table stored rows and
# the environment and machines sampled from compiled rows: a dict keyed by
# (y, x, a), and sample_index on every successor vector.


class RefQTable:
    def __init__(self):
        self.values = {}

    def get(self, y, x, a):
        return self.values.get((y, x, a), 0.0)

    def set(self, y, x, a, value):
        self.values[(y, x, a)] = value

    def best(self, y, x, actions):
        return max((self.get(y, x, a) for a in actions), default=0.0)


def ref_epsilon_greedy_action(q, y, x, actions, explore, rng):
    if explore > 0.0 and rng.random() < explore:
        return int(actions[int(rng.integers(0, len(actions)))])
    best = max(q.get(y, x, a) for a in actions)
    top = [a for a in actions if q.get(y, x, a) == best]
    if len(top) == 1:
        return top[0]
    return int(top[int(rng.integers(0, len(top)))])


def ref_teacher_query(q, m, h, mode, cfg, rng):
    explore, learn_rate, discount = active.EXPLORE, active.LEARN_RATE, active.DISCOUNT
    truth = m.truth
    x, y, y_truth = m.x_init, h.init, truth.init
    trace = []
    for _ in range(cfg.n_episode):
        actions = m.available[x]
        a = ref_epsilon_greedy_action(q, y, x, actions, explore, rng)
        x_next = sample_index(m.p[(x, a)], rng)
        label = m.labeling[(x, a, x_next)]
        y_truth_next = sample_index(truth.successor_vector(y_truth, label), rng)
        r = truth.edge_reward(y_truth, label, y_truth_next)
        y_truth = y_truth_next
        y_next = sample_index(h.successor_vector(y, label), rng)
        target = h.edge_reward(y, label, y_next) if mode == "membership" else r
        best_next = q.best(y_next, x_next, m.available[x_next])
        q.set(
            y, x, a,
            (1.0 - learn_rate) * q.get(y, x, a)
            + learn_rate * (target + discount * best_next),
        )
        trace.append((label, r))
        x, y = x_next, y_next
        if label in m.terminal_labels:
            break
    return trace


def successor_reward_prm(rng, n_states, props, rewards):
    """A random total machine with stochastic rows whose edges pay the
    reward of the state they enter: the edges of one pair can pay
    different rewards."""
    base = random_prm(rng, n_states, props, rewards)
    tags = [rewards[int(rng.integers(0, len(rewards)))] for _ in range(n_states)]
    return Prm(base.ap, rewards, base.states, 0, base.tau, successor_rewards(base.tau, tags))


def partial_prm(rng, n_states, props, rewards):
    """A random machine defined on the first label only, without implicit
    bottom: every other label is an undefined pair."""
    base = random_prm(rng, n_states, props, rewards)
    first = base.ap.labels()[0]
    return Prm(base.ap, rewards, base.states, 0,
               {key: vec for key, vec in base.tau.items() if key[1] == first},
               {edge: r for edge, r in base.rho.items() if edge[1] == first})


def teacher_cases():
    """(name, environment, [(mode, machine), ...])."""
    patrol = patrol_prm()
    two_cell = two_cell_nmdp(patrol)
    office = load_env_config(OFFICE)
    rng = np.random.default_rng(5)
    props = ("a", "b")
    stochastic = random_nmdp(
        rng, n_states=4, n_actions=3, props=props, truth=random_prm(rng, 3, props, [0.0, 1.0])
    )
    successor_paid = random_nmdp(
        rng, n_states=4, n_actions=3, props=props, truth=successor_reward_prm(rng, 3, props, [0.0, 0.5, 1.0])
    )
    partial = partial_prm(rng, 3, props, [0.0, 1.0])
    # x1 offers a strict subset of the actions and x2 all of them out of
    # index order: their Q rows are not read whole
    mixed = random_nmdp(
        rng, n_states=4, n_actions=4, props=props, truth=random_prm(rng, 3, props, [0.0, 1.0]),
        available=[[0, 1, 2, 3], [3, 1], [2, 0, 1, 3], [0, 1, 2, 3]],
    )
    return [
        ("two_cell", two_cell, [
            ("membership", membership_reward_machine(two_cell.ap, (C, EMPTY_LABEL))),
            ("equivalence", patrol),
        ]),
        ("office", office.nmdp, [
            ("membership", membership_reward_machine(office.nmdp.ap, (C, O))),
            ("equivalence", office.truth),
        ]),
        ("random", stochastic, [
            ("membership", membership_reward_machine(stochastic.ap, stochastic.label_alphabet()[:2])),
            ("equivalence", random_prm(rng, 4, props, [0.0, 0.5, 1.0])),
        ]),
        ("successor_rewards", successor_paid, [
            ("membership", successor_reward_prm(rng, 3, props, [0.0, 1.0])),
            ("equivalence", successor_reward_prm(rng, 4, props, [0.0, 0.5, 1.0])),
        ]),
        # undefined pairs: membership mode reads the machine reward and
        # raises; equivalence mode only advances the machine
        ("partial", stochastic, [
            ("membership", partial),
            ("equivalence", partial),
        ]),
        ("mixed_actions", mixed, [
            ("membership", membership_reward_machine(mixed.ap, mixed.label_alphabet()[:2])),
            ("equivalence", random_prm(rng, 4, props, [0.0, 0.5, 1.0])),
        ]),
    ]


# the machine advances by sampling, as in the learner
@pytest.mark.parametrize("explore", [0.0, 0.1, 1.0], ids=lambda explore: "sample-%s" % explore)
def test_teacher_query_matches_reference_loop(explore, monkeypatch):
    monkeypatch.setattr(active, "EXPLORE", explore)
    for name, m, machines in teacher_cases():
        for mode, h in machines:
            cfg = config(n_episode=30)
            rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
            q, ref_q = QTable(), RefQTable()
            if mode == "membership" and not h.is_total():
                with pytest.raises(UndefinedTransitionError):
                    teacher_query(q, m, h, mode, cfg, rng)
                with pytest.raises(UndefinedTransitionError):
                    ref_teacher_query(ref_q, m, h, mode, cfg, ref_rng)
                assert rng.bit_generator.state == ref_rng.bit_generator.state, (name, mode)
                continue
            for _ in range(15):
                trace = teacher_query(q, m, h, mode, cfg, rng)
                assert trace == ref_teacher_query(ref_q, m, h, mode, cfg, ref_rng), (name, mode)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (name, mode)
            for (y, x, a), value in ref_q.values.items():
                assert q.rows[(y, x)][a] == value, (name, mode, (y, x, a))
            for (y, x), row in q.rows.items():
                for a, value in enumerate(row):
                    assert value == ref_q.get(y, x, a), (name, mode, (y, x, a))


@pytest.mark.parametrize("name", ["two_cell", "office"])
def test_teacher_query_draws_alike_from_a_stream_and_a_generator(name):
    _, m, machines = next(case for case in teacher_cases() if case[0] == name)
    for mode, h in machines:
        cfg = config(n_episode=30)
        stream, rng = Stream(np.random.PCG64(11)), np.random.default_rng(11)
        q, ref_q = QTable(), QTable()
        for _ in range(40):
            trace = teacher_query(q, m, h, mode, cfg, stream)
            assert trace == teacher_query(ref_q, m, h, mode, cfg, rng), (name, mode)
        assert q.rows == ref_q.rows, (name, mode)
        assert stream.random() == rng.random()


@pytest.mark.parametrize("env, budget", [
    ("patrol.yaml", dict(n_check=50, n_query=200, n_stop=10, n_episode=20)),
    ("office.yaml", dict(n_check=40, n_query=100, n_stop=5, n_episode=40)),
])
def test_learn_active_draws_alike_from_a_stream_and_a_generator(env, budget, monkeypatch):
    # learn_active draws from a Stream; with a Generator on the same seed
    # it learns the same machine in the same rounds from the same table
    setup = load_env_config(ASSETS / env)
    cfg = LearnerConfig(seed=4, **budget)
    result = learn_active(setup.nmdp, cfg)
    monkeypatch.setattr(active, "Stream", np.random.Generator)
    ref = learn_active(setup.nmdp, cfg)
    assert prm_to_text(result.hypothesis) == prm_to_text(ref.hypothesis)
    assert result.report == ref.report and result.report.render() == ref.report.render()
    assert result.table.t == ref.table.t and result.table.s == ref.table.s and result.table.e == ref.table.e


def test_teacher_query_records_environment_rewards():
    truth = patrol_prm()
    m = two_cell_nmdp(truth)
    machine = membership_reward_machine(m.ap, (C, EMPTY_LABEL))
    cfg = config(n_episode=5)
    trace = teacher_query(QTable(), m, machine, "membership", cfg, np.random.default_rng(2))
    assert len(trace) == 5
    for label, reward in trace:
        assert label in (C, EMPTY_LABEL)
        assert reward in (0.0, 1.0)  # environment rewards come from the patrol truth


def test_teacher_query_equivalence_mode_uses_env_reward(monkeypatch):
    monkeypatch.setattr(active, "EXPLORE", 0.2)
    truth = patrol_prm()
    m = two_cell_nmdp(truth)
    q = QTable()
    cfg = config(n_episode=50)
    rng = np.random.default_rng(3)
    for _ in range(50):
        teacher_query(q, m, truth, "equivalence", cfg, rng)
    # learned to alternate: greedy rollout collects machine reward every step
    trace, total = rollout_greedy(q, m, truth, 10, np.random.default_rng(0))
    assert total >= 8.0


def test_teacher_query_rejects_unknown_mode():
    m = two_cell_nmdp(patrol_prm())
    with pytest.raises(ValueError):
        teacher_query(QTable(), m, patrol_prm(), "oracle", config(), np.random.default_rng(0))


def test_teacher_episodes_rejects_unknown_mode_at_the_call():
    # a generator runs nothing before its first next(): the mode is checked
    # by the plain function that returns it
    m = two_cell_nmdp(patrol_prm())
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown query mode 'oracle'"):
        teacher_episodes(QTable(), m, patrol_prm(), "oracle", config(), rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("explore", [0.0, 0.1], ids=lambda explore: "explore-%s" % explore)
def test_teacher_episodes_match_the_reference_loop(explore, monkeypatch):
    # k episodes of one generator are k reference episodes on a shared Q
    # table and rng: the same traces, Q rows and draws; the set-up the
    # generator keeps across episodes changes nothing
    monkeypatch.setattr(active, "EXPLORE", explore)
    for name, m, machines in teacher_cases():
        for mode, h in machines:
            cfg = config(n_episode=30)
            rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
            q, ref_q = QTable(), RefQTable()
            episodes = teacher_episodes(q, m, h, mode, cfg, rng)
            if mode == "membership" and not h.is_total():
                with pytest.raises(UndefinedTransitionError):
                    next(episodes)
                with pytest.raises(UndefinedTransitionError):
                    ref_teacher_query(ref_q, m, h, mode, cfg, ref_rng)
                assert rng.bit_generator.state == ref_rng.bit_generator.state, (name, mode)
                continue
            for k in range(25):
                trace = next(episodes)
                assert trace == ref_teacher_query(ref_q, m, h, mode, cfg, ref_rng), (name, mode, k)
                assert rng.bit_generator.state == ref_rng.bit_generator.state, (name, mode, k)
            for (y, x, a), value in ref_q.values.items():
                assert q.rows[(y, x)][a] == value, (name, mode, (y, x, a))
            for (y, x), row in q.rows.items():
                for a, value in enumerate(row):
                    assert value == ref_q.get(y, x, a), (name, mode, (y, x, a))


@pytest.mark.parametrize("mode", ["membership", "equivalence"])
def test_teacher_episodes_draw_nothing_past_the_last_episode_asked_for(mode):
    # breaking out after an episode leaves the rng where the reference loop
    # left it: the generator does not start the next episode
    for name, m, machines in teacher_cases():
        h = dict(machines)[mode]
        if not h.is_total():
            continue
        cfg = config(n_episode=30)
        for k in (1, 2, 7):
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            q, ref_q = QTable(), RefQTable()
            for trace in teacher_episodes(q, m, h, mode, cfg, rng):
                assert trace == ref_teacher_query(ref_q, m, h, mode, cfg, ref_rng)
                k -= 1
                if k == 0:
                    break
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (name, mode)


@pytest.mark.parametrize("name", ["office", "mixed_actions"])
def test_teacher_keeps_q_rows_across_equivalence_queries_of_one_shape(name, monkeypatch):
    # learn_active keeps q_h across equivalence queries whose hypotheses
    # have as many states: the second query's generator reads and updates
    # the very lists of q.rows that the first one left, and both queries
    # give the reference episodes on one shared reference table
    monkeypatch.setattr(active, "EXPLORE", 0.1)
    _, m, _ = next(case for case in teacher_cases() if case[0] == name)
    machine_rng = np.random.default_rng(8)
    machines = [random_prm(machine_rng, 3, m.ap.props, [0.0, 0.5, 1.0]) for _ in range(2)]
    cfg = config(n_episode=30)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    q, ref_q = QTable(), RefQTable()
    kept = {}
    for h in machines:
        for _, trace in zip(range(20), teacher_episodes(q, m, h, "equivalence", cfg, rng)):
            assert trace == ref_teacher_query(ref_q, m, h, "equivalence", cfg, ref_rng), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state, name
        assert all(q.rows[key] is row for key, row in kept.items()), name
        assert all(q.rows[(y, x)][a] == value for (y, x, a), value in ref_q.values.items()), name
        assert all(value == ref_q.get(y, x, a) for (y, x), row in q.rows.items() for a, value in enumerate(row))
        kept = dict(q.rows)
    assert len(kept) > 1


def test_terminal_labels_cut_episodes():
    truth = patrol_prm()
    m = two_cell_nmdp(truth, terminal_labels=(C,))
    cfg = config(n_episode=50)
    trace = teacher_query(QTable(), m, truth, "equivalence", cfg, np.random.default_rng(0))
    assert trace[-1][0] == C
    assert all(label != C for label, _ in trace[:-1])


def test_learn_active_terminal_labels_may_only_repeat_the_environment_s():
    m = two_cell_nmdp(patrol_prm(), terminal_labels=(C,))
    cfg = config(n_check=5, n_query=10, n_stop=1, n_episode=5)
    for wrong in [(), (EMPTY_LABEL,), (C, EMPTY_LABEL), ("c",)]:
        with pytest.raises(ValueError, match="differ from the environment's"):
            learn_active(m, cfg, wrong)
    repeated = learn_active(m, cfg, [C, C])
    assert prm_to_text(repeated.hypothesis) == prm_to_text(learn_active(m, cfg).hypothesis)


# -- membership queries ----------------------------------------------------------------


def test_membership_query_fills_sample():
    truth = patrol_prm()
    m = two_cell_nmdp(truth)
    table = ObservationTable(m.ap, m.label_alphabet())
    cfg = config(n_check=20, n_query=200, n_episode=5)
    episodes = membership_query(table, (C, EMPTY_LABEL), m, QTable(), cfg, np.random.default_rng(0))
    assert table.sample_count((C, EMPTY_LABEL)) >= cfg.n_check
    assert 0 < episodes <= cfg.n_query


def test_membership_query_skips_terminal_interrupted_words():
    # a terminal label anywhere but last makes the word unrealizable as a
    # trace prefix: no episodes are spent on it
    truth = patrol_prm()
    m = two_cell_nmdp(truth, terminal_labels=(C,))
    table = ObservationTable(m.ap, m.label_alphabet())
    episodes = membership_query(table, (C, C), m, QTable(), cfg=config(), rng=np.random.default_rng(0))
    assert episodes == 0
    assert table.total_samples() == 0


def test_membership_query_realizability_prefilter():
    # an environment whose only labels are {empty}: any word containing c
    # is provably unrealizable and must not burn the episode budget
    truth = single_state_zero_prm(("c",))
    m = free_nmdp(truth)
    # restrict transitions to the empty-label action only
    table = ObservationTable(m.ap, [EMPTY_LABEL, C])
    cfg = config(n_query=1000)
    from prmlearn.environment import Nmdp
    from prmlearn.machine import unit_vector

    only_empty = Nmdp(
        states=("x0",),
        x_init=0,
        actions=("loop",),
        available=[[0]],
        p={(0, 0): unit_vector(1, 0)},
        labeling={(0, 0, 0): EMPTY_LABEL},
        truth=truth,
    )
    episodes = membership_query(table, (C,), only_empty, QTable(), cfg, np.random.default_rng(0))
    assert episodes == 0
    assert table.sample_count((C,)) == 0


def test_membership_query_records_every_trace():
    truth = patrol_prm()
    m = two_cell_nmdp(truth)
    table = ObservationTable(m.ap, m.label_alphabet())
    cfg = config(n_check=10 ** 9, n_query=20, n_episode=3)
    episodes = membership_query(table, (C, C, C), m, QTable(), cfg, np.random.default_rng(0))
    assert episodes == 20  # budget exhausted without reaching n_check
    assert table.num_traces == 20  # but every episode went into the table


def ref_membership_query(table, zeta, m, q_m, cfg, rng):
    """membership_query as it was written, looking zeta's sample count up
    by word before every episode; returns (episodes, the first episode
    after which zeta had an id, or None)."""
    if not zeta or not word_realizable(m, zeta):
        return 0, None
    machine = membership_reward_machine(m.ap, zeta)
    q_m.reset()
    episodes, realized = 0, None
    while table.sample_count(zeta) < cfg.n_check and episodes < cfg.n_query:
        table.record(teacher_query(q_m, m, machine, "membership", cfg, rng))
        episodes += 1
        if realized is None and table.row(zeta) is not None:
            realized = episodes
    return episodes, realized


def table_contents(table):
    return table.t, table.s, table.e, table.num_traces, table.total_samples(), table._parent


# (environment, zeta, budget, whether S holds zeta before the query)
STOPS = {
    "unrecorded-state": ("two_cell", (C, EMPTY_LABEL), dict(n_check=20, n_query=200, n_episode=5), True),
    "realized-mid-query": ("office", (C, O), dict(n_check=10, n_query=300, n_episode=15), False),
    "exhausted": ("two_cell", (C, C, C), dict(n_check=10 ** 9, n_query=20, n_episode=3), False),
    "exhausted-unrecorded-state": ("two_cell", (C, C, C), dict(n_check=10 ** 9, n_query=20, n_episode=3), True),
}


@pytest.mark.parametrize("case", list(STOPS))
def test_membership_query_stops_as_on_the_sample_count(case):
    env, zeta, budget, in_s = STOPS[case]
    m = two_cell_nmdp(patrol_prm()) if env == "two_cell" else load_env_config(OFFICE).nmdp
    cfg = config(**budget)
    for seed in range(3):
        table, ref_table = (ObservationTable(m.ap, m.label_alphabet()) for _ in range(2))
        # an earlier query's traces, which do not realize zeta
        for t in (table, ref_table):
            t.record([(EMPTY_LABEL, 0.0)])
            if in_s:
                t.add_state(zeta)
        assert (table.row(zeta) is not None) == in_s and table.sample_count(zeta) == 0
        q, ref_q = QTable(), QTable()
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        episodes = membership_query(table, zeta, m, q, cfg, rng)
        ref_episodes, realized = ref_membership_query(ref_table, zeta, m, ref_q, cfg, ref_rng)
        assert episodes == ref_episodes
        assert table_contents(table) == table_contents(ref_table)
        assert q.rows == ref_q.rows
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if case.startswith("exhausted"):
            assert episodes == cfg.n_query and table.sample_count(zeta) < cfg.n_check
        else:
            assert table.sample_count(zeta) >= cfg.n_check
        if case == "realized-mid-query":
            assert realized > 1


# -- counterexample detection ------------------------------------------------------------


def build_simple_hypothesis(dist):
    """A 2-state machine: on {c} split rewards per dist, everything else 0."""
    lines = ["ap: c", "gamma: 0,1", "init: q0", "bottom: bot", "implicit_bottom: true"]
    for reward, prob in dist.items():
        target = "q1" if reward == 1.0 else "q0"
        lines.append("q0 --c/%g--> %s : %r" % (reward, target, prob))
    lines.append("q0 --ε/0--> q0 : 1.0")
    lines.append("q1 --ε/0--> q0 : 1.0")
    lines.append("q1 --c/1--> q1 : 1.0")
    return prm_from_text("\n".join(lines))


def test_is_counterexample_on_distribution_mismatch():
    ap = Alphabet(["c"])
    table = ObservationTable(ap, [EMPTY_LABEL, C])
    # the environment always pays 1 on c; the hypothesis claims always 0
    for _ in range(200):
        table.record([(C, 1.0)])
    h = build_simple_hypothesis({0.0: 1.0})
    trace = [(C, 1.0)]
    assert is_counterexample(table, h, trace, n_check=50) == (C,)
    # a hypothesis matching the data is not contradicted
    h_good = build_simple_hypothesis({1.0: 1.0})
    assert is_counterexample(table, h_good, trace, n_check=50) is None


def test_is_counterexample_undersampled_prefixes_pass():
    ap = Alphabet(["c"])
    table = ObservationTable(ap, [EMPTY_LABEL, C])
    table.record([(C, 1.0)])  # a single sample is never statistically different
    h = build_simple_hypothesis({0.0: 1.0})
    assert is_counterexample(table, h, [(C, 1.0)], n_check=50) is None


def test_is_counterexample_bottom_absorption():
    ap = Alphabet(["c"])
    table = ObservationTable(ap, [EMPTY_LABEL, C])
    for _ in range(100):
        table.record([(EMPTY_LABEL, 0.0), (EMPTY_LABEL, 0.0)])
    # hypothesis with no empty-label transition: the prefix is absorbed by
    # the failure state while being sampled well past n_check
    text = "\n".join([
        "ap: c", "gamma: 0,1", "init: q0", "bottom: bot", "implicit_bottom: true",
        "q0 --c/0--> q0 : 1.0",
    ])
    h = prm_from_text(text)
    ce = is_counterexample(table, h, [(EMPTY_LABEL, 0.0)], n_check=50)
    assert ce == (EMPTY_LABEL,)
    # under-sampled absorbed prefixes are not counterexamples
    table2 = ObservationTable(ap, [EMPTY_LABEL, C])
    table2.record([(EMPTY_LABEL, 0.0)])
    assert is_counterexample(table2, h, [(EMPTY_LABEL, 0.0)], n_check=50) is None
    # prefixes too sparse to differ still count as absorbed at a low n_check
    table3 = ObservationTable(ap, [EMPTY_LABEL, C])
    trace = [(C, 0.0), (C, 0.0), (EMPTY_LABEL, 0.0)]
    table3.record(trace)
    table3.record(trace)
    assert is_counterexample(table3, h, trace, n_check=1) == (C, C, EMPTY_LABEL)
    assert is_counterexample(table3, h, trace, n_check=3) is None


def machine_trace(rng, truth, labels, length):
    """A trace of random labels, paid as the machine pays them."""
    y, trace = truth.init, []
    for _ in range(length):
        label = labels[int(rng.integers(0, len(labels)))]
        row, emits = truth.compiled_step(y, label)
        y = draw_row(row, rng)
        trace.append(emits[y])
    return trace


@pytest.mark.parametrize("seed", range(4))
def test_is_counterexample_stop_matches_full_walk(seed, monkeypatch):
    # a table filled by record from seeded random traces of a random
    # machine, checked against that machine, a random one, the machine
    # with a failure state, and a machine learned from the table
    rng = np.random.default_rng(seed)
    props = ("a", "b")
    truth = successor_reward_prm(rng, 3, props, [0.0, 0.5, 1.0])
    labels = truth.ap.labels()
    table = ObservationTable(truth.ap, labels)
    traces = [machine_trace(rng, truth, labels, int(rng.integers(1, 9))) for _ in range(400)]
    for trace in traces:
        table.record(trace)
    repair_on_frozen_data(table)
    # the truth with a failure state that absorbs two of its pairs
    n, dropped = truth.n_states(), {(0, labels[1]), (1, labels[2])}
    absorbing = Prm(truth.ap, truth.gamma, truth.states + ("bot",), truth.init,
                    {key: np.append(vec, 0.0) for key, vec in truth.tau.items() if key not in dropped},
                    {edge: r for edge, r in truth.rho.items() if edge[:2] not in dropped},
                    bottom=n, implicit_bottom=True)
    machines = [truth, random_prm(rng, 3, props, [0.0, 0.5, 1.0]), absorbing, build_hypothesis(table, 5)]
    # every Hoeffding test, the reference's too; `tests` keeps those run inside is_counterexample
    differ_calls, tests = [], []
    monkeypatch.setattr(prmlearn.table, "_differ", lambda *args: differ_calls.append(args) or _differ(*args))
    ref_tests = []
    verdicts = set()   # (machine index, whether a counterexample was found)
    for i, h in enumerate(machines):
        for n_check in (1, 5, 40, 400):
            steps = {}
            for trace in traces[:100] + [machine_trace(rng, truth, labels, 12) for _ in range(20)]:
                start = len(differ_calls)
                verdict = is_counterexample(table, h, trace, n_check, steps)
                tests += differ_calls[start:]
                assert verdict == ref_is_counterexample(table, h, trace, n_check, ref_tests)
                verdicts.add((i, verdict is not None))
    assert {(1, True), (2, True), (3, False)} <= verdicts, verdicts
    assert 0 < len(tests) < len(ref_tests)  # the stop skipped some tests


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(allow_nan=False, allow_infinity=False), n=st.integers(1, 2 ** 53),
       p=st.floats(0.0, 1.0, exclude_min=True), f=st.floats(0.0, exclude_min=True, allow_infinity=False))
def test_one_reward_paid_as_predicted_never_differs(gamma, n, p, f):
    # is_counterexample skips this test: count n against expected count
    # p * n makes the one gap 1.0 - 1.0 = 0
    assert _differ(Counter({gamma: n}), n, {gamma: p * n}, p * n, f) is False


@pytest.mark.parametrize("paid, predicted", [(0.0, 0.0), (1.0, 0.0)])
def test_is_counterexample_skips_only_one_reward_paid_as_predicted(paid, predicted, monkeypatch):
    # traces of a machine paying one reward, checked against itself and
    # a random machine paying one reward: when the two rewards are the
    # same no prefix is tested, and when they differ the tests run
    rng = np.random.default_rng(7)
    props = ("a", "b")
    truth = successor_reward_prm(rng, 3, props, [paid])
    labels = truth.ap.labels()
    table = ObservationTable(truth.ap, labels)
    traces = [machine_trace(rng, truth, labels, int(rng.integers(1, 9))) for _ in range(400)]
    for trace in traces:
        table.record(trace)
    # every Hoeffding test, the reference's too; `tests` keeps those run inside is_counterexample
    differ_calls, tests = [], []
    monkeypatch.setattr(prmlearn.table, "_differ", lambda *args: differ_calls.append(args) or _differ(*args))
    for h in (successor_reward_prm(rng, 3, props, [predicted]), random_prm(rng, 3, props, [predicted])):
        steps, ref_tests = {}, []
        for trace in traces[:100]:
            start = len(differ_calls)
            verdict = is_counterexample(table, h, trace, 40, steps)
            tests += differ_calls[start:]
            assert verdict == ref_is_counterexample(table, h, trace, 40, ref_tests)
            assert (verdict is None) == (paid == predicted)
        assert ref_tests   # the reference tests prefixes the check skips
    assert bool(tests) == (paid != predicted)


def test_is_counterexample_unrecorded_trace():
    ap = Alphabet(["c"])
    h = prm_from_text("\n".join([
        "ap: c", "gamma: 0,1", "init: q0", "bottom: bot", "implicit_bottom: true",
        "q0 --c/0--> q0 : 1.0",
    ]))
    trace = [(C, 0.0), (EMPTY_LABEL, 0.0), (C, 1.0)]
    table = ObservationTable(ap, [EMPTY_LABEL, C])
    for n_check in (1, 50):
        assert is_counterexample(table, h, trace, n_check) is None
    table.record([(EMPTY_LABEL, 0.0)] * 3)
    for n_check in (1, 50):
        assert is_counterexample(table, h, trace, n_check) is None
        assert is_counterexample(table, h, [(C, 0.0)] + trace, n_check) is None


def test_is_counterexample_memo_matches_fresh_walk(monkeypatch):
    # a learned office hypothesis (stochastic rows, implicit failure state)
    # checked against equivalence traces, some of them counterexamples
    office = load_env_config(OFFICE)
    m = office.nmdp
    cfg = config(n_check=30, n_query=100, n_stop=5, n_episode=office.n_episode, seed=3)
    result = learn_active(m, cfg)
    h, table = result.hypothesis, result.table
    monkeypatch.setattr(active, "EXPLORE", 0.5)  # explores enough to meet counterexamples
    rng = np.random.default_rng(4)
    q, steps = QTable(), {}
    verdicts = []
    for _ in range(60):
        trace = teacher_query(q, m, h, "equivalence", config(n_episode=office.n_episode), rng)
        table.record(trace)
        verdict = is_counterexample(table, h, trace, cfg.n_check, steps)
        assert verdict == ref_is_counterexample(table, h, trace, cfg.n_check)
        verdicts.append(verdict)
    assert any(v is None for v in verdicts) and any(v is not None for v in verdicts)
    assert steps


# -- the outer loop -------------------------------------------------------------------------


def test_learn_active_trivial_environment():
    # all rewards zero, a single observable label: one live state plus the
    # failure state (which absorbs the never-observed labels)
    text = "\n".join([
        "ap: a", "gamma: 0", "init: u0",
        "u0 --ε/0--> u0 : 1.0",
        "u0 --a/0--> u0 : 1.0",
    ])
    truth = prm_from_text(text)
    from prmlearn.environment import Nmdp
    from prmlearn.machine import unit_vector

    m = Nmdp(
        states=("x0",),
        x_init=0,
        actions=("loop",),
        available=[[0]],
        p={(0, 0): unit_vector(1, 0)},
        labeling={(0, 0, 0): EMPTY_LABEL},
        truth=truth,
    )
    res = learn_active(m, config(n_check=30, n_query=200, n_stop=10))
    h = res.hypothesis
    assert h.states == ("q0", "bot")
    vec = h.successor_vector(0, EMPTY_LABEL)
    assert vec[0] == 1.0
    assert h.edge_reward(0, EMPTY_LABEL, 0) == 0.0
    # the unobserved label is absorbed by the failure state
    assert h.successor_vector(h.init, frozenset({"a"}))[h.bottom] == 1.0


def test_learn_active_fully_observed_trivial_environment_has_no_bottom():
    # when every label of 2^AP is observed with full confidence the failure
    # state disappears: every remaining state is reachable
    text = "\n".join([
        "ap: a", "gamma: 0", "init: u0",
        "u0 --ε/0--> u0 : 1.0",
        "u0 --a/0--> u0 : 1.0",
    ])
    truth = prm_from_text(text)
    m = free_nmdp(truth)
    res = learn_active(m, config(n_check=30, n_query=200, n_stop=10))
    h = res.hypothesis
    assert h.states == ("q0",)
    assert h.bottom is None
    for label in truth.ap.labels():
        vec = h.successor_vector(0, label)
        assert vec[0] == 1.0
        assert h.edge_reward(0, label, 0) == 0.0


def test_learn_active_patrol_two_cell():
    truth = patrol_prm()
    m = two_cell_nmdp(truth)
    res = learn_active(m, config(n_check=100, n_query=300, n_stop=30, n_episode=50, seed=0))
    from prmlearn import encoding_distance

    report = encoding_distance(res.hypothesis, truth, max_len=5)
    assert report.distance <= 0.05
    assert not res.report.truncated
    # report renders one line per round plus totals
    rendered = res.report.render()
    assert "totals:" in rendered
    assert rendered == res.report.render()  # deterministic


def test_learn_active_loop_invariant_closed_consistent():
    truth = patrol_prm()
    m = two_cell_nmdp(truth)
    res = learn_active(m, config(n_check=50, n_query=200, n_stop=10, n_episode=20, seed=1))
    closed, _ = res.table.is_closed()
    consistent, _ = res.table.is_consistent()
    assert closed and consistent


def test_equivalence_query_flags_wrong_hypothesis():
    truth = patrol_prm()
    m = two_cell_nmdp(truth)
    table = ObservationTable(m.ap, m.label_alphabet())
    cfg = config(n_check=30, n_stop=50, n_episode=10, seed=2)
    rng = np.random.default_rng(2)
    # pre-populate the table with real data
    for _ in range(100):
        teacher_query(QTable(), m, truth, "equivalence", cfg, rng)
    for _ in range(100):
        table.record(teacher_query(QTable(), m, truth, "equivalence", cfg, rng))
    # an all-zero hypothesis contradicts the patrol rewards
    wrong = build_simple_hypothesis({0.0: 1.0})
    ce, episodes = equivalence_query(table, m, QTable(), wrong, cfg, rng)
    assert ce is not None
    assert episodes <= cfg.n_stop
