import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prmlearn import (
    Alphabet,
    EMPTY_LABEL,
    LearnerConfig,
    Trajectory,
    brute_force_word_realizability,
    build_office_nmdp,
    coffee_prm,
    collect_traces,
    learn_active,
    load_env_config,
    membership_reward_machine,
    parse_gridmap,
    patrol_prm,
    product,
    run_episode,
    uniform_policy,
    shortest_path_policy,
)
from prmlearn.environment import (
    ACTIONS,
    MapParseError,
    Nmdp,
    PositionalPolicy,
    UnavailableActionError,
    load_traces,
    save_traces,
    step,
    trace_from_line,
    trace_to_line,
    word_realizable,
)
from prmlearn.machine import Prm, sample_index, spawn_states, unit_vector

from conftest import (
    C, O, STAR, edges_of, free_nmdp, machine_run, probability_vectors, random_nmdp, random_prm,
    single_state_zero_prm, two_cell_nmdp,
)

OFFICE_MAP = """\
#######
#..*..#
#.....#
#..A..#
#..c..#
#..o..#
#.....#
#..*..#
#######
"""


# -- grid maps ---------------------------------------------------------------


def test_parse_gridmap_office():
    grid = parse_gridmap(OFFICE_MAP)
    assert (grid.width, grid.height) == (7, 9)
    assert grid.start == (3, 3)
    assert grid.props_at(4, 3) == C
    assert grid.props_at(5, 3) == O
    assert grid.props_at(1, 3) == STAR
    assert grid.props_at(2, 3) == EMPTY_LABEL
    assert grid.is_wall(0, 0)


@pytest.mark.parametrize(
    "text",
    [
        "",                # empty
        "A.\n...",         # ragged rows
        "A.x",             # bad character
        "..",              # no start
        "AA",              # two starts
    ],
)
def test_parse_gridmap_errors(text):
    with pytest.raises(MapParseError):
        parse_gridmap(text)


def test_tiny_map_step_labels():
    grid = parse_gridmap("Ac")
    m = build_office_nmdp(grid, patrol_prm())
    assert len(m.states) == 2
    east = ACTIONS.index("E")
    rng = np.random.default_rng(0)
    assert m.label_alphabet() == [EMPTY_LABEL, C]
    x_next, y, (label, reward), i = step(m, m.x_init, m.truth.init, east, rng)
    assert m.states[x_next] == "(0,1)"
    assert label == C and i == 1
    assert reward == 1.0  # patrol machine pays for entering the marked cell
    # blocked move: self-loop with the label of the current (empty) cell
    north = ACTIONS.index("N")
    x_next, _, (label, _), i = step(m, m.x_init, y, north, rng)
    assert x_next == m.x_init
    assert label == EMPTY_LABEL and i == 0


def test_unavailable_action_rejected():
    grid = parse_gridmap("Ac")
    m = build_office_nmdp(grid, patrol_prm())
    rng = np.random.default_rng(0)
    with pytest.raises(UnavailableActionError):
        step(m, 0, m.truth.init, 99, rng)


def test_action_index_outside_the_actions_rejected():
    with pytest.raises(ValueError, match="action index"):
        Nmdp(
            states=("x0",),
            x_init=0,
            actions=("loop",),
            available=[[0, 1]],
            p={(0, 0): unit_vector(1, 0), (0, 1): unit_vector(1, 0)},
            labeling={(0, 0, 0): EMPTY_LABEL, (0, 1, 0): EMPTY_LABEL},
            truth=single_state_zero_prm(("a",)),
        )


def test_non_finite_transition_rejected():
    with pytest.raises(ValueError, match="bad transition distribution"):
        Nmdp(
            states=("x0", "x1"),
            x_init=0,
            actions=("loop",),
            available=[[0], [0]],
            p={(0, 0): np.array([np.nan, np.nan]), (1, 0): unit_vector(2, 1)},
            labeling={(0, 0, 0): EMPTY_LABEL, (0, 0, 1): EMPTY_LABEL, (1, 0, 1): EMPTY_LABEL},
            truth=single_state_zero_prm(("a",)),
        )


def test_bad_transition_distributions_rejected():
    # short mass; an over-unit weight offset by a negative one; a NaN
    # weight beside a unit one, which no sum check rejects
    for bad in ([0.5, 0.0], [1.5, -0.5], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="bad transition distribution"):
            Nmdp(
                states=("x0", "x1"),
                x_init=0,
                actions=("loop",),
                available=[[0], [0]],
                p={(0, 0): np.array(bad), (1, 0): unit_vector(2, 1)},
                labeling={(0, 0, 0): EMPTY_LABEL, (0, 0, 1): EMPTY_LABEL, (1, 0, 1): EMPTY_LABEL},
                truth=single_state_zero_prm(("a",)),
            )


def test_available_action_without_a_row_rejected():
    # (1, 1) is available but has no row in p: the error comes at
    # construction, not at the state's first step
    with pytest.raises(ValueError, match="without a transition row"):
        Nmdp(
            states=("x0", "x1"),
            x_init=0,
            actions=("stay", "move"),
            available=[[0], [0, 1]],
            p={(0, 0): unit_vector(2, 0), (1, 0): unit_vector(2, 1)},
            labeling={(0, 0, 0): EMPTY_LABEL, (1, 0, 1): EMPTY_LABEL},
            truth=single_state_zero_prm(("a",)),
        )


def test_an_action_listed_twice_rejected():
    # a uniform policy would give the repeated action two shares and leave
    # the state's probabilities summing to 2/3
    m = random_nmdp(np.random.default_rng(0), n_states=2, n_actions=2)
    with pytest.raises(ValueError, match="state 'x0' lists an action twice"):
        dataclasses.replace(m, available=[[0, 0, 1], [1]])


@pytest.mark.parametrize("probs", [{0: 0.25, 1: 0.25}, {0: 1.5, 1: -0.5}, {0: np.nan, 1: 1.0}, {}],
                         ids=["short", "negative", "nan", "empty"])
def test_policy_action_probabilities_must_be_a_distribution(probs):
    # a short row would draw its last action with the missing mass
    with pytest.raises(ValueError, match="action probabilities at state 1 are not a distribution"):
        PositionalPolicy({0: {0: 1.0}, 1: probs})


def test_policy_action_the_state_does_not_offer_fails_before_any_draw():
    # the row is checked when it compiles, before its first draw, so no seed's draw can miss action 7
    m = two_cell_nmdp(patrol_prm())
    for seed in range(10):
        policy = PositionalPolicy({m.x_init: {0: 0.5, 7: 0.5}})
        with pytest.raises(UnavailableActionError, match="action 7 unavailable at state 'left'"):
            run_episode(m, policy, np.random.default_rng(seed), 1)


@pytest.mark.parametrize("row", [[0.0, 0.0, 1.0], [1.0], [[1.0, 0.0]]], ids=["long", "short", "2-d"])
def test_transition_rows_hold_one_entry_per_state(row):
    # a 3-entry row over 2 states once built, and the first step that
    # drew its third entry raised a bare IndexError in run_episode
    with pytest.raises(ValueError, match=re.escape("transition row at (0, 0) has shape")):
        Nmdp(
            states=("x0", "x1"),
            x_init=0,
            actions=("go",),
            available=[[0], [0]],
            p={(0, 0): row, (1, 0): unit_vector(2, 1)},
            labeling={(0, 0, 0): EMPTY_LABEL, (0, 0, 1): EMPTY_LABEL, (0, 0, 2): EMPTY_LABEL,
                      (1, 0, 1): EMPTY_LABEL},
            truth=single_state_zero_prm(("a",)),
        )


@pytest.mark.parametrize("label", ["c", ("c",)], ids=["str", "tuple"])
def test_transition_labels_must_be_frozensets(label):
    # validate_label takes any iterable of proposition names, so a bare "c"
    # once built, label_alphabet() listed "c" as a label, and the first
    # step raised a KeyError from the truth
    fields = dict(states=("x0",), x_init=0, actions=("loop",), available=[[0]],
                  p={(0, 0): unit_vector(1, 0)}, truth=patrol_prm())
    with pytest.raises(ValueError, match=re.escape("transition (0, 0, 0) has label %r, not a frozenset" % (label,))):
        Nmdp(labeling={(0, 0, 0): label}, **fields)


def test_label_alphabet_holds_only_labels_of_positive_probability_transitions():
    # the zero-probability transitions carry a bare "c" and {q}, a
    # proposition outside the truth's: neither can be emitted, so neither
    # is a label of the environment or of the table an active learner makes
    m = Nmdp(
        states=("x0", "x1"),
        x_init=0,
        actions=("stay",),
        available=[[0], [0]],
        p={(0, 0): unit_vector(2, 0), (1, 0): unit_vector(2, 1)},
        labeling={(0, 0, 0): EMPTY_LABEL, (0, 0, 1): "c",
                  (1, 0, 1): EMPTY_LABEL, (1, 0, 0): frozenset({"q"})},
        truth=patrol_prm(),
    )
    assert m.label_alphabet() == [EMPTY_LABEL]
    result = learn_active(m, LearnerConfig(n_check=5, n_query=5, n_stop=2, n_episode=3))
    assert result.table.alphabet == [EMPTY_LABEL]


def test_available_of_the_wrong_length_rejected():
    # x1 has no action list: the error comes at construction, not as an
    # IndexError at the first step into x1
    with pytest.raises(ValueError, match="actions of all 2 states"):
        Nmdp(
            states=("x0", "x1"),
            x_init=0,
            actions=("move",),
            available=[[0]],
            p={(0, 0): unit_vector(2, 1), (1, 0): unit_vector(2, 0)},
            labeling={(0, 0, 1): EMPTY_LABEL, (1, 0, 0): EMPTY_LABEL},
            truth=single_state_zero_prm(("a",)),
        )


@pytest.mark.parametrize("x_init", [-1, 2])
def test_initial_state_out_of_range_rejected(x_init):
    with pytest.raises(ValueError, match="initial state index out of range"):
        Nmdp(
            states=("x0", "x1"),
            x_init=x_init,
            actions=("stay",),
            available=[[0], [0]],
            p={(0, 0): unit_vector(2, 0), (1, 0): unit_vector(2, 1)},
            labeling={(0, 0, 0): EMPTY_LABEL, (1, 0, 1): EMPTY_LABEL},
            truth=single_state_zero_prm(("a",)),
        )


def ref_step(m, x, a, rng, truth, y):
    """One step as sample_index draws it from the uncompiled rows: the
    environment's successor, then the truth machine's."""
    if a not in m.available[x]:
        raise UnavailableActionError("action %r unavailable" % (a,))
    x_next = sample_index(m.p[(x, a)], rng)
    label = m.labeling[(x, a, x_next)]
    y_next = sample_index(truth.successor_vector(y, label), rng)
    return x_next, label, truth.edge_reward(y, label, y_next), y_next


@st.composite
def environment_and_actions(draw):
    ap = Alphabet(["a", "b"])
    labels = ap.labels()
    # a truth whose edges pay their own reward, so the edges of one pair
    # can pay different rewards; with implicit bottom, some pairs are
    # undefined and go to the last state
    n_truth = draw(st.integers(1, 3))
    implicit_bottom = draw(st.booleans())
    tau = {}
    for y in range(n_truth):
        for label in labels:
            if implicit_bottom and draw(st.booleans()):
                continue
            tau[(y, label)] = draw(probability_vectors(n_truth))
    rho = {edge: draw(st.sampled_from([0.0, 0.5, 1.0])) for edge in edges_of(tau)}
    truth = Prm(ap, [0.0, 1.0], ["y%d" % i for i in range(n_truth)], 0, tau, rho,
                bottom=n_truth - 1 if implicit_bottom else None, implicit_bottom=implicit_bottom)
    n, n_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    p, labeling = {}, {}
    for x in range(n):
        for a in range(n_actions):
            vec = p[(x, a)] = draw(probability_vectors(n))
            for j in np.flatnonzero(vec):
                labeling[(x, a, int(j))] = draw(st.sampled_from(labels))
    m = Nmdp(
        states=tuple("x%d" % i for i in range(n)),
        x_init=0,
        actions=tuple("a%d" % i for i in range(n_actions)),
        available=[list(range(n_actions)) for _ in range(n)],
        p=p,
        labeling=labeling,
        truth=truth,
    )
    actions = draw(st.lists(st.integers(0, n_actions - 1), min_size=1, max_size=40))
    return m, actions, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=environment_and_actions())
def test_step_draws_as_sample_index(case):
    # deterministic, dyadic and non-dyadic environment and truth rows: the
    # compiled step gives the successor, label and reward of sample_index
    # on the rows and leaves the Generator in the same state; every step on
    # one truth edge gives the same pair object, and the index is its
    # label's place in label_alphabet()
    m, actions, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x = ref_x = m.x_init
    y = ref_y = m.truth.init
    pairs = {}   # (y_prev, label, y) -> the pair its first step gave
    for a in actions:
        y_prev = y
        x, y, pair, i = step(m, x, y, a, rng)
        ref_x, ref_label, ref_reward, ref_y = ref_step(m, ref_x, a, ref_rng, m.truth, ref_y)
        assert (x, y, pair, i) == (ref_x, ref_y, (ref_label, ref_reward), m.label_alphabet().index(ref_label))
        assert pair is pairs.setdefault((y_prev, ref_label, y), pair)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def environment_and_policy(draw):
    """An environment as above, available actions listed in a random
    order, and a positional policy that leaves some states out."""
    m, _, seed = draw(environment_and_actions())
    n_actions = len(m.actions)
    m = dataclasses.replace(
        m, available=[draw(st.permutations(range(n_actions))) for _ in m.states],
        terminal_labels=draw(st.sets(st.sampled_from(m.ap.labels()), max_size=2)),
    )
    probs = {}
    for x in range(len(m.states)):
        if draw(st.booleans()):
            continue   # missing: the first available action, no draw
        vec = draw(probability_vectors(n_actions))
        order = draw(st.permutations(range(n_actions)))   # dict order is not sorted
        probs[x] = {a: float(vec[a]) for a in order}
    return m, PositionalPolicy(probs), draw(st.integers(1, 30)), seed


def ref_episode(m, policy, rng, n_episode):
    """run_episode as sample_index draws it: the action from the sorted
    actions' probabilities, then the step from the uncompiled rows."""
    truth = m.truth
    x, y, trace = m.x_init, truth.init, []
    for _ in range(n_episode):
        dist = policy.action_probs.get(x, {m.available[x][0]: 1.0})
        actions = sorted(dist)
        a = int(actions[sample_index(np.array([dist[a] for a in actions]), rng)])
        x, label, reward, y = ref_step(m, x, a, rng, truth, y)
        trace.append((label, reward))
        if label in m.terminal_labels:
            break
    return trace


@settings(max_examples=150, deadline=None)
@given(case=environment_and_policy())
def test_run_episode_draws_as_sample_index(case):
    m, policy, n_episode, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):   # later episodes read the rows the first one compiled
        trace = run_episode(m, policy, rng, n_episode)
        assert trace == ref_episode(m, policy, ref_rng, n_episode)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class Draws:
    """An rng whose `random()` returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_run_episode_draws_past_a_policy_row_that_sums_to_just_below_1():
    # the cumulative row is [0.5, 1 - 2^-40, 1 - 2^-40]: a draw at or above
    # its end takes a, the last action whose probability is positive, never
    # the trailing b; every move is deterministic, so only the policy draws
    ap = Alphabet(["a", "b"])
    a, b = frozenset({"a"}), frozenset({"b"})
    m = Nmdp(states=("x0",), x_init=0, actions=("e", "a", "b"), available=[[0, 1, 2]],
             p={(0, k): unit_vector(1, 0) for k in range(3)},
             labeling={(0, 0, 0): EMPTY_LABEL, (0, 1, 0): a, (0, 2, 0): b},
             truth=single_state_zero_prm(ap.props))
    policy = PositionalPolicy({0: {2: 0.0, 1: 0.5 - 2.0 ** -40, 0: 0.5}})
    draws = [1.0 - 2.0 ** -53, 0.0, 0.5, 1.0 - 2.0 ** -41, 1.0 - 2.0 ** -40, 0.25]
    rng, ref_rng = Draws(draws), Draws(draws)
    trace = run_episode(m, policy, rng, len(draws))
    assert [label for label, _ in trace] == [a, EMPTY_LABEL, a, a, a, EMPTY_LABEL]
    assert trace == ref_episode(m, policy, ref_rng, len(draws))
    assert rng.values == ref_rng.values == []


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_states=st.integers(2, 4), n_actions=st.integers(1, 3),
       steps=st.integers(1, 40))
def test_step_numbers_the_labels_of_stochastic_moves(seed, n_states, n_actions, steps):
    # every move row and every truth row is stochastic, so each step draws
    # its successor and reads the label index of the successor drawn
    rng = np.random.default_rng(seed)
    props = ("a", "b")
    m = random_nmdp(rng, n_states=n_states, n_actions=n_actions, props=props,
                    truth=random_prm(rng, 3, props, [0.0, 0.5, 1.0]))
    labels = m.label_alphabet()
    actions = rng.integers(0, n_actions, size=steps).tolist()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x = ref_x = m.x_init
    y = ref_y = m.truth.init
    for a in actions:
        x, y, pair, i = step(m, x, y, a, rng)
        ref_x, ref_label, ref_reward, ref_y = ref_step(m, ref_x, a, ref_rng, m.truth, ref_y)
        assert (x, y, pair) == (ref_x, ref_y, (ref_label, ref_reward))
        assert i == labels.index(pair[0])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert all(not isinstance(move[0], int) for moves in m._moves if moves for move in moves.values())


def test_a_replaced_copy_has_its_own_label_caches():
    # an environment that has stepped, copied with new terminal labels: the
    # copy builds its own caches and stops at its terminal label, and the
    # original, which has none, does not
    m = two_cell_nmdp(patrol_prm())
    always_move = PositionalPolicy({0: {1: 1.0}, 1: {1: 1.0}})   # labels c, ε, c, ...
    rng = np.random.default_rng(0)
    assert len(run_episode(m, always_move, rng, 6)) == 6
    copy = dataclasses.replace(m, terminal_labels={C})
    for name in ("_labels", "_index", "_terminal", "_truth_steps", "_moves"):
        assert getattr(copy, name) is not getattr(m, name), name
    assert copy._moves == [None, None] and m._moves != [None, None]
    assert copy._terminal == [False, True] and m._terminal == [False, False]
    assert run_episode(copy, always_move, rng, 6) == [(C, 1.0)]
    assert len(run_episode(m, always_move, rng, 6)) == 6
    assert [label for label, _ in run_episode(copy, uniform_policy(copy), rng, 50)][-1] == C


def test_unavailable_action_rejected_after_other_steps():
    m = random_nmdp(np.random.default_rng(0), n_states=2, n_actions=2)
    m = dataclasses.replace(m, available=[[0], [0, 1]])   # (0, 1) has a row in p
    rng = np.random.default_rng(0)
    step(m, 0, m.truth.init, 0, rng)
    assert m._moves[0] is not None
    with pytest.raises(UnavailableActionError):
        step(m, 0, m.truth.init, 1, rng)


# -- the truth ------------------------------------------------------------------


def test_nmdp_requires_total_truth():
    ap = Alphabet(["a"])
    partial = Prm(
        ap, [0.0], ["y0"], 0, {(0, EMPTY_LABEL): np.ones(1)}, {(0, EMPTY_LABEL, 0): 0.0}
    )
    # a Prm with implicit_bottom is total: its undefined pairs go to bottom
    bottomed = Prm(
        ap, [0.0], ["y0", "bot"], 0, {(0, EMPTY_LABEL): unit_vector(2, 0)},
        {(0, EMPTY_LABEL, 0): 0.0}, bottom=1, implicit_bottom=True,
    )
    fields = dict(
        states=("x0",), x_init=0, actions=("loop",), available=[[0]],
        p={(0, 0): unit_vector(1, 0)}, labeling={(0, 0, 0): EMPTY_LABEL},
    )
    with pytest.raises(ValueError, match="truth"):
        Nmdp(truth=partial, **fields)
    assert Nmdp(truth=bottomed, **fields).truth is bottomed


def test_transition_labels_use_the_truth_propositions():
    # an environment's propositions are its truth's: a {q} transition under
    # the patrol truth, whose propositions are {c}, is rejected when the
    # Nmdp is made, not by a KeyError when an episode first takes it
    truth = patrol_prm()
    fields = dict(states=("x0",), x_init=0, actions=("loop",), available=[[0]],
                  p={(0, 0): unit_vector(1, 0)}, truth=truth)
    with pytest.raises(ValueError, match="unknown proposition 'q'"):
        Nmdp(labeling={(0, 0, 0): frozenset({"q"})}, **fields)
    m = Nmdp(labeling={(0, 0, 0): frozenset({"c"})}, **fields)
    assert m.ap is truth.ap
    with pytest.raises(AttributeError):
        m.ap = Alphabet(["c", "q"])


def test_terminal_labels_use_the_truth_propositions():
    fields = dict(states=("x0",), x_init=0, actions=("loop",), available=[[0]],
                  p={(0, 0): unit_vector(1, 0)}, labeling={(0, 0, 0): C}, truth=patrol_prm())
    with pytest.raises(ValueError, match="unknown proposition 'q'"):
        Nmdp(terminal_labels=[C, frozenset({"q"})], **fields)
    assert Nmdp(**fields).terminal_labels == frozenset()
    assert Nmdp(terminal_labels=[C, C], **fields).terminal_labels == frozenset({C})


@pytest.mark.parametrize("terminal", ["c", {"c"}, ["c"], [("c",)], [{"c"}]],
                         ids=["str", "set-of-str", "list-of-str", "tuple-label", "set-label"])
def test_terminal_labels_must_be_frozensets(terminal):
    # validate_label takes any iterable of proposition names, so a bare "c"
    # would read as the label {c}, and a rollout would never stop at {c}
    with pytest.raises(ValueError, match="terminal labels must be frozensets"):
        two_cell_nmdp(patrol_prm(), terminal_labels=terminal)
    assert two_cell_nmdp(patrol_prm(), terminal_labels={C}).terminal_labels == frozenset({C})


def test_zero_machine_rewards_are_zero():
    m = two_cell_nmdp(single_state_zero_prm(("c",)))
    rng = np.random.default_rng(0)
    trace = run_episode(m, uniform_policy(m), rng, 20)
    assert all(r == 0.0 for _, r in trace)


def test_office_delivery_split_monte_carlo():
    grid = parse_gridmap(OFFICE_MAP)
    m = build_office_nmdp(grid, coffee_prm(), (O, STAR))
    policy = shortest_path_policy(grid, m)
    rng = np.random.default_rng(99)
    hits, n = 0, 10 ** 4
    for _ in range(n):
        trace = run_episode(m, policy, rng, 20)
        if trace[-1] == (O, 1.0):
            hits += 1
    # 6 sigma at n=1e4 is about 0.018
    assert abs(hits / n - 0.9) <= 0.02


def test_shortest_path_policy_needs_the_office_of_its_map():
    with pytest.raises(ValueError, match="not the office of this map"):
        shortest_path_policy(parse_gridmap(OFFICE_MAP), two_cell_nmdp(patrol_prm()))


# -- policies and trajectory probability ------------------------------------------


def trajectory_probability(m: Nmdp, policy, t: Trajectory) -> float:
    if t.states[0] != m.x_init:
        raise ValueError("trajectory does not start at the initial state")
    prob = 1.0
    for k, a in enumerate(t.actions):
        x, x_next = t.states[k], t.states[k + 1]
        if a not in m.available[x]:
            raise UnavailableActionError(
                "action %r unavailable at state %r" % (a, m.states[x])
            )
        dist = policy.action_probs.get(x, {m.available[x][0]: 1.0})
        prob *= dist.get(a, 0.0) * float(m.p[(x, a)][x_next])
        if prob == 0.0:
            return 0.0
    return prob


def test_trajectory_probability_deterministic_chain():
    m = two_cell_nmdp(patrol_prm())
    t = Trajectory(states=[0, 1, 0], actions=[1, 1], labels=[C, EMPTY_LABEL])
    from prmlearn.environment import PositionalPolicy

    pure = PositionalPolicy({0: {1: 1.0}, 1: {1: 1.0}})
    assert trajectory_probability(m, pure, t) == 1.0
    # a policy assigning probability 0 to a used action
    never = PositionalPolicy({0: {0: 1.0}, 1: {0: 1.0}})
    assert trajectory_probability(m, never, t) == 0.0


def test_trajectory_probability_uniform_split():
    rng = np.random.default_rng(5)
    m = random_nmdp(rng, n_states=2, n_actions=2)
    # force a 0.5/0.5 transition on action 0 from the initial state
    m.p[(0, 0)] = np.array([0.5, 0.5])
    m.labeling[(0, 0, 0)] = EMPTY_LABEL
    m.labeling[(0, 0, 1)] = EMPTY_LABEL
    t = Trajectory(states=[0, 1], actions=[0], labels=[EMPTY_LABEL])
    assert trajectory_probability(m, uniform_policy(m), t) == pytest.approx(0.25)


def test_trajectory_probability_unavailable_action():
    m = two_cell_nmdp(patrol_prm())
    t = Trajectory(states=[0, 1], actions=[7], labels=[C])
    with pytest.raises(UnavailableActionError):
        trajectory_probability(m, uniform_policy(m), t)


# -- episodes and traces ------------------------------------------------------------


def test_terminal_labels_end_episodes():
    grid = parse_gridmap(OFFICE_MAP)
    m = build_office_nmdp(grid, coffee_prm(), (O, STAR))
    policy = shortest_path_policy(grid, m)
    rng = np.random.default_rng(1)
    trace = run_episode(m, policy, rng, 100)
    assert trace[-1][0] in (O, STAR)
    assert all(label not in (O, STAR) for label, _ in trace[:-1])


def stochastic_nmdp(seed):
    """A random NMDP with stochastic transitions and a stochastic truth."""
    rng = np.random.default_rng(seed)
    return random_nmdp(rng, n_states=3, n_actions=2, props=("a", "b"),
                       truth=random_prm(rng, 3, ["a", "b"], [0.0, 1.0, 2.0]))


def test_collect_traces_deterministic_and_job_independent():
    m = stochastic_nmdp(4)
    policy = uniform_policy(m)
    a = collect_traces(m, policy, 51, seed=4, n_episode=10)
    assert len(a) == 51
    # jobs deal the episodes round-robin; the traces come back in order
    for jobs in (1, 2, 3):
        assert collect_traces(m, policy, 51, seed=4, n_episode=10, jobs=jobs) == a
    assert collect_traces(m, policy, 51, seed=5, n_episode=10) != a


SPAWN_SEEDS = [0, 7, 2**32, 2**64 + 7, np.uint64(2**63), 2**130 + 3]


@pytest.mark.parametrize("seed", SPAWN_SEEDS)
@pytest.mark.parametrize("n", [0, 1, 51])
def test_collect_traces_are_episodes_on_spawned_generators(seed, n):
    m = stochastic_nmdp(n)
    policy = uniform_policy(m)
    expected = [run_episode(m, policy, np.random.default_rng(child), 8)
                for child in np.random.SeedSequence(seed).spawn(n)]
    assert collect_traces(m, policy, n, seed, 8) == expected


@settings(max_examples=50, deadline=None)
@given(seed=st.one_of(st.sampled_from(SPAWN_SEEDS), st.integers(0, 2**160)), n=st.integers(0, 12))
def test_spawn_states_are_the_states_of_spawned_pcg64(seed, n):
    expected = []
    for child in np.random.SeedSequence(seed).spawn(n):
        state = np.random.PCG64(child).state["state"]
        expected.append((state["state"], state["inc"]))
    assert spawn_states(seed, n) == expected


@pytest.mark.parametrize("seed", [-1, -2**32, -2**64 - 5])
def test_spawn_states_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(seed)
    with pytest.raises(ValueError, match="seed %d is negative" % seed):
        spawn_states(seed, 2)


@pytest.mark.parametrize("episodes", [2.5, True, -1, "3", None])
def test_collect_traces_rejects_bad_episode_counts(episodes):
    m = two_cell_nmdp(patrol_prm())
    with pytest.raises(ValueError, match="episodes"):
        collect_traces(m, uniform_policy(m), episodes, seed=0, n_episode=5)


@pytest.mark.parametrize("n_episode", [0, -2, 1.5, False, "5"])
def test_collect_traces_rejects_bad_episode_lengths(n_episode):
    m = two_cell_nmdp(patrol_prm())
    with pytest.raises(ValueError, match="n_episode"):
        collect_traces(m, uniform_policy(m), 3, seed=0, n_episode=n_episode)


def test_collect_traces_takes_numpy_counts():
    m = two_cell_nmdp(patrol_prm())
    policy = uniform_policy(m)
    traces = collect_traces(m, policy, np.int64(3), seed=0, n_episode=np.uint8(4))
    assert traces == collect_traces(m, policy, 3, seed=0, n_episode=4)
    assert collect_traces(m, policy, 0, seed=0, n_episode=4) == []


def test_trace_log_round_trip(tmp_path):
    traces = [
        [(C, 0.0), (O, 1.0)],
        [],
        [(EMPTY_LABEL, 0.5)],
    ]
    path = tmp_path / "traces.log"
    save_traces(traces, path)
    assert load_traces(path) == traces  # a blank line is the empty trace
    line = trace_to_line(traces[0])
    assert line == "c;0;o;1"
    assert trace_from_line(line) == traces[0]
    with pytest.raises(ValueError):
        trace_from_line("c;0;o")


def test_load_traces_shares_equal_pairs(tmp_path):
    # equal (label, reward) pairs load as one tuple, as a collection holds
    # them, and the traces are those of parsing each line alone
    path = tmp_path / "traces.log"
    path.write_text("c;0;o;1\n\nc;0;o;1;c;0.5\no;1\n", encoding="utf-8")
    loaded = load_traces(path)
    assert loaded == [trace_from_line(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert loaded == [[(C, 0.0), (O, 1.0)], [], [(C, 0.0), (O, 1.0), (C, 0.5)], [(O, 1.0)]]
    assert loaded[0][0] is loaded[2][0] and loaded[0][1] is loaded[2][1] is loaded[3][0]
    assert len({id(pair) for trace in loaded for pair in trace}) == 3


@pytest.mark.parametrize("text, number, message", [
    ("c;0\n\nc;0;o\n", 3, "trace line has an odd number of fields: 'c;0;o\\n'"),
    ("c;x\n", 1, "reward must be a finite number: 'x'"),
    ("c;0\nq&&;1\n", 2, "malformed label"),
], ids=["odd", "reward", "label"])
def test_load_traces_names_the_line_of_a_malformed_one(text, number, message, tmp_path):
    path = tmp_path / "traces.log"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape("line %d: %s" % (number, message))):
        load_traces(path)


def test_collected_traces_share_the_truth_s_pairs():
    # every step on a truth edge appends the one (label, reward) tuple that
    # edge emits: a warm collection holds at most one pair object per edge
    # of the truth, not one per step
    from importlib import resources

    setup = load_env_config(str(resources.files("prmlearn") / "assets" / "office.yaml"))
    m = setup.nmdp
    policy = uniform_policy(m)
    cold = collect_traces(m, policy, 1000, setup.seed, setup.n_episode)
    warm = collect_traces(m, policy, 1000, setup.seed, setup.n_episode)
    assert warm == cold
    assert sum(map(len, warm)) > 100 * len(m.truth.rho)
    assert len({id(pair) for trace in cold + warm for pair in trace}) <= len(m.truth.rho)


# -- membership machines --------------------------------------------------------------


def test_membership_machine_structure():
    ap = Alphabet(["c", "o", "*"])
    machine = membership_reward_machine(ap, (C, O))
    assert machine.n_states() == 3
    assert np.argmax(machine.successor_vector(0, C)) == 1
    assert machine.rho[(0, C, 1)] == 1.0
    assert np.argmax(machine.successor_vector(0, O)) == 0
    assert machine.rho[(0, O, 0)] == 0.0
    assert np.argmax(machine.successor_vector(1, O)) == 2
    assert machine.rho[(1, O, 2)] == 1.0
    # final state absorbing with reward 0
    for label in ap.labels():
        assert np.argmax(machine.successor_vector(2, label)) == 2
        assert machine.rho[(2, label, 2)] == 0.0


def test_membership_machine_reward_is_match_length():
    ap = Alphabet(["c", "o"])
    zeta = (C, O, C)
    machine = membership_reward_machine(ap, zeta)
    rng = np.random.default_rng(0)
    for word in [(C,), (O, C), zeta, zeta + (O, O)]:
        run = machine_run(machine, word, rng)
        total = sum(r for _, r in run)
        # longest prefix of zeta matched so far
        matched, k = 0, 0
        for label in word:
            if k < len(zeta) and label == zeta[k]:
                matched += 1
                k += 1
        assert total == matched


def test_membership_machine_rejects_empty_word():
    with pytest.raises(ValueError):
        membership_reward_machine(Alphabet(["c"]), ())


# -- product MDP ------------------------------------------------------------------------


def test_product_with_trivial_machine_is_isomorphic():
    m = two_cell_nmdp(patrol_prm())
    h = single_state_zero_prm(("c",))
    prod = product(m, h)
    assert len(prod.mdp.states) == len(m.states)
    for (x, a), vec in m.p.items():
        assert np.allclose(prod.mdp.p[(x, a)], vec)
    assert all(r == 0.0 for r in prod.reward.values())


def test_product_keeps_the_terminal_labels():
    m = two_cell_nmdp(patrol_prm(), terminal_labels=(C,))
    prod = product(m, single_state_zero_prm(("c",)))
    assert prod.mdp.terminal_labels == m.terminal_labels == frozenset({C})


def test_product_rows_sum_to_one():
    rng = np.random.default_rng(11)
    m = random_nmdp(rng, n_states=3, n_actions=2, props=("a",))
    h = random_prm(rng, 3, ["a"], [0.0, 1.0])
    prod = product(m, h)
    for (i, a), vec in prod.mdp.p.items():
        assert abs(vec.sum() - 1.0) < 1e-9


def test_product_coffee_split_on_office_map():
    grid = parse_gridmap(OFFICE_MAP)
    truth = coffee_prm()
    m = build_office_nmdp(grid, truth)
    prod = product(m, truth)
    # the cell above the coffee machine, paired with machine state y0
    x = m.states.index("(3,3)")
    y0 = 0
    i = prod.pairs.index((x, y0))
    south = ACTIONS.index("S")
    vec = prod.mdp.p[(i, south)]
    x_c = m.states.index("(4,3)")
    good = prod.pairs.index((x_c, 1))
    weak = prod.pairs.index((x_c, 2))
    assert vec[good] == pytest.approx(0.9)
    assert vec[weak] == pytest.approx(0.1)


def test_product_rejects_partial_machine():
    from prmlearn import Prm

    m = two_cell_nmdp(patrol_prm())
    ap = m.ap
    partial = Prm(
        ap, [0.0], ["y0"], 0, {(0, EMPTY_LABEL): np.ones(1)}, {(0, EMPTY_LABEL, 0): 0.0}
    )
    with pytest.raises(ValueError, match="undefined"):
        product(m, partial)


# -- realizability helper -------------------------------------------------------------


def test_word_realizable():
    grid = parse_gridmap(OFFICE_MAP)
    m = build_office_nmdp(grid, coffee_prm())
    assert word_realizable(m, (C,))  # coffee is directly south of the start
    assert word_realizable(m, (C, O))
    assert word_realizable(m, (EMPTY_LABEL, EMPTY_LABEL, C))
    # re-emitting c needs a second entry into the coffee cell, impossible in one step
    assert not word_realizable(m, (C, C))
    # no cell adjacent to the start is adjacent to the coffee cell
    assert not word_realizable(m, (EMPTY_LABEL, C))
    # an episode ends on o: o may end a word, not go on
    ended = build_office_nmdp(grid, coffee_prm(), (O, STAR))
    assert word_realizable(m, (C, O, C)) and word_realizable(ended, (C, O))
    assert not word_realizable(ended, (C, O, C))


def restricted_nmdp(seed):
    """A random NMDP over {a, b} with dyadic (so partly zero) moves, where
    each state offers a random nonempty subset of its actions."""
    rng = np.random.default_rng(seed)
    m = random_nmdp(rng, n_states=4, n_actions=3, props=("a", "b"), dyadic=True)
    available = [sorted(set(rng.choice(3, size=int(rng.integers(1, 4)), replace=False).tolist()))
                 for _ in m.states]
    return dataclasses.replace(m, available=available)


def test_word_realizable_matches_the_brute_force_search():
    # every word up to length 3, on office and on random machines, of
    # which some words are realizable and some are not
    office = build_office_nmdp(parse_gridmap(OFFICE_MAP), coffee_prm())
    outcomes = []
    for m in [office] + [restricted_nmdp(seed) for seed in range(6)]:
        for n in range(4):
            for w in itertools.product(m.ap.labels(), repeat=n):
                realizable = word_realizable(m, w)
                assert realizable == (brute_force_word_realizability(m, w) is not None), w
                outcomes.append(realizable)
    assert 0 < sum(outcomes) < len(outcomes)


def ref_realizable(m, w) -> bool:
    """The rule before the label automaton: a word with a terminal label
    before its last can never be a trace prefix, and otherwise a walk over
    the sets of states that w's prefixes reach decides."""
    if any(label in m.terminal_labels for label in w[:-1]):
        return False
    frontier = {m.x_init}
    for label in w:
        frontier = {int(x_next) for x in frontier for a in m.available[x]
                    for x_next in np.flatnonzero(m.p[(x, a)]) if m.labeling[(x, a, int(x_next))] == label}
    return bool(frontier)


@st.composite
def nmdps_with_terminal_labels(draw):
    """A random NMDP over {a, b} with dyadic (so partly zero) moves, a
    nonempty subset of the actions available at each state, and up to two
    of its labels terminal."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_states, n_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    available = [sorted(draw(st.sets(st.integers(0, n_actions - 1), min_size=1))) for _ in range(n_states)]
    labels = Alphabet(("a", "b")).labels()
    return random_nmdp(rng, n_states, n_actions, props=("a", "b"), dyadic=True, available=available,
                       terminal_labels=draw(st.sets(st.sampled_from(labels), max_size=2)))


@settings(max_examples=100, deadline=None)
@given(m=nmdps_with_terminal_labels())
def test_word_realizable_agrees_with_the_old_rule_and_the_oracle(m):
    # every word up to length 4: the label automaton, the two checks it
    # replaces, and the brute-force search decide alike
    for n in range(5):
        for w in itertools.product(m.ap.labels(), repeat=n):
            realizable = word_realizable(m, w)
            assert realizable == ref_realizable(m, w), w
            assert realizable == (brute_force_word_realizability(m, w, node_budget=10 ** 6) is not None), w


def test_free_nmdp_realizes_everything():
    truth = coffee_prm()
    m = free_nmdp(truth)
    rng = np.random.default_rng(2)
    labels = truth.ap.labels()
    for _ in range(20):
        w = tuple(labels[int(rng.integers(0, len(labels)))] for _ in range(4))
        assert word_realizable(m, w)


# -- config loading ----------------------------------------------------------------------


def test_load_env_config_office():
    from importlib import resources

    path = resources.files("prmlearn") / "assets" / "office.yaml"
    setup = load_env_config(str(path))
    assert setup.n_episode == 100
    assert set(setup.terminal_labels) == {O, STAR}
    assert setup.truth.n_states() == 5
    assert setup.truth is setup.nmdp.truth   # one machine, held by the environment
    with pytest.raises(AttributeError):
        setup.truth = setup.truth
    assert setup.nmdp.x_init == setup.nmdp.states.index("(3,3)")


def test_load_env_config_missing_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("map: nothing.map\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_env_config(path)
