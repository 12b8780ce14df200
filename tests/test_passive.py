import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prmlearn import (
    Alphabet,
    PassiveConfig,
    build_office_nmdp,
    coffee_prm,
    collect_traces,
    learn_passive,
    learn_passive_from_traces,
    parse_gridmap,
    patrol_prm,
    prm_to_text,
    shortest_path_policy,
    uniform_policy,
)
from prmlearn.alphabet import EMPTY_LABEL, EPSILON
from prmlearn.environment import PositionalPolicy
from prmlearn.passive import MAX_EXPERIMENT_LEN

from conftest import C, O, STAR, ref_learn_passive, single_state_zero_prm, two_cell_nmdp

from test_environment import OFFICE_MAP


def test_config_validation():
    with pytest.raises(ValueError):
        PassiveConfig(n_check=0)
    with pytest.raises(ValueError):
        PassiveConfig(n_check=10, n_episode=0)


def test_passive_terminal_labels_may_only_repeat_the_environment_s():
    m = two_cell_nmdp(patrol_prm(), terminal_labels=(C,))
    policy = uniform_policy(m)
    for wrong in [(), (EMPTY_LABEL,), (C, EMPTY_LABEL)]:
        with pytest.raises(ValueError, match="differ from the environment's"):
            learn_passive(m, policy, 20, PassiveConfig(n_check=5, n_episode=5, terminal_labels=wrong))
    repeated = learn_passive(m, policy, 20, PassiveConfig(n_check=5, n_episode=5, terminal_labels=[C]))
    bare = learn_passive(m, policy, 20, PassiveConfig(n_check=5, n_episode=5))
    assert repeated.table.t == bare.table.t
    # every episode of the bare config stops at the environment's terminal label
    assert all(word[-1] == C for word in bare.table.t if C in word)


@pytest.mark.parametrize("jobs", [0, -3, 2.5, True])
def test_jobs_must_be_a_positive_integer(jobs):
    m = two_cell_nmdp(patrol_prm())
    with pytest.raises(ValueError, match="jobs"):
        PassiveConfig(n_check=1, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        collect_traces(m, uniform_policy(m), 3, seed=0, n_episode=5, jobs=jobs)


def test_single_trace_example():
    ap = Alphabet(["c", "o"])
    traces = [[(C, 0.0), (O, 1.0)]]
    result = learn_passive_from_traces(traces, ap, PassiveConfig(n_check=1))
    table = result.table
    # all nonempty suffixes of the label word become experiments
    assert EPSILON in table.e
    assert (O,) in table.e
    assert (C, O) in table.e
    assert table.freq((C,)) == {0.0: 1}
    assert table.freq((C, O)) == {1.0: 1}
    closed, _ = table.is_closed()
    assert closed


steps = st.tuples(st.sampled_from([EMPTY_LABEL, C, O]), st.sampled_from([0.0, 1.0]))


@settings(max_examples=80, deadline=None)
@given(pool=st.lists(st.one_of(st.lists(steps, max_size=4),
                               st.lists(steps, min_size=MAX_EXPERIMENT_LEN - 1, max_size=MAX_EXPERIMENT_LEN + 3)),
                     min_size=1, max_size=5),
       picks=st.lists(st.integers(0, 4), min_size=1, max_size=25),
       n_check=st.integers(1, 4))
def test_repeated_traces_learn_what_one_record_per_trace_learns(pool, picks, n_check):
    # traces drawn with repeats from a pool: recording each distinct trace
    # once with its count, and stopping at the first suffix E holds, give
    # the table, order of S and E, counts and machine of the plain loop
    traces = [list(pool[i % len(pool)]) for i in picks]
    assume(any(traces))
    ap = Alphabet(["c", "o"])
    result = learn_passive_from_traces(traces, ap, PassiveConfig(n_check=n_check))
    table, dropped, hypothesis = ref_learn_passive(traces, ap, n_check)
    assert result.table.s == table.s
    assert result.table.e == table.e
    assert ([(w, list(c.items())) for w, c in result.table.t.items()]
            == [(w, list(c.items())) for w, c in table.t.items()])
    assert result.report.dropped_suffixes == dropped
    assert prm_to_text(result.hypothesis) == prm_to_text(hypothesis)


@pytest.mark.parametrize("alphabet", [None, [EMPTY_LABEL, C]], ids=["observed", "given"])
def test_trace_label_outside_the_propositions_rejected(alphabet):
    ap = Alphabet(["c"])
    traces = [[(C, 0.0), (EMPTY_LABEL, 1.0)], [(frozenset({"q", "c"}), 0.0)]]
    with pytest.raises(ValueError, match="c&q"):
        learn_passive_from_traces(traces, ap, PassiveConfig(n_check=1), alphabet)


def test_suffix_length_cap_reported():
    ap = Alphabet(["c"])
    long_trace = [(C, 0.0)] * (MAX_EXPERIMENT_LEN + 3)
    result = learn_passive_from_traces([long_trace], ap, PassiveConfig(n_check=1))
    assert result.report.dropped_suffixes == 3  # the three longest suffixes
    assert max(len(e) for e in result.table.e) == MAX_EXPERIMENT_LEN


def test_stay_put_policy_single_state_machine():
    # the policy never moves: label always empty, reward always 0
    truth = single_state_zero_prm(("c",))
    m = two_cell_nmdp(truth)
    stay = PositionalPolicy({0: {0: 1.0}, 1: {0: 1.0}})
    cfg = PassiveConfig(n_check=20, n_episode=5, seed=0)
    result = learn_passive(m, stay, episodes=100, cfg=cfg)
    h = result.hypothesis
    assert h.states == ("q0", "bot")
    vec = h.successor_vector(0, EMPTY_LABEL)
    assert vec[0] == 1.0
    assert h.edge_reward(0, EMPTY_LABEL, 0) == 0.0


def test_episode_order_independence():
    ap = Alphabet(["c", "o"])
    traces = [
        [(C, 0.0), (O, 1.0)],
        [(O, 0.0)],
        [(C, 0.0), (O, 0.0)],
    ] * 30
    cfg = PassiveConfig(n_check=10)
    forward = learn_passive_from_traces(traces, ap, cfg)
    backward = learn_passive_from_traces(list(reversed(traces)), ap, cfg)
    assert forward.table.t == backward.table.t
    assert {w: forward.table.sample_count(w) for w in forward.table.t} == {
        w: backward.table.sample_count(w) for w in backward.table.t
    }
    assert set(forward.table.e) == set(backward.table.e)


def test_office_reconstruction_small():
    grid = parse_gridmap(OFFICE_MAP)
    truth = coffee_prm()
    m = build_office_nmdp(grid, truth, (O, STAR))
    policy = shortest_path_policy(grid, m)
    cfg = PassiveConfig(n_check=100, n_episode=100, seed=7)
    result = learn_passive(m, policy, episodes=2000, cfg=cfg)
    h = result.hypothesis
    dist = h.next_reward_distribution((C,), O)
    assert abs(dist[1.0] - 0.9) < 0.05
    # labels never observed under the policy have no learned transition
    labels_used = {label for _, label in h.tau}
    assert STAR not in labels_used


def test_incompleteness_preserved():
    # words the policy never produces are absorbed by the failure state
    ap = Alphabet(["c", "o"])
    traces = [[(C, 0.0), (O, 1.0)]] * 200
    result = learn_passive_from_traces(traces, ap, PassiveConfig(n_check=50))
    h = result.hypothesis
    assert h.successor_vector(h.init, O)[h.bottom] == 1.0


@pytest.mark.parametrize("traces", [[], [[], []]], ids=["no-trace", "empty-traces"])
def test_traces_without_a_step_rejected(traces):
    with pytest.raises(ValueError, match="at least one trace with a step"):
        learn_passive_from_traces(traces, Alphabet(["c"]), PassiveConfig(n_check=5))


def test_learn_passive_needs_episodes():
    m = two_cell_nmdp(patrol_prm())
    with pytest.raises(ValueError):
        learn_passive(m, PositionalPolicy({}), episodes=0, cfg=PassiveConfig(n_check=5))


def test_jobs_do_not_change_the_result():
    m = two_cell_nmdp(patrol_prm())
    from prmlearn import uniform_policy

    policy = uniform_policy(m)
    one = learn_passive(m, policy, 60, PassiveConfig(n_check=10, n_episode=5, seed=3, jobs=1))
    two = learn_passive(m, policy, 60, PassiveConfig(n_check=10, n_episode=5, seed=3, jobs=2))
    assert one.table.t == two.table.t
    assert one.hypothesis.states == two.hypothesis.states
