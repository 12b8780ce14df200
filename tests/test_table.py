import math
from collections import Counter

import numpy as np
import pytest

from prmlearn import Alphabet, ObservationTable, build_hypothesis, diff, hoeffding_threshold
from prmlearn.alphabet import EPSILON, EMPTY_LABEL
from prmlearn.table import (
    TableNotReadyError,
    diff_against_distribution,
    repair_on_frozen_data,
)

from conftest import C, O

A = frozenset({"a"})
B = frozenset({"b"})


def freq_fn(mapping):
    return lambda w: Counter(mapping.get(w, {}))


# -- the Hoeffding test ----------------------------------------------------------


def test_threshold_value_m200():
    # alpha = 1/200^3; threshold = sqrt(0.5 ln(2/alpha)) (sqrt(1/100)+sqrt(1/100))
    t = hoeffding_threshold(100, 100, 200)
    assert abs(t - 0.576) <= 1e-3
    expected = math.sqrt(0.5 * math.log(2 * 200 ** 3)) * 0.2
    assert t == pytest.approx(expected)


def test_diff_worked_examples():
    # disjoint supports, 100 samples each: gap 1.0 > ~0.576
    f = freq_fn({"s": {1.0: 100}, "t": {0.0: 100}})
    assert diff(f, "s", "t", 200) is True
    # one side empty: positivity condition fails
    f = freq_fn({"s": {}, "t": {0.0: 100}})
    assert diff(f, "s", "t", 200) is False
    # identical distributions: every gap is zero
    f = freq_fn({"s": {0.0: 50, 1.0: 50}, "t": {0.0: 50, 1.0: 50}})
    assert diff(f, "s", "t", 200) is False


def test_diff_randomized_symmetry_and_zero_counts():
    rng = np.random.default_rng(42)
    rewards = [0.0, 1.0, 2.0]
    for _ in range(10 ** 4):
        fs = {r: int(rng.integers(0, 30)) for r in rewards}
        ft = {r: int(rng.integers(0, 30)) for r in rewards}
        if rng.random() < 0.1:
            fs = {r: 0 for r in rewards}
        m_total = int(rng.integers(1, 10 ** 4))
        f = freq_fn({"s": fs, "t": ft})
        g = freq_fn({"s": ft, "t": fs})
        forward = diff(f, "s", "t", m_total)
        assert forward == diff(g, "s", "t", m_total)  # symmetry
        if sum(fs.values()) == 0 or sum(ft.values()) == 0:
            assert forward is False  # zero-count words are never different
        if fs == ft:
            assert forward is False  # identical frequency maps


def test_diff_against_distribution():
    freq = Counter({1.0: 100})
    assert diff_against_distribution(freq, {0.0: 1.0}, 200) is True
    assert diff_against_distribution(freq, {1.0: 1.0}, 200) is False
    assert diff_against_distribution(Counter(), {0.0: 1.0}, 200) is False


# -- recording --------------------------------------------------------------------


def make_table(props=("c", "o"), alphabet=None):
    return ObservationTable(Alphabet(props), alphabet)


def test_record_counts_prefixes():
    table = make_table()
    table.record([(C, 0.0), (O, 1.0)])
    assert table.freq((C,)) == Counter({0.0: 1})
    assert table.freq((C, O)) == Counter({1.0: 1})
    assert table.sample_count((C,)) == 1
    assert table.sample_count((C, O)) == 1
    assert table.sample_count(EPSILON) == 1  # one trace seen


def test_record_empty_trace_is_noop():
    table = make_table()
    table.record([])
    assert table.total_samples() == 0
    assert table.num_traces == 0


def test_record_additivity_and_order_independence():
    t1, t2 = make_table(), make_table()
    trace_a = [(C, 0.0), (O, 1.0)]
    trace_b = [(O, 0.0)]
    t1.record(trace_a)
    t1.record(trace_b)
    t2.record(trace_b)
    t2.record(trace_a)
    assert t1.t == t2.t
    assert t1.sample == t2.sample
    t1.record(trace_a)
    assert t1.freq((C,)) == Counter({0.0: 2})


def test_merge_sums_frequencies():
    t1, t2 = make_table(), make_table()
    t1.record([(C, 0.0)])
    t2.record([(C, 1.0)])
    t2.add_state((C,))
    t1.merge(t2)
    assert t1.freq((C,)) == Counter({0.0: 1, 1.0: 1})
    assert (C,) in t1.s
    assert t1.num_traces == 2


def test_untracked_words_read_empty():
    table = make_table()
    assert table.freq((C, C, C)) == Counter()
    assert table.total((C,)) == 0


# -- compatibility / closedness / consistency -----------------------------------------


def test_row_compatible_with_itself():
    table = make_table()
    table.record([(C, 0.0)])
    assert table.compatible_rows((C,), (C,))


def test_fresh_table_closed_and_consistent():
    table = make_table()
    closed, _ = table.is_closed()
    consistent, _ = table.is_consistent()
    assert closed and consistent


def test_closedness_witness():
    table = make_table(alphabet=[EMPTY_LABEL, C])
    # make row (c) clearly different from row (eps-extension) rows in S
    for _ in range(200):
        table.record([(C, 1.0)])
        table.record([(EMPTY_LABEL, 0.0)])
    closed, witness = table.is_closed()
    assert not closed
    assert witness in ((EPSILON, EMPTY_LABEL), (EPSILON, C))
    # adding the witness rows closes the table
    table.add_state((EMPTY_LABEL,))
    table.add_state((C,))
    closed, _ = table.is_closed()
    assert closed


def test_consistency_witness_adds_column():
    # two compatible rows whose c-successors differ: E={eps} cannot see the
    # difference until the witness column is added
    table = make_table(alphabet=[EMPTY_LABEL, C])
    table.add_state((EMPTY_LABEL,))
    # rows eps and (eps) look alike on column eps ...
    for _ in range(300):
        table.record([(EMPTY_LABEL, 0.0), (C, 1.0)])
        table.record([(C, 0.0)])
    # ... but their c-extensions have disjoint reward supports
    consistent, witness = table.is_consistent()
    assert not consistent
    s, s_prime, label, e = witness
    assert {s, s_prime} == {EPSILON, (EMPTY_LABEL,)}
    assert label == C
    assert e == EPSILON


def test_rank_and_representative():
    table = make_table(alphabet=[EMPTY_LABEL, C, O])
    # rank(s) sums extension totals: T(s.l1)={0:3,1:2}, T(s.l2)={0:5} -> 10
    for _ in range(3):
        table.record([(C, 0.0), (C, 0.0)])
    for _ in range(2):
        table.record([(C, 0.0), (C, 1.0)])
    for _ in range(5):
        table.record([(C, 0.0), (O, 0.0)])
    assert table.rank((C,)) == 10
    # singleton class: representative is the word itself
    assert table.representative(EPSILON) == EPSILON
    # two compatible words: the higher-rank one wins
    table.add_state((C,))
    for _ in range(5):
        table.record([(EMPTY_LABEL, 0.0), (C, 0.0)])
    # (eps-label) row compatible with (c) row; (c) has higher rank
    assert table.rank((C,)) > table.rank((EMPTY_LABEL,))


# -- hypothesis construction ------------------------------------------------------------


def test_build_hypothesis_single_row():
    table = make_table(props=("a",), alphabet=[EMPTY_LABEL])
    for _ in range(10):
        table.record([(EMPTY_LABEL, 0.0)])
    repair_on_frozen_data(table)
    h = build_hypothesis(table, n_check=5)
    assert h.states == ("q0", "bot")
    vec = h.successor_vector(0, EMPTY_LABEL)
    assert vec[0] == 1.0
    assert h.edge_reward(0, EMPTY_LABEL, 0) == 0.0


def test_build_hypothesis_undersampled_goes_to_bottom():
    table = make_table(props=("a",), alphabet=[EMPTY_LABEL])
    for _ in range(3):
        table.record([(EMPTY_LABEL, 0.0)])
    repair_on_frozen_data(table)
    h = build_hypothesis(table, n_check=100)
    # every label from the sampled state routes to the failure state
    vec = h.successor_vector(0, EMPTY_LABEL)
    assert vec[h.bottom] == 1.0
    assert h.bottom_mass((EMPTY_LABEL,)) == 1.0


def test_build_hypothesis_requires_closed_and_consistent():
    table = make_table(alphabet=[EMPTY_LABEL, C])
    for _ in range(200):
        table.record([(C, 1.0)])
        table.record([(EMPTY_LABEL, 0.0)])
    with pytest.raises(TableNotReadyError):
        build_hypothesis(table, n_check=5)


def test_build_hypothesis_estimates_split():
    rng = np.random.default_rng(0)
    table = make_table(alphabet=[C, O])
    for _ in range(1000):
        r = 1.0 if rng.random() < 0.9 else 0.0
        table.record([(C, 0.0), (O, r)])
    repair_on_frozen_data(table)
    h = build_hypothesis(table, n_check=50)
    dist = h.next_reward_distribution((C,), O)
    assert abs(dist[1.0] - 0.9) < 0.05
    assert h.is_total()  # implicit failure routing makes hypotheses total


def test_build_hypothesis_zero_data_labels_are_implicit():
    # labels never observed have no materialized transition: exports stay
    # free of edges the data does not support
    table = make_table(alphabet=[C, O])
    for _ in range(100):
        table.record([(C, 0.0)])
    repair_on_frozen_data(table)
    h = build_hypothesis(table, n_check=50)
    labels_used = {label for _, label in h.tau}
    assert O not in labels_used


def test_repair_on_frozen_data_terminates():
    rng = np.random.default_rng(3)
    table = make_table(alphabet=[EMPTY_LABEL, C, O])
    for _ in range(500):
        trace = []
        for _ in range(int(rng.integers(1, 5))):
            label = [EMPTY_LABEL, C, O][int(rng.integers(0, 3))]
            trace.append((label, float(rng.integers(0, 2))))
        table.record(trace)
    repair_on_frozen_data(table)
    closed, _ = table.is_closed()
    consistent, _ = table.is_consistent()
    assert closed and consistent


# -- serialization ------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    table = make_table()
    table.record([(C, 0.0), (O, 1.0)])
    table.record([(C, 0.0)])
    for _ in range(5):
        table.record([(O, 0.0), (C, 0.0)])
    path = tmp_path / "table.csv"
    table.to_csv(path)
    again = ObservationTable.from_csv(path, Alphabet(["c", "o"]))
    assert again.freq((C,)) == table.freq((C,))
    assert again.freq((C, O)) == table.freq((C, O))
    assert again.freq((O, C)) == table.freq((O, C))
    assert again.sample_count((C,)) == table.sample_count((C,))
    # traces with different first labels all count toward epsilon
    assert again.num_traces == table.num_traces == 7
    assert again.sample_count(()) == table.sample_count(()) == 7
    assert again.total_samples() == table.total_samples()
