import csv
import math
import os
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prmlearn import Alphabet, ObservationTable, PassiveConfig, build_hypothesis, diff, hoeffding_threshold
from prmlearn import passive
import prmlearn
from prmlearn.alphabet import EPSILON, EMPTY_LABEL, format_reward, word_str
from prmlearn.environment import collect_traces, load_env_config, uniform_policy
from prmlearn.machine import prm_from_text, prm_to_text
from prmlearn.table import (
    CSV_COLUMNS,
    REPAIR_MAX_STEPS,
    TableNotReadyError,
    _differ,
    _hoeffding_factor,
    diff_against_distribution,
    is_counterexample,
    repair_on_frozen_data,
)

from conftest import C, O, random_prm, ref_is_counterexample

OFFICE = Path(prmlearn.__file__).resolve().parent / "assets" / "office.yaml"
A = frozenset({"a"})
B = frozenset({"b"})


def rows(table, *words):
    """The ids that name `words` as rows of the table."""
    return [table.row(word) for word in words]


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


def positive_counts(split):
    return {gamma: count for gamma, count in split.items() if count > 0}


def test_a_gap_equal_to_the_threshold_does_not_differ():
    # n = m = 4 makes the threshold factor * (1/2 + 1/2) = factor exactly
    shared, only_second = ({0.0: 2, 1.0: 2}, {0.0: 3, 1.0: 1}), ({0.0: 3, 1.0: 1}, {0.0: 2, 2.0: 2})
    for (f, g), gap in ((shared, 0.25), (only_second, 0.5)):
        assert _differ(f, 4, g, 4, gap) is False
        assert _differ(f, 4, g, 4, gap * 0.999) is True


def test_sparse_words_never_differ():
    # the row sweeps skip a word with n samples whenever
    # factor * sqrt(1/n) >= 1: its threshold is then at least 1, and no gap
    # between two frequencies exceeds 1
    skipped = differed = 0
    for m_total in (1, 2, 3, 7, 60, 10 ** 3, 10 ** 6):
        factor = _hoeffding_factor(m_total)
        for n in range(1, 26):
            sparse = factor * math.sqrt(1.0 / n) >= 1.0
            # a dense second word has the smallest threshold
            for n_prime in (1, 2, 3, 5, 8, 13, 21, 25, 10 ** 3, 10 ** 6):
                for k in range(n + 1):
                    for k_prime in (0, n_prime // 2, n_prime):
                        # zero counts are left out, so a reward of only one
                        # word reaches both of the test's loops
                        f = freq_fn({
                            "s": positive_counts({1.0: k, 0.0: n - k}),
                            "t": positive_counts({1.0: k_prime, 2.0: n_prime - k_prime}),
                        })
                        verdict = diff(f, "s", "t", m_total)
                        if sparse:
                            skipped += 1
                            assert verdict is False, (m_total, n, n_prime, k, k_prime)
                        differed += verdict
    # the enumeration reaches both sides of the bound
    assert skipped and differed


def test_diff_against_distribution():
    freq = Counter({1.0: 100})
    assert diff_against_distribution(freq, {0.0: 1.0}, 200) is True
    assert diff_against_distribution(freq, {1.0: 1.0}, 200) is False
    assert diff_against_distribution(Counter(), {0.0: 1.0}, 200) is False


def ref_diff_against_distribution(freq, dist, m_total):
    """diff_against_distribution as it was: `diff` on a lookup of the
    frequency map and the distribution scaled to its sample size."""
    n = sum(freq.values())
    if n == 0:
        return False
    scaled = {gamma: p * n for gamma, p in dist.items()}
    lookup = {0: freq, 1: scaled}
    return diff(lambda w: lookup[w], 0, 1, m_total)


DIFF_REWARDS = [0.0, 0.5, 1.0, 2.0]


@settings(max_examples=400, deadline=None)
@given(f_s=st.dictionaries(st.sampled_from(DIFF_REWARDS), st.integers(0, 400)),
       f_t=st.dictionaries(st.sampled_from(DIFF_REWARDS), st.integers(0, 400)),
       m_total=st.integers(1, 10 ** 5))
def test_diff_is_the_hoeffding_test_written_out(f_s, f_t, m_total):
    # the test as the paper states it: two words differ when some reward
    # of either word has |f_s(gamma)/n - f_t(gamma)/n'| above the threshold
    n, n_prime = sum(f_s.values()), sum(f_t.values())
    if n == 0 or n_prime == 0:
        expected = False
    else:
        threshold = hoeffding_threshold(n, n_prime, m_total)
        expected = any(abs(f_s.get(g, 0) / n - f_t.get(g, 0) / n_prime) > threshold
                       for g in set(f_s) | set(f_t))
    lookup = {"s": f_s, "t": f_t}
    assert diff(lookup.get, "s", "t", m_total) == expected
    assert diff(lookup.get, "t", "s", m_total) == expected
counters = st.dictionaries(st.sampled_from(DIFF_REWARDS), st.integers(0, 400)).map(Counter)
dyadic_dists = st.dictionaries(st.sampled_from(DIFF_REWARDS), st.integers(0, 64), min_size=1).map(
    lambda parts: {g: k / 64 for g, k in parts.items()}
)
float_dists = st.dictionaries(st.sampled_from(DIFF_REWARDS), st.floats(1e-6, 1.0), min_size=1).map(
    lambda parts: {g: p / sum(parts.values()) for g, p in parts.items()}
)


@settings(max_examples=400, deadline=None)
@given(freq=counters, dist=st.one_of(dyadic_dists, float_dists), m_total=st.integers(1, 10 ** 5))
def test_diff_against_distribution_matches_reference(freq, dist, m_total):
    assert diff_against_distribution(freq, dist, m_total) == ref_diff_against_distribution(
        freq, dist, m_total
    )


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
    # traces with different first labels all count toward epsilon
    table.record([(C, 0.0)])
    for _ in range(5):
        table.record([(O, 0.0), (C, 0.0)])
    assert table.num_traces == table.sample_count(EPSILON) == 7
    assert table.total_samples() == 13


def test_freq_and_t_hand_out_copies():
    table, untouched = make_table(), make_table()
    for t in (table, untouched):
        t.record([(C, 0.0)])
    table.freq((C,))[0.0] = 0
    table.t[(C,)][1.0] = 7
    assert table.total((C,)) == 1
    assert table.freq((C,)) == {0.0: 1}
    assert table.t == {(C,): {0.0: 1}}
    # the edits reach none of the table's tests: S = {ε} covers no row of c
    assert table.is_closed() == untouched.is_closed() == (False, (EPSILON, C))


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
    assert {w: t1.sample_count(w) for w in t1.t} == {w: t2.sample_count(w) for w in t2.t}
    t1.record(trace_a)
    assert t1.freq((C,)) == Counter({0.0: 2})


@settings(max_examples=100, deadline=None)
@given(recorded=st.lists(st.tuples(st.lists(st.tuples(st.sampled_from([EMPTY_LABEL, C, O]),
                                                      st.sampled_from([0.0, 1.0])), max_size=5),
                                   st.integers(1, 50)), max_size=8),
       query=st.lists(st.tuples(st.sampled_from([EMPTY_LABEL, C, O]), st.just(0.0)), max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_is_counterexample_walk_matches_word_lookups(recorded, query, seed):
    # recorded traces and others, which leave the recorded words part way:
    # the check's walk over word ids reads the counts that word lookups
    # read, against a random machine and one whose failure state absorbs o
    table = make_table()
    for trace, times in recorded:
        table.record(trace, times)
    partial = prm_from_text("\n".join([
        "ap: c,o", "gamma: 0,1", "init: q0", "bottom: bot", "implicit_bottom: true",
        "q0 --c/0--> q0 : 1.0", "q0 --ε/1--> q0 : 1.0",
    ]))
    for h in (random_prm(np.random.default_rng(seed), 2, ("c", "o"), [0.0, 1.0]), partial):
        for trace in [trace for trace, _ in recorded] + [query]:
            for n_check in (1, 5, 40):
                assert is_counterexample(table, h, trace, n_check) == ref_is_counterexample(
                    table, h, trace, n_check)


def test_untracked_words_read_empty():
    table = make_table()
    assert table.freq((C, C, C)) == Counter()
    assert table.total((C,)) == 0


def test_freq_of_a_word_without_counts_is_a_new_dict():
    table = make_table()
    table.add_state((O,))   # an id without counts
    for word in [(C,), (O,)]:
        table.freq(word)[1.0] = 5
        assert table.freq(word) == {} and table.total(word) == 0
    assert make_table().freq((C,)) == {}


@pytest.mark.parametrize("times", [0, -3, 2.5, True])
def test_record_rejects_times_that_are_not_positive_ints(times):
    table = make_table()
    for trace in ([(C, 0.0)], []):
        with pytest.raises(ValueError, match="times must be a positive integer"):
            table.record(trace, times)
    assert table.num_traces == table.total_samples() == 0 and table.t == {}
    assert table.is_closed() == (True, None)


def test_numpy_counts_are_stored_as_ints_past_the_cube_s_wrap():
    # 6e6 samples: M^3 wraps in int64 past M = 2^21
    table = make_table()
    table.record([(C, 1.0)] * 3, np.int64(2_000_000))
    assert type(table.num_traces) is int and type(table.total_samples()) is int
    assert_counts_are_positive_int_dicts(table)
    m_total = table.total_samples()
    factor = math.sqrt(0.5 * math.log(2.0 / (1.0 / m_total ** 3)))
    for m in (np.int64(m_total), m_total):
        _hoeffding_factor.cache_clear()
        assert _hoeffding_factor(m) == factor
        assert hoeffding_threshold(100, 400, m) == factor * (math.sqrt(1.0 / 100) + math.sqrt(1.0 / 400))
        assert diff(freq_fn({(C,): {0.0: 100}, (O,): {1.0: 100}}), (C,), (O,), m)
    assert is_counterexample(table, prm_from_text(
        "ap: c,o\ngamma: 0,1\ninit: q0\nq0 --c/0--> q0 : 1.0"), [(C, 1.0)], n_check=1) == (C,)


def assert_counts_are_positive_int_dicts(table):
    """Every word's counts are a plain dict of positive int counts: the
    sweeps' sqrt(1/n) needs n > 0."""
    for counts in table._counts:
        if counts is not None:
            assert type(counts) is dict and counts
            assert all(type(n) is int and n > 0 for n in counts.values())


@settings(max_examples=100, deadline=None)
@given(recorded=st.lists(st.tuples(st.lists(st.tuples(st.sampled_from([EMPTY_LABEL, C, O]),
                                                      st.sampled_from([0, 0.0, 1.0])), max_size=4),
                                   st.integers(-2, 5)), max_size=8))
def test_record_returns_the_word_id_and_keeps_positive_int_counts(recorded):
    table = make_table()
    for trace, times in recorded:
        if times < 1:
            with pytest.raises(ValueError, match="times"):
                table.record(trace, times)
        else:
            assert table.record(trace, times) == table.row(tuple(label for label, _ in trace))
        assert_counts_are_positive_int_dicts(table)


def recorded_steps_cost(traces):
    """The bytes tracemalloc sees a table keep after recording `traces`."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = ObservationTable(Alphabet(["a"]))
        for trace in traces:
            table.record(trace)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_table_memory_is_linear_in_logged_steps():
    # random words over two labels share only short prefixes, so nearly
    # every step adds a word; a table that kept each word's tuple would
    # cost about length^2 per trace
    rng = np.random.default_rng(0)
    labels = [EMPTY_LABEL, A]

    def traces(length):
        return [[(labels[k], float(r)) for k, r in rng.integers(0, 2, (length, 2))] for _ in range(100)]

    short, long = traces(100), traces(400)
    assert recorded_steps_cost(long) <= 5 * recorded_steps_cost(short)


@settings(max_examples=100, deadline=None)
@given(recorded=st.lists(st.lists(st.tuples(st.sampled_from([EMPTY_LABEL, C, O]),
                                            st.sampled_from([0.0, 1.0])), max_size=5), max_size=12),
       n=st.integers(0, 6))
def test_sampled_words_are_the_words_of_t_with_n_samples(recorded, n):
    table = make_table()
    for trace in recorded:
        table.record(trace)
    assert table.sampled_words(n) == [w for w in table.t if table.sample_count(w) >= n]


def table_state(table):
    """What a table holds: its words and counts in id order, each count's
    rewards in their order, the sample totals, the rewards and the CSV bytes."""
    return ([(w, list(c.items())) for w, c in table.t.items()], table.num_traces,
            table.total_samples(), table.rewards,
            csv_bytes(ObservationTable.to_csv, table))


@settings(max_examples=100, deadline=None)
@given(recorded=st.lists(st.tuples(st.lists(st.tuples(st.sampled_from([EMPTY_LABEL, C, O]),
                                                      st.sampled_from([0, 0.0, 1.0])), max_size=4),
                                   st.integers(1, 5)), max_size=6))
@example(recorded=[([], 3), ([(C, 0.0)], 1), ([(C, 1.0), (O, 0)], 4), ([], 1), ([(C, 0.0), (O, 1.0)], 1)])
def test_record_times_gives_the_table_of_k_records(recorded):
    # record(trace, k), which passive learning calls with a trace's count,
    # is k calls of record(trace); k = 1 and an empty trace included
    one, many = make_table(), make_table()
    for trace, k in recorded:
        one.record(trace, k)
        for _ in range(k):
            many.record(trace)
        assert table_state(one) == table_state(many)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("record"), st.lists(st.tuples(st.sampled_from([EMPTY_LABEL, C, O]),
                                                    st.sampled_from([0.0, 1.0])), max_size=5),
              st.integers(1, 4)),
    st.tuples(st.just("state"), st.lists(st.sampled_from([EMPTY_LABEL, C, O]), min_size=1, max_size=4).map(tuple)),
), max_size=14), n=st.integers(0, 6))
def test_kept_sample_counts_are_the_sums_of_the_counts(ops, n):
    # every read of a word's sample count against a reference that adds
    # its counts up; add_state gives a word that was never recorded an id
    # without counts, which a later record may fill
    table = make_table()
    for op in ops:
        if op[0] == "record":
            table.record(op[1], op[2])
        elif not table.freq(op[1]):
            table.add_state(op[1])
        for node, counter in enumerate(table._counts):
            assert table._n[node] == (0 if counter is None else sum(counter.values()))
        for word in map(table.word, range(len(table._counts))):
            total = sum(table.freq(word).values())
            assert table.total(word) == total
            assert table.sample_count(word) == (total if word else table.num_traces)
        assert table.sampled_words(n) == [w for w, counter in table.t.items() if sum(counter.values()) >= n]
    assert csv_bytes(ObservationTable.to_csv, table) == csv_bytes(write_csv_by_t, table)


# -- compatibility / closedness / consistency -----------------------------------------


def test_row_compatible_with_itself():
    table = make_table()
    table.record([(C, 0.0)])
    assert table.compatible_rows(*rows(table, (C,), (C,)))


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
    assert table.rank(table.row((C,))) == 10
    # singleton class: a word resolves to itself
    assert table.resolve_to_member(table.row(EPSILON)) == table.row(EPSILON)
    table.add_state((C,))
    for _ in range(5):
        table.record([(EMPTY_LABEL, 0.0), (C, 0.0)])
    # (eps-label) row compatible with (c) row; (c) has higher rank
    assert table.rank(table.row((C,))) > table.rank(table.row((EMPTY_LABEL,)))
    # eps shares no sampled column with (eps-label), so (c) is preferred
    assert table.resolve_to_member(table.row((EMPTY_LABEL,))) == table.row((C,))
    # two compatible members with shared evidence: the higher-rank one wins,
    # even over the word itself
    table.add_state((EMPTY_LABEL,))
    assert table.resolve_to_member(table.row((EMPTY_LABEL,))) == table.row((C,))


def replayed(table, traces):
    """A fresh table with `traces` recorded and then table's S and E added
    in their order: the table's counts, S and E with no cache behind them."""
    fresh = ObservationTable(table.ap, table.alphabet)
    for trace in traces:
        fresh.record(trace)
    for s in table.s[1:]:
        fresh.add_state(table.word(s))
    for e in table.e[1:]:
        fresh.add_experiment(e)
    return fresh


def representatives(table):
    """{row word: the word of the member it resolves to} over S and its extensions."""
    rows = set(table.s) | {table._child[(s, label)] for s in table.s for label in table.alphabet
                           if (s, label) in table._child}
    return {table.word(w): table.word(table.resolve_to_member(w)) for w in rows}


def test_row_preferences_follow_new_counts():
    table = make_table(alphabet=[EMPTY_LABEL, C, O])
    traces = [[(C, 0.0), (C, 0.0)]] * 5 + [[(EMPTY_LABEL, 0.0), (C, 0.0)]] * 3
    for trace in traces:
        table.record(trace)
    table.add_state((C,))
    table.add_state((EMPTY_LABEL,))
    c, empty = table.row((C,)), table.row((EMPTY_LABEL,))
    # compatible rows sharing the column ε: the higher rank stands for both
    assert (table.rank(c), table.rank(empty)) == (5, 3)
    assert table.resolve_to_member(empty) == table.resolve_to_member(c) == c
    before = prm_to_text(build_hypothesis(table, n_check=1))
    more = [[(EMPTY_LABEL, 0.0), (O, 0.0)]] * 4
    for trace in more:
        table.record(trace)
    assert (table.rank(c), table.rank(empty)) == (5, 7)
    assert table.resolve_to_member(c) == table.resolve_to_member(empty) == empty
    fresh = replayed(table, traces + more)
    assert representatives(table) == representatives(fresh)
    after = prm_to_text(build_hypothesis(table, n_check=1))
    assert after == prm_to_text(build_hypothesis(fresh, n_check=1)) and after != before


@pytest.mark.parametrize("seed", range(6))
def test_representatives_and_hypotheses_match_a_fresh_table_after_each_batch(seed):
    rng = np.random.default_rng(seed)
    labels = [EMPTY_LABEL, C, O]
    table = make_table(alphabet=labels)
    for label in labels:
        table.add_state((label,))
    traces, reordered = [], False
    for _ in range(4):
        # each batch favours other labels, so other rows gain extensions
        weights = rng.dirichlet([0.5] * 3)
        batch = [[(labels[int(rng.choice(3, p=weights))], float(rng.integers(0, 2)))
                  for _ in range(int(rng.integers(1, 5)))] for _ in range(int(rng.integers(20, 80)))]
        order = sorted(table.s, key=table._preference)
        for trace in batch:
            table.record(trace)
        traces += batch
        reordered |= sorted(table.s, key=table._preference) != order
        repair_on_frozen_data(table)
        fresh = replayed(table, traces)
        assert ([fresh.word(s) for s in fresh.s], fresh.e) == ([table.word(s) for s in table.s], table.e)
        assert representatives(table) == representatives(fresh)
        assert (prm_to_text(build_hypothesis(table, n_check=10))
                == prm_to_text(build_hypothesis(fresh, n_check=10)))
    assert reordered


# -- row sweeps against the full column loops ------------------------------------------
#
# The table's sweeps visit only the experiment columns both rows have
# samples for; these are the loops over all of E they replace.


def ref_compatible_rows(table, s, s_prime):
    m_total = max(table.total_samples(), 1)
    return not any(diff(table.freq, s + e, s_prime + e, m_total) for e in table.e)


def ref_rows_share_evidence(table, s, s_prime):
    return any(table.total(s + e) > 0 and table.total(s_prime + e) > 0 for e in table.e)


def ref_row_has_data(table, s):
    return any(table.total(s + e) > 0 for e in table.e)


def ref_is_closed(table):
    states = [table.word(s) for s in table.s]
    for s in states:
        for label in table.alphabet:
            extended = s + (label,)
            if not ref_row_has_data(table, extended):
                continue
            covered = any(
                ref_compatible_rows(table, extended, s_prime)
                and (s_prime == extended or ref_rows_share_evidence(table, extended, s_prime))
                for s_prime in states
            )
            if not covered:
                return False, (s, label)
    return True, None


def ref_is_consistent(table):
    m_total = max(table.total_samples(), 1)
    states = [table.word(s) for s in table.s]
    for i, s in enumerate(states):
        for s_prime in states[i + 1:]:
            if not ref_compatible_rows(table, s, s_prime):
                continue
            for label in table.alphabet:
                left, right = s + (label,), s_prime + (label,)
                for e in table.e:
                    if diff(table.freq, left + e, right + e, m_total):
                        return False, (s, s_prime, label, e)
    return True, None


def sweep(table):
    """Every sweep result over the rows S and S.alphabet, checked against
    the reference loops; returns the closedness and consistency results."""
    states = [table.word(s) for s in table.s]
    words = list(dict.fromkeys(states + [s + (label,) for s in states for label in table.alphabet]))
    rows = []   # (word, its id) over the words that have an id
    for u in words:
        if table.row(u) is None:
            # a word without an id has no samples, and the sweeps skip it
            assert not ref_row_has_data(table, u)
        else:
            rows.append((u, table.row(u)))
    for u, row_u in rows:
        assert table.row_has_data(row_u) == ref_row_has_data(table, u)
        for v, row_v in rows:
            # the verdict is memoised per unordered pair: ask both orders
            expected = ref_compatible_rows(table, u, v)
            assert table.compatible_rows(row_u, row_v) == expected
            assert table.compatible_rows(row_v, row_u) == expected
            assert table.rows_share_evidence(row_u, row_v) == ref_rows_share_evidence(table, u, v)
    closed, consistent = table.is_closed(), table.is_consistent()
    assert closed == ref_is_closed(table)
    assert consistent == ref_is_consistent(table)
    return closed, consistent


SWEEP_LABELS = [EMPTY_LABEL, C, O]
sweep_words = st.lists(st.sampled_from(SWEEP_LABELS), min_size=1, max_size=2).map(tuple)
# experiments of up to three labels share prefixes and arrive out of length
# order, so a row's walk of E's trie finds its columns out of E order
experiment_words = st.lists(st.sampled_from(SWEEP_LABELS), min_size=1, max_size=3).map(tuple)
# repeated traces: the Hoeffding test needs tens of samples per word to fire
sweep_traces = st.tuples(
    st.lists(st.tuples(st.sampled_from(SWEEP_LABELS), st.sampled_from([0.0, 1.0])), max_size=4),
    st.integers(1, 60),
)
sweep_ops = st.one_of(
    st.tuples(st.just("record"), sweep_traces),
    st.tuples(st.just("state"), sweep_words),
    st.tuples(st.just("experiment"), experiment_words),
    st.tuples(st.just("sweep")),
)
# a word outside the sweep rows and columns, whose samples raise the total M
# and with it the number of samples a word needs to be tested
PAD_LABEL = frozenset({"c", "o"})


def record_repeated(table, traces):
    for trace, times in traces:
        for _ in range(times):
            table.record(trace)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(sweep_ops, max_size=14), pad=st.sampled_from([10 ** 4, 10 ** 6]))
def test_row_sweeps_match_full_column_loops(ops, pad):
    table = make_table(alphabet=SWEEP_LABELS)
    for op in ops:
        if op[0] == "record":
            record_repeated(table, [op[1]])
        elif op[0] == "state":
            table.add_state(op[1])
        elif op[0] == "experiment":
            table.add_experiment(op[1])
        else:
            # the second sweep reads what the first one cached
            assert sweep(table) == sweep(table)
    sweep(table)

    # the same counts at a large M: the recorded counts (1 to a few
    # hundred) straddle factor^2, about 14 at M = 10^4 and 21 at 10^6
    padded = make_table(alphabet=SWEEP_LABELS)
    record_repeated(padded, [op[1] for op in ops if op[0] == "record"])
    padded.record([(PAD_LABEL, 0.0)], pad)
    for s in table.s:
        padded.add_state(table.word(s))
    for word in table.e:
        padded.add_experiment(word)
    sweep(padded)


@settings(max_examples=60, deadline=None)
@given(
    traces=st.lists(
        st.lists(st.tuples(st.sampled_from(SWEEP_LABELS), st.sampled_from([0.0, 1.0])),
                 min_size=1, max_size=2),
        min_size=1, max_size=3),
    states=st.lists(sweep_words, max_size=3),
    experiments=st.lists(experiment_words, max_size=4),
)
def test_row_sweeps_match_full_column_loops_at_small_sample_totals(traces, states, experiments):
    # M is 1 to 6 here; at M = 1 the factor is below 1, so every word is tested
    assert _hoeffding_factor(1) < 1.0
    table = make_table(alphabet=SWEEP_LABELS)
    for trace in traces:
        table.record(trace)
    for word in states:
        table.add_state(word)
    for word in experiments:
        table.add_experiment(word)
    sweep(table)


# -- the verdict path against the one that added the counts up -------------------------
#
# The row tests as they were written before each word kept its sample
# count: every read adds a word's counts up, and a row test asks
# `_columns` for both rows' columns and takes the Hoeffding factor before
# it looks at a single word pair.


class RefVerdictTable(ObservationTable):
    def samples(self, node):
        counter = None if node is None else self._counts[node]
        return 0 if counter is None else sum(counter.values())

    def _columns(self, s):
        cols = self._cols.get(s)
        if cols is None:
            hits = []
            child, counts = self._child, self._counts
            stack = [(self._e_trie, s)]
            while stack:
                (i, kids), node = stack.pop()
                if i is not None:
                    counter = counts[node]
                    if counter is not None:
                        hits.append((i, node, sum(counter.values())))
                for label, sub in kids.items():
                    nxt = child.get((node, label))
                    if nxt is not None:
                        stack.append((sub, nxt))
            hits.sort()
            factor = _hoeffding_factor(max(self._total_samples, 1))
            cols = self._cols[s] = (
                {i for i, _, _ in hits},
                {i: node for i, node, n in hits if factor * math.sqrt(1.0 / n) < 1.0},
            )
        return cols

    def _first_difference(self, s, s_prime):
        cols, cols_prime = self._columns(s)[1], self._columns(s_prime)[1]
        factor = _hoeffding_factor(max(self._total_samples, 1))
        pairs, counts = self._pairs, self._counts
        if len(cols_prime) < len(cols):
            cols, cols_prime = cols_prime, cols
        for i, a in cols.items():
            b = cols_prime.get(i)
            if b is None:
                continue
            key = (a, b) if a < b else (b, a)
            differ = pairs.get(key)
            if differ is None:
                f, g = counts[a], counts[b]
                differ = pairs[key] = _differ(f, sum(f.values()), g, sum(g.values()), factor)
            if differ:
                return i
        return None

    def compatible_rows(self, s, s_prime):
        key = (s, s_prime) if s < s_prime else (s_prime, s)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._first_difference(s, s_prime) is None
        return verdict

    def _closedness(self):
        for s in self.s:
            for label in self.alphabet:
                extended = self._child.get((s, label))
                if extended is None or not self.row_has_data(extended):
                    continue
                covered = any(
                    self.compatible_rows(extended, s_prime)
                    and (s_prime == extended or self.rows_share_evidence(extended, s_prime))
                    for s_prime in self.s
                )
                if not covered:
                    return False, (self.word(s), label)
        return True, None

    def _consistency(self):
        for i, s in enumerate(self.s):
            for s_prime in self.s[i + 1:]:
                if not self.compatible_rows(s, s_prime):
                    continue
                for label in self.alphabet:
                    left, right = self._child.get((s, label)), self._child.get((s_prime, label))
                    if left is None or right is None or self.compatible_rows(left, right):
                        continue
                    first = self._first_difference(left, right)
                    return False, (self.word(s), self.word(s_prime), label, self.e[first])
        return True, None

    def _preference(self, s):
        preference = self._preferences.get(s)
        if preference is None:
            word = self.word(s)
            preference = self._preferences[s] = (-self.rank(s), len(word), word_str(word))
        return preference


def assert_row_verdicts_agree(table, ref):
    """Both tables hold the same words under the same ids: every pair of
    rows of S and S.alphabet gets the same verdict and first difference."""
    assert table._parent == ref._parent and table.s == ref.s and table.e == ref.e
    ids = set(table.s) | {table._child[(s, label)] for s in table.s for label in table.alphabet
                          if (s, label) in table._child}
    for u in ids:
        for v in ids:
            assert table.compatible_rows(u, v) == ref.compatible_rows(u, v), (u, v)
            assert table._first_difference(u, v) == ref._first_difference(u, v), (u, v)


def assert_verdict_paths_agree(table, ref, n_check):
    """The closedness and consistency witnesses of a repair on frozen data,
    step by step, the row verdicts before and after it, and the hypothesis."""
    assert_row_verdicts_agree(table, ref)
    for _ in range(REPAIR_MAX_STEPS):
        closed = table.is_closed()
        assert closed == ref.is_closed()
        if not closed[0]:
            s, label = closed[1]
            table.add_state(s + (label,))
            ref.add_state(s + (label,))
            continue
        consistent = table.is_consistent()
        assert consistent == ref.is_consistent()
        if not consistent[0]:
            _, _, label, e = consistent[1]
            table.add_experiment((label,) + e)
            ref.add_experiment((label,) + e)
            continue
        break
    assert_row_verdicts_agree(table, ref)
    assert prm_to_text(build_hypothesis(table, n_check)) == prm_to_text(build_hypothesis(ref, n_check))


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.one_of(sweep_ops, st.tuples(st.just("pad"), st.sampled_from([10 ** 2, 10 ** 4]))),
                    max_size=14))
@example(ops=[("record", ([(C, 1.0)], 30)), ("record", ([(O, 0.0)], 30)), ("sweep",), ("pad", 100), ("sweep",)])
def test_verdict_path_matches_the_one_that_added_the_counts_up(ops):
    # a pad raises the sample total M, and with it the Hoeffding factor,
    # between two sweeps: in the example, rows c and o differ at M = 60
    # and not at M = 160
    table, ref = make_table(alphabet=SWEEP_LABELS), RefVerdictTable(Alphabet(("c", "o")), SWEEP_LABELS)
    for op in ops:
        for t in (table, ref):
            if op[0] == "record":
                t.record(*op[1])
            elif op[0] == "pad":
                t.record([(PAD_LABEL, 0.0)], op[1])
            elif op[0] == "state":
                t.add_state(op[1])
            elif op[0] == "experiment":
                t.add_experiment(op[1])
        if op[0] == "sweep":
            assert_row_verdicts_agree(table, ref)
            assert (table.is_closed(), table.is_consistent()) == (ref.is_closed(), ref.is_consistent())
    assert_verdict_paths_agree(table, ref, n_check=5)


@pytest.mark.parametrize("seed", [3, 4])
def test_verdict_path_matches_the_one_that_added_the_counts_up_on_office_tables(seed, monkeypatch):
    # learn_passive_from_traces's table on 10^3 uniform office episodes,
    # as it stands before its repair on frozen data
    env = load_env_config(OFFICE)
    traces = collect_traces(env.nmdp, uniform_policy(env.nmdp), 1000, seed, env.n_episode)
    tables = []
    monkeypatch.setattr(passive, "repair_on_frozen_data", tables.append)
    monkeypatch.setattr(passive, "build_hypothesis", lambda table, n_check: None)
    for table_class in (ObservationTable, RefVerdictTable):
        monkeypatch.setattr(passive, "ObservationTable", table_class)
        passive.learn_passive_from_traces(traces, env.nmdp.ap, PassiveConfig(n_check=100),
                                          env.nmdp.label_alphabet())
    table, ref = tables
    assert type(ref) is RefVerdictTable and len(table.s) > 10
    assert_verdict_paths_agree(table, ref, n_check=100)


table_rewards = st.sampled_from([0.0, 1.0, 0.5, -2.0, 3.25])
reward_traces = st.lists(
    st.lists(st.tuples(st.sampled_from(SWEEP_LABELS), table_rewards), max_size=4), max_size=10
)


def rewards_in_t(table):
    return set().union(*table.t.values())


@settings(max_examples=60, deadline=None)
@given(traces=reward_traces)
def test_reward_set_follows_record_and_csv(traces):
    table = make_table(alphabet=SWEEP_LABELS)
    for trace in traces:
        table.record(trace)
        assert table.rewards == rewards_in_t(table)


def test_row_sweeps_follow_new_counts_and_columns():
    # each step sweeps, changes the counts or E, and sweeps again: the
    # second sweep must not read columns cached by the first
    table = make_table(alphabet=[EMPTY_LABEL, C])
    table.add_state((EMPTY_LABEL,))
    assert table.row((C,)) is None   # a word without an id has no data
    table.record([(C, 1.0)])
    assert table.row_has_data(table.row((C,)))

    assert not table.row_has_data(table.row(EPSILON))
    table.add_experiment((C,))
    assert table.row_has_data(table.row(EPSILON))

    pair = rows(table, (EMPTY_LABEL,), (C,))
    assert not table.rows_share_evidence(*pair)
    table.record([(EMPTY_LABEL, 0.0)])
    assert table.rows_share_evidence(*pair)

    # rows eps and (eps) are consistent until their c-extensions have
    # enough samples to differ
    table = make_table(alphabet=[EMPTY_LABEL, C])
    table.add_state((EMPTY_LABEL,))
    for times in (5, 300):
        for _ in range(times):
            table.record([(EMPTY_LABEL, 0.0), (C, 1.0)])
            table.record([(C, 0.0)])
        if times == 5:
            assert sweep(table)[1] == (True, None)
    assert sweep(table)[1] == (False, (EPSILON, (EMPTY_LABEL,), C, EPSILON))


def test_a_state_that_was_never_recorded_has_an_id_and_no_counts():
    table = make_table(alphabet=SWEEP_LABELS)
    for _ in range(5):
        table.record([(C, 0.0), (O, 1.0)])
    trace = [(O, 0.0), (C, 0.0), (C, 1.0)]

    def views():
        return (table.t, table.sampled_words(0),
                [table.freq(tuple(label for label, _ in trace[:k])) for k in range(1, len(trace) + 1)],
                csv_bytes(ObservationTable.to_csv, table))

    before = views()
    assert table.row((O, C)) is None
    assert table.add_state((O, C))
    row = table.row((O, C))
    assert table.s == [0, row] and table.word(row) == (O, C)
    assert table.freq((O, C)) == Counter() and table.sample_count((O, C)) == 0
    assert views() == before
    assert not table.row_has_data(row)
    # its prefix o has an id without counts too, and no word below o;c has an id
    assert not table.row_has_data(table.row((O,)))
    assert all(table.row((O, C, label)) is None for label in SWEEP_LABELS)
    # the sweeps skip the rows o;c.l, and give no word an id
    assert sweep(table) == ((False, (EPSILON, C)), (True, None))
    assert all(table.row((O, C, label)) is None for label in SWEEP_LABELS)
    assert views() == before


invariant_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), sweep_traces),
    st.tuples(st.just("state"), experiment_words),
), max_size=12)


def assert_counts_shrink_along_words(table):
    """Every id with a Counter has at least one sample and no more than
    its parent (ε counts num_traces), and every id above it has one too:
    an id without a Counter has no descendant with one."""
    for node in range(1, len(table._counts)):
        if table._counts[node] is None:
            continue
        parent = table._parent[node][0]
        assert 1 <= table.samples(node) <= (table.samples(parent) if parent else table.num_traces)
        while parent:
            assert table._counts[parent] is not None
            parent = table._parent[parent][0]


@settings(max_examples=60, deadline=None)
@given(ops=invariant_ops, queries=st.lists(sweep_words, max_size=4), seed=st.integers(0, 2 ** 32 - 1))
def test_record_and_add_state_keep_counts_shrinking_along_words(ops, queries, seed):
    # the table's sweeps and is_counterexample's early stop rely on this
    table = make_table(alphabet=SWEEP_LABELS)
    for op in ops:
        if op[0] == "record":
            record_repeated(table, [op[1]])
        else:
            table.add_state(op[1])
        assert_counts_shrink_along_words(table)
    repair_on_frozen_data(table)
    assert_counts_shrink_along_words(table)
    # the walk that stops at the first sparse prefix finds what a walk of
    # every prefix finds, on recorded traces, on words added as states and
    # on other words
    words = [op[1] for op in ops if op[0] == "state"] + queries
    traces = [op[1][0] for op in ops if op[0] == "record"]
    traces += [[(label, 0.0) for label in word] for word in words]
    machines = [random_prm(np.random.default_rng(seed), 2, ("c", "o"), [0.0, 1.0]),
                build_hypothesis(table, 5)]
    for h in machines:
        for n_check in (1, 5, 40):
            for trace in traces:
                assert is_counterexample(table, h, trace, n_check) == ref_is_counterexample(
                    table, h, trace, n_check)


def test_sweep_results_are_kept_until_s_e_or_the_counts_change(monkeypatch):
    table = make_table(alphabet=SWEEP_LABELS)
    for _ in range(50):
        table.record([(EMPTY_LABEL, 0.0), (C, 1.0), (O, 1.0)])
        table.record([(C, 0.0), (O, 0.0)])
    table.add_state((C,))
    tests = []
    compatible_rows = table.compatible_rows
    monkeypatch.setattr(table, "compatible_rows", lambda *rows: tests.append(rows) or compatible_rows(*rows))
    changes = [
        lambda: table.add_state((EMPTY_LABEL,)),
        lambda: table.add_experiment((O,)),
        lambda: table.record([(O, 1.0)]),
    ]
    for change in [None] + changes:
        if change is not None:
            change()
        del tests[:]
        first = table.is_closed(), table.is_consistent()
        assert tests   # the change dropped the kept results
        assert first == (ref_is_closed(table), ref_is_consistent(table))
        del tests[:]
        assert (table.is_closed(), table.is_consistent()) == first
        assert tests == []   # a second sweep reads the kept results
    # adding a state or a column that is already there changes nothing
    table.add_state((C,))
    table.add_experiment((O,))
    table.is_closed(), table.is_consistent()
    assert tests == []


def test_rows_differ_at_a_word_just_inside_the_bound():
    # a word with factor * sqrt(1/n) just below 1 is tested, and differs
    # from a dense word of the other reward; with one sample fewer it is
    # skipped, and could not have differed
    dense = 10 ** 6
    for n, tested in ((22, True), (21, False)):
        assert (_hoeffding_factor(dense + n) * math.sqrt(1.0 / n) < 1.0) == tested
        table = make_table(alphabet=[C, O])
        table.record([(C, 0.0)], n)
        table.record([(O, 1.0)], dense)
        expected = ref_compatible_rows(table, (C,), (O,))
        assert expected == (not tested)
        assert table.compatible_rows(*rows(table, (C,), (O,))) == expected


def test_consistency_witness_is_the_first_column_in_e_order():
    # E lists c;o before its prefix c, so the walk of E's trie meets the
    # column c first; the rows ε.ε and c.ε differ at both columns, and the
    # witness is c;o, the first of them in E order
    table = make_table(alphabet=SWEEP_LABELS)
    for _ in range(100):
        table.record([(EMPTY_LABEL, 0.0), (C, 1.0), (O, 1.0)])
        table.record([(C, 0.0), (EMPTY_LABEL, 0.0), (C, 0.0), (O, 0.0)])
    table.add_state((C,))
    table.add_experiment((C, O))
    table.add_experiment((C,))
    assert table.e == [EPSILON, (C, O), (C,)]
    witness = (EPSILON, (C,), EMPTY_LABEL, (C, O))
    assert sweep(table)[1] == (False, witness)


def test_row_verdicts_follow_counts_columns_and_sample_total():
    # every change to the counts, E or the sample total M must reach a
    # memoised verdict, a cached word input and the cached Hoeffding factor
    table = make_table(alphabet=[EMPTY_LABEL, C, O])
    for _ in range(30):
        table.record([(C, 1.0)])
        table.record([(O, 0.0)])
    # gap 1.0 against 2.55 * 2 / sqrt(30) = 0.93 at M = 60
    assert not table.compatible_rows(*rows(table, (C,), (O,)))
    # 200 traces elsewhere raise M to 260 and the threshold to 1.08
    for _ in range(200):
        table.record([(EMPTY_LABEL, 0.0)])
    assert table.compatible_rows(*rows(table, (C,), (O,)))

    table = make_table(alphabet=[EMPTY_LABEL, C, O])
    for _ in range(100):
        table.record([(C, 0.0)])
        table.record([(O, 0.0)])
    assert table.compatible_rows(*rows(table, (C,), (O,)))
    for _ in range(300):
        table.record([(O, 1.0)])   # T(o) is now 100 zeros and 300 ones
    assert not table.compatible_rows(*rows(table, (C,), (O,)))

    table = make_table(alphabet=[EMPTY_LABEL, C, O])
    for _ in range(100):
        table.record([(C, 0.0), (C, 1.0)])
        table.record([(O, 0.0), (C, 0.0)])
    assert table.compatible_rows(*rows(table, (C,), (O,)))
    pairs = dict(table._pairs)   # the verdict of each word pair tested so far
    assert pairs
    table.add_experiment((C,))   # the column where the rows differ
    # a word pair's verdict depends on the counts alone and survives the
    # new column; the row verdict does not
    assert table._pairs == pairs
    assert not table.compatible_rows(*rows(table, (C,), (O,)))
    for _ in range(100):
        table.record([(O, 0.0), (C, 1.0)])
    assert table.compatible_rows(*rows(table, (C,), (O,))) == ref_compatible_rows(table, (C,), (O,))


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
    assert h.successor_vector(h.init, EMPTY_LABEL)[h.bottom] == 1.0


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


def write_csv_by_t(table, path) -> None:
    """`to_csv` as it was written from `t`: every word's tuple at once,
    sorted by length and then by `word_str`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for word, counter in sorted(table.t.items(), key=lambda item: (len(item[0]), word_str(item[0]))):
            sample = sum(counter.values())
            for reward in sorted(counter):
                writer.writerow([word_str(word), format_reward(reward), counter[reward], sample])


def csv_bytes(write, table) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        write(table, path)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=100, deadline=None)
@given(recorded=st.lists(st.lists(st.tuples(st.sampled_from([EMPTY_LABEL, C, O, C | O]),
                                            st.sampled_from([0.0, 0.5, 1.0])), max_size=6), max_size=12))
def test_csv_bytes_are_those_of_the_words_of_t(recorded):
    table = make_table()
    for trace in recorded:
        table.record(trace)
    assert csv_bytes(ObservationTable.to_csv, table) == csv_bytes(write_csv_by_t, table)


def csv_writing_peak(length) -> int:
    """The tracemalloc peak, above the table, while `to_csv` writes a
    table of 20 random traces of `length` steps."""
    rng = np.random.default_rng(length)
    table = ObservationTable(Alphabet(["a"]))
    for _ in range(20):
        table.record([([EMPTY_LABEL, A][k], float(r)) for k, r in rng.integers(0, 2, (length, 2))])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table.to_csv(os.devnull)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_csv_writing_memory_is_linear_in_logged_steps():
    # the word column spells every prefix, so the file is quadratic in the
    # trace length; building every word's tuple or text at once would be too
    assert csv_writing_peak(800) <= 5 * csv_writing_peak(200)


def test_csv_round_trip_keeps_the_empty_label_word(tmp_path):
    # the word of one empty label is written "ε", as the empty word would
    # be; the table never stores the empty word, so no row is ambiguous
    table = make_table()
    for _ in range(3):
        table.record([(EMPTY_LABEL, 0.0), (C, 1.0)])
    table.record([(C, 0.0)])
    path = tmp_path / "table.csv"
    table.to_csv(path)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "word,reward,count,sample", "c,0,1,1", "ε,0,3,3", "ε;c,1,3,3"]
    assert table.num_traces == 4
