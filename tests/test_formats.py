"""Property tests of the text formats: machine files, trace lines and the
observation-table CSV each read back what was written."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prmlearn import Alphabet, ObservationTable, Prm, prm_from_text, prm_to_text
from prmlearn.alphabet import EPSILON
from prmlearn.environment import trace_from_line, trace_to_line

from conftest import probability_vectors

PROPS = ["a", "b", "*"]
finite_rewards = st.floats(allow_nan=False, allow_infinity=False)
state_names = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True)


@st.composite
def machines(draw):
    """Total or partial machines of either reward convention, with or
    without a (possibly implicit) failure state."""
    ap = Alphabet(draw(st.lists(st.sampled_from(PROPS), min_size=1, max_size=2, unique=True)))
    n = draw(st.integers(1, 4))
    names = draw(st.lists(state_names, min_size=n, max_size=n, unique=True))
    total = draw(st.booleans())
    target = draw(st.booleans())
    bottom = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    implicit_bottom = bottom is not None and draw(st.booleans())
    tau, rho = {}, {}
    for y in range(n):
        for label in ap.labels():
            if total or draw(st.booleans()):
                tau[(y, label)] = draw(probability_vectors(n))
                rho[(y, label)] = draw(finite_rewards)
    tags = draw(st.lists(finite_rewards, min_size=n, max_size=n)) if target else None
    return Prm(
        ap,
        draw(st.lists(finite_rewards, max_size=3)),
        names,
        draw(st.integers(0, n - 1)),
        tau,
        rho,
        tags=tags,
        convention="target" if target else "source",
        bottom=bottom,
        implicit_bottom=implicit_bottom,
    )


def assert_same_machine(p: Prm, q: Prm) -> None:
    """Equal machines, states matched by name (a machine file lists the
    states in the order its lines name them)."""
    assert q.ap == p.ap
    assert sorted(q.states) == sorted(p.states)
    index = {name: i for i, name in enumerate(q.states)}
    perm = [index[name] for name in p.states]   # p's state index -> q's
    assert q.init == perm[p.init]
    assert q.bottom == (None if p.bottom is None else perm[p.bottom])
    assert q.implicit_bottom == p.implicit_bottom
    assert q.convention == p.convention
    assert q.gamma == p.gamma
    assert q.tags == (None if p.tags is None else tuple(p.tags[perm.index(j)] for j in range(len(perm))))
    assert set(q.tau) == {(perm[y], label) for y, label in p.tau}
    for (y, label), vec in p.tau.items():
        assert np.array_equal(q.tau[(perm[y], label)][perm], vec)
        assert q.rho[(perm[y], label)] == p.rho[(y, label)]


@settings(max_examples=300, deadline=None)
@given(prm=machines())
def test_machine_text_round_trip(prm):
    text = prm_to_text(prm)
    again = prm_from_text(text)
    assert_same_machine(prm, again)
    assert prm_to_text(prm_from_text(prm_to_text(again))) == prm_to_text(again)


labels = st.frozensets(st.sampled_from(PROPS + ["c", "o", "p_1"]), max_size=3)
traces = st.lists(st.tuples(labels, finite_rewards), max_size=8)


@settings(max_examples=300, deadline=None)
@given(trace=traces)
def test_trace_line_round_trip(trace):
    assert trace_from_line(trace_to_line(trace)) == trace


@settings(max_examples=300, deadline=None)
@given(trace=st.lists(st.tuples(labels, finite_rewards.filter(lambda r: r != int(r))), min_size=1, max_size=8))
def test_trace_line_round_trip_non_integer_rewards(trace):
    again = trace_from_line(trace_to_line(trace))
    assert [reward for _, reward in again] == [reward for _, reward in trace]


CSV_AP = Alphabet(["c", "o", "*"])
csv_traces = st.lists(
    st.tuples(st.frozensets(st.sampled_from(CSV_AP.props), max_size=2), finite_rewards), max_size=4
)
csv_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), csv_traces),
        st.tuples(st.just("merge"), st.lists(csv_traces, max_size=3)),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(ops=csv_ops)
def test_table_csv_round_trip(ops):
    table = ObservationTable(CSV_AP)
    for kind, arg in ops:
        if kind == "record":
            table.record(arg)
        else:
            other = ObservationTable(CSV_AP)
            for trace in arg:
                other.record(trace)
            table.merge(other)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        table.to_csv(path)
        again = ObservationTable.from_csv(path, CSV_AP)
    assert again.t == table.t
    assert again.num_traces == table.num_traces
    assert again.total_samples() == table.total_samples()
    for word in [EPSILON, *table.t]:
        assert again.sample_count(word) == table.sample_count(word)
