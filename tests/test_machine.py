import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prmlearn import (
    Alphabet,
    EMPTY_LABEL,
    Prm,
    UndefinedTransitionError,
    UnreachableWordError,
    coffee_prm,
    load_prm,
    membership_reward_machine,
    patrol_prm,
    prm_from_text,
    prm_to_dot,
    prm_to_text,
    save_prm,
)
from prmlearn.machine import (
    PROB_TOL,
    STREAM_BLOCK,
    Stream,
    draw_row,
    sample_index,
    sampling_row,
    spawn_states,
    unit_vector,
)
from prmlearn.alphabet import label_str
from prmlearn.environment import ACTIONS, build_office_nmdp, parse_gridmap, step

from conftest import (
    C, O, STAR, dyadic_vector, edges_of, machine_run, probability_vectors, random_prm, ref_sample_index,
    single_state_zero_prm,
)

A = frozenset({"a"})


# -- construction invariants ---------------------------------------------------


def test_rows_must_sum_to_one():
    ap = Alphabet(["a"])
    with pytest.raises(ValueError):
        Prm(ap, [0.0], ["y0"], 0, {(0, A): np.array([0.5])}, {(0, A, 0): 0.0})


def test_negative_probability_rejected():
    ap = Alphabet(["a"])
    tau = {(0, A): np.array([2.0, -1.0])}
    rho = {(0, A, 0): 0.0, (0, A, 1): 0.0}
    with pytest.raises(ValueError):
        Prm(ap, [0.0], ["y0", "y1"], 0, tau, rho)


@pytest.mark.parametrize("bad", [[np.nan], [np.nan, np.nan], [np.inf, -np.inf]])
def test_non_finite_probability_rejected(bad):
    # NaN passes both the sum and the sign check; sampling from such a row
    # is undefined
    ap = Alphabet(["a"])
    names = ["y%d" % i for i in range(len(bad))]
    with pytest.raises(ValueError, match="non-finite"):
        Prm(ap, [0.0], names, 0, {(0, A): np.array(bad)}, {(0, A, 0): 0.0})
    with pytest.raises(ValueError, match="non-finite"):
        prm_from_text("ap: a\ngamma: 0\ninit: y0\ny0 --a/0--> y0 : nan\n")


# (fault, row, the error of the row at (0, a)) of a bad row of a
# two-state machine, for each check that validation makes on one row
BAD_ROWS = [
    ("length", np.ones(3) / 3, r"transition vector has wrong length at \(0, a\)"),
    ("non-finite", np.array([np.inf, 0.0]), r"non-finite transition probability at \(0, a\)"),
    ("negative", np.array([1.5, -0.5]), r"negative transition probability at \(0, a\)"),
    ("sum", np.array([0.5, 0.25]), r"transition probabilities at \(y0, a\) sum to 0.75"),
]


@pytest.mark.parametrize("first, second", [(f, s) for f in BAD_ROWS for s in BAD_ROWS if f is not s],
                         ids=lambda bad: bad[0])
def test_the_first_bad_row_in_tau_order_is_reported(first, second):
    # two bad rows of different faults among good ones (each pair comes in
    # both orders): the error is the first's, though the rows are checked
    # at once
    ap = Alphabet(["a"])
    tau = {(0, EMPTY_LABEL): unit_vector(2, 0), (0, A): first[1],
           (1, EMPTY_LABEL): unit_vector(2, 1), (1, A): second[1]}
    rho = {(y, label, j): 0.0 for (y, label), vec in tau.items() for j in range(2) if vec[j] > 0}
    with pytest.raises(ValueError, match=first[2]):
        Prm(ap, [0.0], ["y0", "y1"], 0, tau, rho)


def ref_row_error(y, label, vec, n):
    """The error of one row, checked alone as a loop over rows would, or None."""
    at = "at (%r, %s)" % (y, label_str(label))
    if vec.shape != (n,):
        return "transition vector has wrong length " + at
    if not np.all(np.isfinite(vec)):
        return "non-finite transition probability " + at
    if np.any(vec < 0):
        return "negative transition probability " + at
    if abs(vec.sum() - 1.0) > PROB_TOL:
        return "transition probabilities at (y%d, %s) sum to %r" % (y, label_str(label), float(vec.sum()))
    return None


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_rows_checked_at_once_pass_and_fail_as_one_by_one(n, data):
    # row sums on either side of the tolerance, and rows of every fault:
    # the machine is built exactly when every row passes alone, and
    # otherwise raises the error of the first row that fails alone
    ap = Alphabet(["a"])
    shift = st.sampled_from([0.0, PROB_TOL, -PROB_TOL, 0.5 * PROB_TOL, 2 * PROB_TOL, -2 * PROB_TOL, -1.5, np.nan])
    tau = {}
    for y in range(n):
        for label in ap.labels():
            vec = data.draw(probability_vectors(n)).copy()
            vec[data.draw(st.integers(0, n - 1))] += data.draw(shift)
            if data.draw(st.integers(0, 3)) == 0:   # a quarter of the rows are too long
                vec = np.append(vec, 0.0)
            tau[(y, label)] = vec
    rho = {(y, label, j): 0.0 for (y, label), vec in tau.items() for j in np.flatnonzero(vec).tolist()}
    errors = [e for e in (ref_row_error(y, label, vec, n) for (y, label), vec in tau.items()) if e]
    names = ["y%d" % y for y in range(n)]
    if not errors:
        assert Prm(ap, [0.0], names, 0, tau, rho).tau.keys() == tau.keys()
    else:
        with pytest.raises(ValueError) as err:
            Prm(ap, [0.0], names, 0, tau, rho)
        assert str(err.value) == errors[0]


def test_tau_rho_same_domain():
    ap = Alphabet(["a"])
    with pytest.raises(ValueError):
        Prm(ap, [0.0], ["y0"], 0, {(0, A): np.ones(1)}, {})
    # a reward on an edge of probability 0, and on an undefined pair
    with pytest.raises(ValueError):
        Prm(ap, [0.0], ["y0", "y1"], 0, {(0, A): unit_vector(2, 0)}, {(0, A, 0): 0.0, (0, A, 1): 0.0})
    with pytest.raises(ValueError):
        Prm(ap, [0.0], ["y0"], 0, {(0, A): np.ones(1)}, {(0, A, 0): 0.0, (0, EMPTY_LABEL, 0): 0.0})


def test_gamma_always_contains_zero():
    prm = patrol_prm()
    assert 0.0 in prm.gamma


def test_coffee_is_total_and_patrol_partial_logic():
    assert coffee_prm().is_total()
    assert patrol_prm().is_total()
    ap = Alphabet(["a"])
    partial = Prm(ap, [0.0], ["y0"], 0, {(0, A): np.ones(1)}, {(0, A, 0): 0.0})
    assert not partial.is_total()


def _edges(prm):
    """(state, label) -> ({successor: probability}, reward) by name; the
    builtin truths pay one reward on every edge of a pair."""
    out = {}
    for (y, label), vec in prm.tau.items():
        succ = {prm.states[int(j)]: float(vec[j]) for j in np.flatnonzero(vec)}
        rewards = {prm.rho[(y, label, int(j))] for j in np.flatnonzero(vec)}
        assert len(rewards) == 1
        out[(prm.states[y], label)] = (succ, rewards.pop())
    return out


def test_builtin_truths_follow_their_rules():
    coffee = coffee_prm()
    assert coffee.ap.props == ("c", "o", "*")
    assert coffee.gamma == (0.0, 1.0)
    assert coffee.states == ("y0", "y_good", "y_weak", "y_done", "y_fail")
    assert coffee.states[coffee.init] == "y0"
    expected = {}
    for state in coffee.states:
        for label in coffee.ap.labels():
            if label == STAR and state in ("y0", "y_good", "y_weak"):
                rule = ({"y_fail": 1.0}, 0.0)
            elif label == C and state == "y0":
                rule = ({"y_good": 0.9, "y_weak": 0.1}, 0.0)
            elif label == O and state in ("y_good", "y_weak"):
                rule = ({"y_done": 1.0}, 1.0 if state == "y_good" else 0.0)
            else:
                rule = ({state: 1.0}, 0.0)
            expected[(state, label)] = rule
    assert _edges(coffee) == expected

    patrol = patrol_prm()
    assert patrol.ap.props == ("c",)
    assert patrol.gamma == (0.0, 1.0)
    assert patrol.states == ("u_out", "u_in")
    assert patrol.states[patrol.init] == "u_out"
    assert _edges(patrol) == {
        ("u_out", frozenset()): ({"u_out": 1.0}, 0.0),
        ("u_out", C): ({"u_in": 1.0}, 1.0),
        ("u_in", frozenset()): ({"u_out": 1.0}, 1.0),
        ("u_in", C): ({"u_in": 1.0}, 0.0),
    }


# -- matrix semantics -----------------------------------------------------------


def test_label_matrix_single_state_identity():
    prm = single_state_zero_prm()
    assert np.array_equal(prm.label_matrix(A), np.array([[1.0]]))


def test_label_matrix_coffee_split(coffee):
    mat = coffee.label_matrix(C)
    assert np.allclose(mat[0], [0.0, 0.9, 0.1, 0.0, 0.0])


def test_label_matrix_partial_machine_zero_row():
    ap = Alphabet(["a"])
    tau = {(0, frozenset()): unit_vector(2, 1), (1, frozenset()): unit_vector(2, 1)}
    rho = {(0, frozenset(), 1): 0.0, (1, frozenset(), 1): 0.0}
    prm = Prm(ap, [0.0], ["y0", "y1"], 0, tau, rho)
    assert np.array_equal(prm.label_matrix(A), np.zeros((2, 2)))


def test_label_matrices_cached_lazily_and_read_only(coffee):
    assert not coffee._views  # construction builds no matrix
    mat = coffee.label_matrix(C)
    assert coffee.label_matrix(C) is mat
    assert coffee.reward_conditional_matrix(1.0, C) is coffee.reward_conditional_matrix(1.0, C)
    assert list(coffee._views) == [C]
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0
    with pytest.raises(ValueError):
        coffee.reward_conditional_matrix(0.0, C)[0, 0] = 1.0
    with pytest.raises(ValueError):
        coffee.label_matrix(frozenset({"zzz"}))
    # H(C) and every H(gamma, C) are slices of one read-only buffer; slices
    # that do not overlap each other share memory only with that buffer
    stack = mat.base
    assert stack.shape == (1 + len(coffee.gamma), 5, 5)
    conditionals = [coffee.reward_conditional_matrix(gamma, C) for gamma in coffee.gamma]
    for out in [mat] + conditionals:
        assert out.base is stack and np.shares_memory(stack, out)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[...] = 0.0


def test_reward_conditional_matrix_filters(coffee):
    # zero machine: gamma=0 passes everything
    zero = single_state_zero_prm()
    assert np.array_equal(zero.reward_conditional_matrix(0.0, A), zero.label_matrix(A))
    # coffee: only the good-coffee delivery pays 1 on {o}
    mat = coffee.reward_conditional_matrix(1.0, O)
    expected = np.zeros((5, 5))
    expected[1, 3] = 1.0
    assert np.array_equal(mat, expected)


def test_reward_conditional_matrix_unknown_gamma(coffee):
    with pytest.raises(ValueError):
        coffee.reward_conditional_matrix(7.0, O)


def test_reward_conditional_partition(coffee):
    for label in coffee.ap.labels():
        total = sum(coffee.reward_conditional_matrix(g, label) for g in coffee.gamma)
        assert np.array_equal(total, coffee.label_matrix(label))


def test_reward_matrix():
    zero = single_state_zero_prm()
    assert np.array_equal(zero.reward_matrix(0.0), np.array([[2.0]]))
    coffee = coffee_prm()
    mat = coffee.reward_matrix(1.0)
    expected = np.zeros((5, 5))
    expected[1, 3] = 1.0
    assert np.array_equal(mat, expected)


def test_reward_sequence_probability():
    zero = single_state_zero_prm()
    assert zero.reward_sequence_probability(()) == 1.0
    # two labels both emitting 0 from the single state: unnormalized mass 2
    assert zero.reward_sequence_probability((0.0,)) == 2.0
    assert coffee_prm().reward_sequence_probability((0.0, 1.0)) == pytest.approx(0.9)


def test_next_reward_distribution(coffee):
    dist = coffee.next_reward_distribution((C,), O)
    assert dist == pytest.approx({1.0: 0.9, 0.0: 0.1})
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert coffee.next_reward_distribution((), C) == {0.0: 1.0}


def test_next_reward_distribution_unreachable():
    ap = Alphabet(["a"])
    tau = {(0, frozenset()): np.ones(1)}
    rho = {(0, frozenset(), 0): 0.0}
    prm = Prm(ap, [0.0], ["y0"], 0, tau, rho)
    with pytest.raises(UnreachableWordError):
        prm.next_reward_distribution((), A)


def reference_advance(prm, vec, label) -> tuple:
    """`advance` one matrix at a time, on fresh copies of H(label) and each
    H(gamma, label)."""
    nxt = vec @ prm.label_matrix(label).copy()
    denom = float(nxt.sum())
    dist = {}
    if denom > 0.0:
        for gamma in prm.gamma:
            mass = float((vec @ prm.reward_conditional_matrix(gamma, label).copy()).sum())
            if mass > 0.0:
                dist[gamma] = mass / denom
    return nxt, dist


ADVANCE_REWARDS = ([1.0], [0.0, 1.0], [0.0, 0.5, 2.5], [-1.0, 0.0, 0.25, 3.0])


def test_advance_is_the_per_matrix_formula_bit_for_bit():
    """One product over the stacked matrices gives every row and mass bit
    for bit as a product per matrix: on total machines and on partial ones
    with a bottom, with and without implicit_bottom, from unit and mixed
    vectors."""
    rng = np.random.default_rng(33)
    for n in range(1, 42):
        for dyadic in (False, True):
            rewards = ADVANCE_REWARDS[(n + dyadic) % len(ADVANCE_REWARDS)]
            base = random_prm(rng, n, ["a", "b"], rewards, dyadic=dyadic)
            machines = [base]
            for implicit_bottom in (False, True):
                # about a third of the pairs left undefined, the last state the bottom
                kept = {key for key in base.tau if rng.random() < 0.7}
                rho = {edge: r for edge, r in base.rho.items() if edge[:2] in kept}
                machines.append(Prm(base.ap, base.gamma, base.states, base.init,
                                    {key: base.tau[key] for key in kept}, rho,
                                    bottom=n - 1, implicit_bottom=implicit_bottom))
            mixed = rng.random(n) + 1e-3
            vectors = [unit_vector(n, int(rng.integers(0, n))), unit_vector(n, n - 1),
                       dyadic_vector(rng, n), mixed / mixed.sum()]
            for prm in machines:
                for label in prm.ap.labels():
                    for vec in vectors:
                        nxt, dist = prm.advance(vec, label)
                        ref_nxt, ref_dist = reference_advance(prm, vec, label)
                        assert nxt.tobytes() == ref_nxt.tobytes()
                        assert dist == ref_dist and list(dist) == list(ref_dist)


def test_advance_labels_is_advance_bit_for_bit():
    """One product over every label's stack: each label's block of rows
    starts with the vector `advance` gives, bit for bit, and its row sums
    give `advance`'s distribution (the denominator first, then each
    reward's mass in `gamma` order), on `random_prm` machines and on
    partial and bottom machines, dyadic and not, including vectors that
    cannot read a label.  The concatenated stack is read-only and built
    once per tuple of labels."""
    from test_verify import random_machine

    rng = np.random.default_rng(34)
    empties = 0
    for trial in range(240):
        dyadic = bool(trial % 2)
        if trial % 3 == 0:
            n = int(rng.integers(1, 30))
            prm = random_prm(rng, n, ["a", "b", "c"][:1 + trial % 3], ADVANCE_REWARDS[trial % 4], dyadic=dyadic)
        else:
            prm = random_machine(rng, "partial" if trial % 3 == 1 else "bottom", dyadic=dyadic)
            n = prm.n_states()
        labels = prm.ap.labels()
        labels = [labels[i] for i in rng.permutation(len(labels))[:int(rng.integers(1, len(labels) + 1))]]
        width = 1 + len(prm.gamma)
        mixed = rng.random(n) + 1e-3
        for vec in (unit_vector(n, int(rng.integers(0, n))), dyadic_vector(rng, n), mixed / mixed.sum()):
            out, sums = prm.advance_labels(vec, labels)
            assert out.shape == (len(labels) * width, n) and len(sums) == len(labels) * width
            assert sums == out.sum(axis=1).tolist()
            for i, label in enumerate(labels):
                ref_nxt, ref_dist = prm.advance(vec, label)
                denom, masses = sums[i * width], sums[i * width + 1:(i + 1) * width]
                dist = {g: m / denom for g, m in zip(prm.gamma, masses) if m > 0.0} if denom > 0.0 else {}
                assert out[i * width].tobytes() == ref_nxt.tobytes()
                assert dist == ref_dist and list(dist) == list(ref_dist)
                assert denom == float(ref_nxt.sum())
                empties += not dist
        stack = prm._views[tuple(labels)]
        assert not stack.flags.writeable
        assert stack.shape == (len(labels) * width, n, n)
        prm.advance_labels(prm.initial_vector(), labels)
        assert prm._views[tuple(labels)] is stack
    assert empties > 0   # some vectors could not read some label
    out, sums = single_state_zero_prm().advance_labels(np.ones(1), [])
    assert out.shape == (0, 1) and sums == []


def test_advance_labels_reads_a_generator_as_the_equal_list():
    prm = coffee_prm()
    labels = prm.ap.labels()
    out, sums = prm.advance_labels(prm.initial_vector(), (label for label in labels))
    ref_out, ref_sums = prm.advance_labels(prm.initial_vector(), labels)
    assert out.tobytes() == ref_out.tobytes() and sums == ref_sums
    assert prm._views[tuple(labels)].shape[0] == len(labels) * (1 + len(prm.gamma))


# Fixed before looking at any result: the matrix chain rounds differently
# from the vector chain, by a few ulps on these small machines.
CHAIN_TOL = 1e-12


def test_prefix_semantics_follow_the_vector_chain():
    """next_reward_distribution reads the prefix vector by vector, bit for
    bit as `advance` does, and agrees with the matrix chain
    y_I·word_matrix(prefix) to CHAIN_TOL on non-dyadic machines."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        base = random_prm(rng, n, ["a", "b"], [0.0, 1.0, 2.5])
        prm = Prm(base.ap, base.gamma, base.states, base.init, base.tau, base.rho, bottom=n - 1)
        labels = prm.ap.labels()
        prefix = tuple(labels[i] for i in rng.integers(0, len(labels), size=int(rng.integers(0, 7))))
        label = labels[int(rng.integers(0, len(labels)))]

        vec = prm.initial_vector()
        for symbol in prefix:
            vec, _ = prm.advance(vec, symbol)
        _, chain_dist = prm.advance(vec, label)
        assert prm.next_reward_distribution(prefix, label) == chain_dist

        matrix_vec = prm.initial_vector() @ prm.word_matrix(prefix)
        _, matrix_dist = prm.advance(matrix_vec, label)
        assert set(matrix_dist) == set(chain_dist)
        for gamma, p in chain_dist.items():
            assert abs(p - matrix_dist[gamma]) <= CHAIN_TOL


# -- sampling --------------------------------------------------------------------


def test_sample_run_deterministic_machine(patrol):
    word = (C, frozenset(), C)
    runs = {tuple(machine_run(patrol, word, np.random.default_rng(seed))) for seed in range(5)}
    assert len(runs) == 1
    rewards = [r for _, r in machine_run(patrol, word, np.random.default_rng(0))]
    assert rewards == [1.0, 1.0, 1.0]


def test_sample_run_undefined_transition():
    ap = Alphabet(["a"])
    tau = {(0, frozenset()): np.ones(1)}
    rho = {(0, frozenset(), 0): 0.0}
    prm = Prm(ap, [0.0], ["y0"], 0, tau, rho)
    # as teacher_query reads the reward of a step
    row, emits = prm.compiled_step(0, A)
    with pytest.raises(UndefinedTransitionError):
        emits[draw_row(row, np.random.default_rng(0))]


def test_sample_run_coffee_split_monte_carlo(coffee):
    rng = np.random.default_rng(12345)
    n = 10 ** 5
    hits = 0
    for _ in range(n):
        if machine_run(coffee, (C, O), rng)[-1][1] == 1.0:
            hits += 1
    assert abs(hits / n - 0.9) <= 0.01


def row_strategy(n):
    """Successor rows of length n, and None for an undefined pair."""
    return st.one_of(probability_vectors(n), st.none())


@st.composite
def machine_and_queries(draw):
    n = draw(st.integers(1, 5))
    implicit_bottom = draw(st.booleans())
    ap = Alphabet(["a"])
    tau = {}
    for y in range(n):
        for label in ap.labels():
            vec = draw(row_strategy(n))
            if vec is not None:
                tau[(y, label)] = vec
    rho = {edge: 0.0 for edge in edges_of(tau)}
    prm = Prm(ap, [0.0], ["y%d" % i for i in range(n)], 0, tau, rho,
              bottom=n - 1 if implicit_bottom else None, implicit_bottom=implicit_bottom)
    queries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(ap.labels())),
                            min_size=1, max_size=30))
    return prm, queries, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=machine_and_queries())
def test_sample_successor_draws_as_sample_index(case):
    # deterministic, dyadic and non-dyadic rows, all-zero rows of undefined
    # pairs and e_bottom rows of implicit-bottom pairs: the compiled row
    # gives the index ref_sample_index gives and leaves the Generator in the
    # same state
    prm, queries, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for y, label in queries:
        expected = ref_sample_index(prm.successor_vector(y, label), ref_rng)
        assert draw_row(prm.compiled_step(y, label)[0], rng) == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class ScriptedRng:
    """Returns the given floats from `random()`, in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@settings(max_examples=150, deadline=None)
@given(vec=probability_vectors(4), u=st.floats(0.0, 1.0, exclude_max=True))
def test_compiled_row_breaks_ties_as_searchsorted(vec, u):
    # draws on a cumulative boundary, past the last cumulative value (a row
    # summing to just under 1) and anywhere else pick the same index
    row = sampling_row(vec)
    cum = np.cumsum(vec).tolist()
    short = vec * (1.0 - 1e-10)
    for value in cum + [u, float(np.cumsum(short)[-1])]:
        expected = ref_sample_index(vec, ScriptedRng([value]))
        assert draw_row(row, ScriptedRng([value])) == sample_index(vec, ScriptedRng([value])) == expected
        expected = ref_sample_index(short, ScriptedRng([value]))
        assert draw_row(sampling_row(short), ScriptedRng([value])) == sample_index(short, ScriptedRng([value])) == expected


def test_compiled_step_rewards_by_successor():
    # the edges of one pair pay different rewards; an implicit-bottom pair
    # pays 0 on entering the failure state; reading the reward of an
    # undefined pair raises
    ap = Alphabet(["a"])
    tau = {(0, A): np.array([0.25, 0.75, 0.0])}
    rho = {(0, A, 0): 2.0, (0, A, 1): 1.0}
    partial = Prm(ap, [0.0], ["y0", "y1", "bot"], 0, tau, rho)
    assert partial.compiled_step(0, A)[1] == {0: (A, 2.0), 1: (A, 1.0)}
    with pytest.raises(UndefinedTransitionError):
        partial.compiled_step(0, EMPTY_LABEL)[1][2]
    with pytest.raises(UndefinedTransitionError):
        partial.edge_reward(0, EMPTY_LABEL, 2)
    total = Prm(ap, [0.0], ["y0", "y1", "bot"], 0, tau, rho, bottom=2, implicit_bottom=True)
    assert total.compiled_step(1, A)[1] == {2: (A, 0.0)}
    assert total.edge_reward(1, A, 2) == 0.0
    assert total.reward_conditional_matrix(2.0, A)[0].tolist() == [0.25, 0.0, 0.0]
    assert total.reward_conditional_matrix(1.0, A)[0].tolist() == [0.0, 0.75, 0.0]
    assert total.reward_conditional_matrix(0.0, A)[1].tolist() == [0.0, 0.0, 1.0]


def test_draw_past_a_short_row_reads_a_defined_edge():
    # a row summing to just under 1, with a trailing successor of
    # probability 0: a draw past its sum takes the last edge of positive
    # probability, whose reward is defined
    ap = Alphabet(["a"])
    tau = {(y, label): unit_vector(3, y) for y in range(3) for label in ap.labels()}
    tau[(0, A)] = np.array([0.5, 0.5 - 1e-10, 0.0])
    prm = Prm(ap, [0.0, 1.0], ["y0", "y1", "y2"], 0, tau, {edge: 1.0 for edge in edges_of(tau)})
    past = 1.0 - 1e-11
    row, emits = prm.compiled_step(0, A)
    assert draw_row(row, ScriptedRng([past])) == ref_sample_index(tau[(0, A)], ScriptedRng([past])) == 1
    assert emits[1] == (A, 1.0)
    assert machine_run(prm, (A,), ScriptedRng([past])) == [(1, 1.0)]


def test_sample_successor_rows_are_compiled_at_construction(coffee):
    # an environment keeps its truth's compiled steps by (truth state, label
    # index), each built through compiled_step before the first step
    m = build_office_nmdp(parse_gridmap("Ac"), coffee)
    assert m.label_alphabet() == [EMPTY_LABEL, C]
    assert m._truth_steps == [[coffee.compiled_step(y, label) for label in (EMPTY_LABEL, C)]
                              for y in range(coffee.n_states())]
    _, _, (label, _), i = step(m, m.x_init, 0, ACTIONS.index("E"), np.random.default_rng(0))
    assert (label, i) == (C, 1)


# integers(low, low + k) for these k: 1 draws nothing, 2 to 7 rarely
# reject, 2**31 + 11 rejects about half its 32-bit draws, 2**32 takes one
# 32-bit draw as it is
STREAM_RANGES = [1, 2, 3, 4, 5, 6, 7, 2 ** 31 + 11, 2 ** 32]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       half=st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)),
       lead=st.one_of(st.just(0), st.integers(STREAM_BLOCK - 40, STREAM_BLOCK + 1)),
       draws=st.lists(st.tuples(st.sampled_from([None] + STREAM_RANGES), st.integers(-3, 3)), max_size=80))
def test_stream_draws_as_a_generator(seed, half, lead, draws):
    # interleaved doubles and bounded integers equal a Generator's on the
    # same PCG64 seed, from a bit generator holding a buffered 32-bit half
    # or not, and across a block refill (`lead` doubles come first)
    bits, ref_bits = np.random.PCG64(seed), np.random.PCG64(seed)
    if half is not None:
        state = bits.state
        state.update(has_uint32=1, uinteger=half)
        bits.state = ref_bits.state = state
    stream, rng = Stream(bits), np.random.Generator(ref_bits)
    for _ in range(lead):
        assert stream.random() == rng.random()
    for k, low in draws:
        if k is None:
            assert stream.random() == rng.random()
        else:
            value = stream.integers(low, low + k)
            assert value.__class__ is int and value == rng.integers(low, low + k)
    assert stream.random() == rng.random()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), child=st.integers(0, 9),
       before=st.integers(0, 40),
       lead=st.sampled_from([0, 1, 31, 32, 33, 95, 96, 97, 223, 224, 225]),
       draws=st.lists(st.sampled_from([None] + STREAM_RANGES), max_size=20))
def test_stream_restart_draws_as_a_generator_at_the_new_state(seed, child, before, lead, draws):
    # a Stream that has drawn and keeps a 32-bit half from integers, restarted
    # at a spawned (state, inc), draws what a Generator on a PCG64 set to it
    # draws: the first integers take no kept half, and the refills after 32,
    # 96 and 224 outputs (blocks of 32, 64, 128) start over
    stream = Stream(np.random.PCG64(seed))
    for _ in range(before):
        stream.random()
    stream.integers(0, 2 ** 32)
    state, inc = spawn_states(seed, child + 1)[child]
    stream.restart(state, inc)
    ref_bits = np.random.PCG64(0)
    ref_bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
    rng = np.random.Generator(ref_bits)
    assert stream.integers(0, 7) == rng.integers(0, 7)
    for _ in range(lead):
        assert stream.random() == rng.random()
    for k in draws:
        if k is None:
            assert stream.random() == rng.random()
        else:
            assert stream.integers(0, k) == rng.integers(0, k)
    for _ in range(130):
        assert stream.random() == rng.random()


def test_stream_rejects_ranges_it_does_not_draw():
    stream = Stream(np.random.PCG64(0))
    for low, high in [(0, 2 ** 32 + 1), (5, 5 + 2 ** 33), (0, 0), (3, 2)]:
        with pytest.raises(ValueError):
            stream.integers(low, high)
    # nothing was drawn
    assert stream.random() == np.random.default_rng(0).random()


def test_membership_machine_run():
    ap = Alphabet(["c", "o", "*"])
    machine = membership_reward_machine(ap, (C, O))
    run = machine_run(machine, (C, O), np.random.default_rng(0))
    assert [r for _, r in run] == [1.0, 1.0]


# -- serialization ---------------------------------------------------------------


def test_text_round_trip(coffee, tmp_path):
    text = prm_to_text(coffee)
    again = prm_from_text(text)
    assert prm_to_text(again) == text
    path = tmp_path / "coffee.prm"
    save_prm(coffee, path)
    loaded = load_prm(path)
    assert prm_to_text(loaded) == text
    assert loaded.gamma == coffee.gamma
    assert loaded.states == coffee.states


def test_text_round_trip_random_machines():
    rng = np.random.default_rng(7)
    for _ in range(20):
        prm = random_prm(rng, int(rng.integers(1, 5)), ["a", "b"], [0.0, 1.0, 2.5])
        assert prm_to_text(prm_from_text(prm_to_text(prm))) == prm_to_text(prm)


def test_text_conflicting_rewards_rejected():
    text = "\n".join(
        [
            "ap: a",
            "gamma: 0,1",
            "init: y0",
            "y0 --a/0--> y0 : 0.5",
            "y0 --a/1--> y0 : 0.5",
        ]
    )
    with pytest.raises(ValueError):
        prm_from_text(text)


def test_dot_export(coffee):
    dot = prm_to_dot(coffee)
    assert dot.startswith("digraph")
    # the edge annotation format is <label, reward> : probability
    assert "⟨c, 0⟩ : 0.9" in dot
    assert dot == prm_to_dot(coffee)  # deterministic


def test_dot_export_escapes_quotes_and_backslashes():
    # state and proposition names may hold " and \, which would end or
    # escape the DOT string they are written in
    label = frozenset({'p"q'})
    step = np.array([0.0, 1.0])
    prm = Prm(Alphabet(['p"q']), [0.0], ['a"b', "c\\d"], 0, {(0, label): step, (1, label): step},
              {(0, label, 1): 0.0, (1, label, 1): 0.0})
    lines = prm_to_dot(prm).splitlines()
    assert '  "a\\"b" [shape=circle];' in lines
    assert '  __init -> "a\\"b";' in lines
    assert '  "a\\"b" -> "c\\\\d" [label="⟨p\\"q, 0⟩ : 1.0"];' in lines


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_reward_rejected(bad):
    ap = Alphabet(["a"])
    tau = {(0, A): np.ones(1)}
    for gamma, rho in [
        ([0.0], bad),            # an edge reward
        ([0.0, bad], 0.0),       # a declared reward
    ]:
        with pytest.raises(ValueError, match="non-finite reward"):
            Prm(ap, gamma, ["y0"], 0, tau, {(0, A, 0): rho})


@pytest.mark.parametrize("text", [
    "ap: a\ngamma: 0,inf\ninit: y0\ny0 --a/0--> y0 : 1.0\n",
    "ap: a\ngamma: 0\ninit: y0\ny0 --a/nan--> y0 : 1.0\n",
], ids=["gamma", "edge"])
def test_text_non_finite_reward_rejected(text):
    with pytest.raises(ValueError, match="finite"):
        prm_from_text(text)


def test_text_keeps_states_no_other_line_names():
    # a partial machine's state without edges, init or bottom role still
    # has a line of its own, so the machine reads back with it
    ap = Alphabet(["a"])
    prm = Prm(ap, [0.0], ["y0", "lost"], 0, {(0, A): unit_vector(2, 0)}, {(0, A, 0): 0.0})
    text = prm_to_text(prm)
    assert "state: lost" in text.splitlines()
    again = prm_from_text(text)
    assert again.states == ("y0", "lost")
    assert prm_to_text(again) == text
    assert "state:" not in prm_to_text(coffee_prm())
