import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from prmlearn import (
    Alphabet,
    BudgetExceededError,
    Trajectory,
    UnreachableWordError,
    brute_force_reward_distribution,
    brute_force_word_realizability,
    build_office_nmdp,
    coffee_prm,
    encoding_distance,
    parse_gridmap,
    patrol_prm,
    load_env_config,
    prm_to_text,
    total_variation,
)
from prmlearn.alphabet import EMPTY_LABEL, label_sort_key
from prmlearn.machine import Prm, prm_from_text
from prmlearn.verify import machine_reward_distribution

from conftest import (
    C,
    O,
    STAR,
    dyadic_vector,
    edges_of,
    free_nmdp,
    random_nmdp,
    random_prm,
    single_state_zero_prm,
    successor_rewards,
    two_cell_nmdp,
)

from test_environment import OFFICE_MAP

OFFICE = Path(__file__).resolve().parents[1] / "src" / "prmlearn" / "assets" / "office.yaml"


# -- realizability oracle -------------------------------------------------------


def test_witness_on_two_cell_map():
    m = two_cell_nmdp(patrol_prm())
    witness = brute_force_word_realizability(m, (C,))
    assert witness is not None
    assert witness.labels == [C]
    assert len(witness.actions) == 1
    assert witness.states[0] == m.x_init


def test_no_witness_for_absent_label():
    m = two_cell_nmdp(patrol_prm())
    ghost = (frozenset({"c"}), frozenset({"c"}), EMPTY_LABEL, frozenset({"c"}))
    # staying on the right cell re-emits c, so that word IS realizable;
    # an absent word needs the empty label from the right cell going right,
    # which does not exist: c;~ requires leaving to the left (~ exists), so
    # use a word longer than any path: c after two stays on the left cell
    assert brute_force_word_realizability(m, (EMPTY_LABEL, C)) is not None
    # a label on no transition at all
    m_office = build_office_nmdp(parse_gridmap("A."), single_state_zero_prm(("c",)))
    assert brute_force_word_realizability(m_office, (C,)) is None


def test_witness_is_lexicographically_least():
    m = two_cell_nmdp(patrol_prm())
    # both actions from the right cell can emit the empty label? no: only
    # action 1 (move) from right emits empty; from left, action 0 stays (empty)
    witness = brute_force_word_realizability(m, (EMPTY_LABEL, EMPTY_LABEL))
    assert witness.actions == [0, 0]  # stay, stay is explored first


def test_budget_error_reports_nodes():
    grid = parse_gridmap(OFFICE_MAP)
    m = build_office_nmdp(grid, coffee_prm())
    # an unrealizable word forces the search to exhaust the whole tree
    word = (EMPTY_LABEL,) * 6 + (C, C)
    with pytest.raises(BudgetExceededError) as err:
        brute_force_word_realizability(m, word, node_budget=50)
    assert err.value.nodes_expanded > 50


def test_word_with_unknown_proposition_rejected():
    m = two_cell_nmdp(patrol_prm())
    for word in [(frozenset({"z"}),), (C, frozenset({"c", "z"}))]:
        with pytest.raises(ValueError, match="unknown proposition 'z'"):
            brute_force_word_realizability(m, word)


def test_positive_reward_criterion():
    grid = parse_gridmap(OFFICE_MAP)
    m = build_office_nmdp(grid, coffee_prm())
    # realizable and paying
    assert brute_force_word_realizability(
        m, (C, O), criterion="positive_reward", node_budget=10 ** 5
    ) is not None
    # realizable but never paying: delivery without coffee
    word = (EMPTY_LABEL, EMPTY_LABEL, EMPTY_LABEL, O)
    assert brute_force_word_realizability(m, word, node_budget=10 ** 5) is not None
    assert brute_force_word_realizability(
        m, word, criterion="positive_reward", node_budget=10 ** 5
    ) is None


def test_office_blue_line_word():
    grid = parse_gridmap(OFFICE_MAP)
    m = build_office_nmdp(grid, coffee_prm())
    witness = brute_force_word_realizability(m, (C, O), node_budget=10 ** 5)
    assert witness is not None
    assert witness.labels == [C, O]


def test_no_witness_goes_on_past_a_terminal_label():
    # an episode ends on o or *: such a label may end a witness, not go on
    grid = parse_gridmap(OFFICE_MAP)
    open_ended = build_office_nmdp(grid, coffee_prm())
    m = build_office_nmdp(grid, coffee_prm(), (O, STAR))
    assert brute_force_word_realizability(m, (C, O), node_budget=10 ** 5).labels == [C, O]
    assert brute_force_reward_distribution(m, (C, O)) == pytest.approx({1.0: 0.9, 0.0: 0.1})
    for word in [(C, O, EMPTY_LABEL), (C, O, C, O)]:
        assert brute_force_word_realizability(open_ended, word, node_budget=10 ** 5) is not None
        assert brute_force_word_realizability(m, word, node_budget=10 ** 5) is None
        with pytest.raises(UnreachableWordError):
            brute_force_reward_distribution(m, word)


def ref_brute_force_word_realizability(m, w, node_budget):
    """The depth-first search as a recursion of one call per label: the
    lexicographically least witness, or None; raises BudgetExceededError
    as the search does."""
    expanded = 0
    states, actions = [m.x_init], []

    def search(depth):
        nonlocal expanded
        if depth == len(w):
            return True
        x = states[-1]
        for a in m.available[x]:
            for x_next in np.flatnonzero(m.p[(x, a)]):
                x_next = int(x_next)
                expanded += 1
                if expanded > node_budget:
                    raise BudgetExceededError(expanded)
                if m.labeling[(x, a, x_next)] != w[depth]:
                    continue
                states.append(x_next)
                actions.append(a)
                if search(depth + 1):
                    return True
                states.pop()
                actions.pop()
        return False

    return Trajectory(states=states, actions=actions, labels=list(w)) if search(0) else None


def search_outcome(search, m, w, node_budget):
    try:
        found = search(m, w, node_budget=node_budget)
    except BudgetExceededError as err:
        return "budget", err.nodes_expanded
    return ("none", None) if found is None else ("witness", found)


def test_witness_matches_the_recursive_search():
    kinds = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        m = random_nmdp(rng, n_states=int(rng.integers(2, 5)), n_actions=int(rng.integers(1, 4)),
                        props=("a", "b"), dyadic=bool(seed % 2))
        labels = m.ap.labels()
        for _ in range(60):
            w = tuple(labels[i] for i in rng.integers(0, len(labels), int(rng.integers(0, 8))))
            budget = int(rng.integers(1, 300))
            outcome = search_outcome(brute_force_word_realizability, m, w, budget)
            assert outcome == search_outcome(ref_brute_force_word_realizability, m, w, budget), (seed, w)
            kinds.add(outcome[0])
    # witnesses, exhausted searches and exceeded budgets all occur
    assert kinds == {"budget", "none", "witness"}


def test_witness_longer_than_the_recursion_limit():
    # one label per frame of a recursive search would overflow the stack
    m = build_office_nmdp(parse_gridmap(OFFICE_MAP), coffee_prm())
    word = (EMPTY_LABEL,) * 2000
    witness = brute_force_word_realizability(m, word, node_budget=10 ** 5)
    assert len(witness.actions) == 2000 and len(witness.states) == 2001
    assert witness.labels == list(word)
    assert brute_force_reward_distribution(m, word) == {0.0: 1.0}


# -- reward-distribution oracle -----------------------------------------------------


def test_brute_force_coffee_split():
    grid = parse_gridmap(OFFICE_MAP)
    m = build_office_nmdp(grid, coffee_prm())
    dist = brute_force_reward_distribution(m, (C, O))
    assert dist == pytest.approx({1.0: 0.9, 0.0: 0.1})


def test_brute_force_zero_machine():
    m = two_cell_nmdp(single_state_zero_prm(("c",)))
    assert brute_force_reward_distribution(m, (C, EMPTY_LABEL)) == {0.0: 1.0}


def test_brute_force_unrealizable_word():
    m = build_office_nmdp(parse_gridmap("A."), single_state_zero_prm(("c",)))
    with pytest.raises(UnreachableWordError):
        brute_force_reward_distribution(m, (C,))


def test_machine_reward_distribution_unreachable():
    text = "\n".join([
        "ap: a", "gamma: 0", "init: y0",
        "y0 --ε/0--> y0 : 1.0",
    ])
    prm = prm_from_text(text)
    with pytest.raises(UnreachableWordError):
        machine_reward_distribution(prm, (frozenset({"a"}),))


def test_oracle_agrees_with_matrix_semantics():
    # the two code paths are independent: agreement is real evidence
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        prm = random_prm(rng, n, ["a", "b"], [0.0, 1.0, 2.0])
        m = free_nmdp(prm)
        labels = prm.ap.labels()
        length = int(rng.integers(1, 6))
        w = tuple(labels[int(rng.integers(0, len(labels)))] for _ in range(length))
        oracle = brute_force_reward_distribution(m, w)
        matrix = prm.next_reward_distribution(w[:-1], w[-1])
        assert set(oracle) == set(matrix)
        for gamma in oracle:
            assert abs(oracle[gamma] - matrix[gamma]) <= 1e-12


# -- total variation and encoding distance ---------------------------------------------


def test_total_variation():
    assert total_variation({0.0: 1.0}, {0.0: 1.0}) == 0.0
    assert total_variation({0.0: 1.0}, {1.0: 1.0}) == 1.0
    assert total_variation({0.0: 0.9, 1.0: 0.1}, {0.0: 1.0}) == pytest.approx(0.1)


def test_encoding_distance_zero_for_identical():
    truth = coffee_prm()
    report = encoding_distance(truth, truth, max_len=4)
    assert report.distance == 0.0
    assert report.worst_word is None
    assert report.words_checked > 0


def test_encoding_distance_perturbed_split():
    truth = coffee_prm()
    # replace the 0.9/0.1 coffee split with a certain 1.0
    import numpy as np
    from prmlearn import Prm

    tau = dict(truth.tau)
    rho = dict(truth.rho)
    vec = np.zeros(5)
    vec[1] = 1.0
    tau[(0, C)] = vec
    del rho[(0, C, 2)]
    h = Prm(truth.ap, truth.gamma, truth.states, truth.init, tau, rho)
    report = encoding_distance(h, truth, max_len=3)
    assert report.distance == pytest.approx(0.1)
    assert report.worst_word == (C, O)


def test_encoding_distance_all_bottom():
    truth = patrol_prm()
    text = "\n".join([
        "ap: c", "gamma: 0,1", "init: q0", "bottom: bot", "implicit_bottom: true",
    ])
    empty = prm_from_text(text)
    report = encoding_distance(empty, truth, max_len=3)
    assert report.distance == 1.0
    assert len(report.bottom_words) == report.words_checked


def test_encoding_distance_rejects_negative_max_len():
    truth = coffee_prm()
    with pytest.raises(ValueError):
        encoding_distance(truth, truth, max_len=-1)
    assert encoding_distance(truth, truth, max_len=0).words_checked == 0


def test_encoding_distance_rejects_a_hypothesis_without_the_truths_propositions():
    truth = random_prm(np.random.default_rng(5), 2, ["a", "b"], [0.0, 1.0])
    h = prm_from_text("ap: a\ngamma: 0,1\ninit: q0\nq0 --a/1--> q0 : 1.0\nq0 --ε/0--> q0 : 1.0\n")
    with pytest.raises(ValueError, match="the truth's label b uses a proposition the hypothesis's propositions lack"):
        encoding_distance(h, truth, max_len=0)   # before the walk, which would check no word


def test_encoding_distance_makes_one_product_per_machine_per_pair():
    """The office walk at length 5 reaches 4 distinct belief pairs: one
    `advance_labels` product each for the truth and the copy, no `advance`."""
    truth = load_env_config(OFFICE).truth
    copy = prm_from_text(prm_to_text(truth))
    calls = {"truth": 0, "copy": 0}
    for name, prm in (("truth", truth), ("copy", copy)):
        def counted(vec, labels, name=name, batched=prm.advance_labels):
            calls[name] += 1
            return batched(vec, labels)

        def unused(vec, label):
            raise AssertionError("advance called")

        prm.advance_labels, prm.advance = counted, unused
    report = encoding_distance(copy, truth, max_len=5)
    assert calls == {"truth": 4, "copy": 4}
    assert report.words_checked == 37448
    assert report.distance <= 1e-12


def test_encoding_distance_stops_at_the_first_empty_layer():
    """The truth reads only <a>, so every layer after the first is empty: a
    bound of 10**12 checks the one word, as a bound of 1 does."""
    truth = prm_from_text("ap: a\ngamma: 0,1\ninit: q0\nq0 --a/1--> q1 : 1.0\n")
    h = prm_from_text("ap: a\ngamma: 0,1\ninit: q0\nq0 --a/0--> q0 : 0.5\nq0 --a/1--> q1 : 0.5\n")
    short, long = encoding_distance(h, truth, max_len=1), encoding_distance(h, truth, max_len=10**12)
    assert (long.distance, long.worst_word, long.words_checked) == (0.5, (frozenset({"a"}),), 1)
    assert long == short and long.bottom_words == short.bottom_words == []


def test_encoding_distance_counts_bottom_words():
    truth = patrol_prm()
    # reads only {c}, and only from q0: every word but {c} itself is absorbed
    text = "\n".join([
        "ap: c", "gamma: 0,1", "init: q0", "bottom: bot", "implicit_bottom: true",
        "q0 --c/1--> q1 : 1.0",
    ])
    h = prm_from_text(text)
    report = encoding_distance(h, truth, max_len=3)
    assert report.words_checked == 2 + 4 + 8
    assert report.bottom_count == report.words_checked - 1
    assert report.first_bottom_word == (EMPTY_LABEL,)
    assert report.bottom_words[0] == (EMPTY_LABEL,)
    assert len(report.bottom_words) == report.bottom_count
    assert (C,) not in report.bottom_words


def test_encoding_distance_long_words_on_office():
    truth = load_env_config(OFFICE).truth
    copy = prm_from_text(prm_to_text(truth))
    report = encoding_distance(copy, truth, max_len=30)
    assert report.distance <= 1e-12
    assert report.words_checked == sum(8 ** k for k in range(1, 31))
    assert report.bottom_count == 0
    assert report.bottom_words == []


def reference_encoding_distance(h: Prm, truth: Prm, max_len: int) -> dict:
    """Word-by-word breadth-first walk over every truth-realizable word,
    recomputing each prefix from scratch: the definition that
    `encoding_distance` computes over belief pairs instead."""
    labels = sorted(set(l for _, l in truth.tau), key=label_sort_key)
    out = {"distance": 0.0, "worst_word": None, "words_checked": 0, "bottom_words": []}

    def h_mass_vector(word):
        vec = h.initial_vector()
        for label in word:
            vec = vec @ h.label_matrix(label)
        return vec

    frontier = [((), truth.initial_vector())]
    for _ in range(max_len):
        nxt = []
        for prefix, tvec in frontier:
            for label in labels:
                tnext = tvec @ truth.label_matrix(label)
                if float(tnext.sum()) <= 0.0:
                    continue
                word = prefix + (label,)
                out["words_checked"] += 1
                truth_dist = truth.next_reward_distribution(prefix, label)
                hvec = h_mass_vector(prefix) @ h.label_matrix(label)
                live = float(hvec.sum())
                if h.bottom is not None:
                    live -= float(hvec[h.bottom])
                if live <= 1e-15:
                    out["bottom_words"].append(word)
                    if out["distance"] < 1.0:
                        out["distance"] = 1.0
                        out["worst_word"] = word
                else:
                    tv = total_variation(h.next_reward_distribution(prefix, label), truth_dist)
                    if tv > out["distance"]:
                        out["distance"] = tv
                        out["worst_word"] = word
                nxt.append((word, tnext))
        frontier = nxt
    return out


def random_machine(rng, kind: str, *, dyadic: bool, rewards=(0.0, 1.0, 2.0)) -> Prm:
    """A small random machine over {a, b}: `total`, `partial` (each pair
    defined with probability 0.7) or `bottom` (partial, each edge paying a
    reward of the state it enters, undefined pairs absorbed by an implicit
    failure state).  Each edge pays one of `rewards`."""
    ap = Alphabet(["a", "b"])
    n = int(rng.integers(1, 4)) + (kind == "bottom")
    rewards = list(rewards)
    tau, rho = {}, {}
    for y in range(n):
        for label in ap.labels():
            if kind != "total" and rng.random() < 0.3:
                continue
            if dyadic:
                vec = dyadic_vector(rng, n, grain=4)
            else:
                vec = rng.random(n) + 1e-3
                vec = vec / vec.sum()
            tau[(y, label)] = vec
            reward = rewards[int(rng.integers(0, len(rewards)))]
            rho.update(((y, label, int(j)), reward) for j in np.flatnonzero(vec))
    names = ["y%d" % i for i in range(n)]
    if kind != "bottom":
        return Prm(ap, rewards, names, 0, tau, rho)
    tags = [rewards[int(rng.integers(0, len(rewards)))] for _ in range(n - 1)] + [0.0]
    return Prm(ap, rewards, names, 0, tau, successor_rewards(tau, tags),
               bottom=n - 1, implicit_bottom=True)


def perturbed(rng, prm: Prm) -> Prm:
    """`prm` with about a third of its transition rows redrawn (dyadic):
    the same pairs, different probabilities.  An edge keeps its reward; a
    new edge pays the reward of one of its pair's old edges."""
    tau = {
        key: dyadic_vector(rng, prm.n_states(), grain=4) if rng.random() < 0.3 else vec
        for key, vec in prm.tau.items()
    }
    kept = {(y, label): reward for (y, label, _), reward in prm.rho.items()}  # one per pair
    rho = {edge: prm.rho.get(edge, kept[edge[:2]]) for edge in edges_of(tau)}
    return Prm(prm.ap, prm.gamma, prm.states, prm.init, tau, rho,
               bottom=prm.bottom, implicit_bottom=prm.implicit_bottom)


KINDS = st.sampled_from(["total", "partial", "bottom"])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), h_kind=KINDS, truth_kind=KINDS,
       max_len=st.integers(0, 4), h_from=st.sampled_from(["random", "perturbed", "same"]),
       h_rewards=st.sampled_from([(0.0, 1.0, 2.0), (0.0, 0.5, 2.0), (1.0, 3.0), (0.5, 1.0, 2.0, 4.0)]))
def test_encoding_distance_matches_word_walk(seed, h_kind, truth_kind, max_len, h_from, h_rewards):
    # dyadic probabilities keep every product exact, so the word walk's
    # matrix-matrix chains and the pair walk's vector chains agree bit for
    # bit; a random h may pay other rewards, matched to the truth's by value
    rng = np.random.default_rng(seed)
    truth = random_machine(rng, truth_kind, dyadic=True)
    if h_from == "random":
        h = random_machine(rng, h_kind, dyadic=True, rewards=h_rewards)
    else:
        h = truth if h_from == "same" else perturbed(rng, truth)
    report = encoding_distance(h, truth, max_len)
    ref = reference_encoding_distance(h, truth, max_len)
    assert report.distance == ref["distance"]
    assert report.worst_word == ref["worst_word"]
    assert report.words_checked == ref["words_checked"]
    assert report.bottom_count == len(ref["bottom_words"])
    assert report.first_bottom_word == (ref["bottom_words"][0] if ref["bottom_words"] else None)
    assert report.bottom_words == ref["bottom_words"]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), h_kind=KINDS, truth_kind=KINDS,
       max_len=st.integers(1, 3))
def test_encoding_distance_matches_word_walk_non_dyadic(seed, h_kind, truth_kind, max_len):
    # the two walks multiply in different orders: sums may differ in the
    # last bits, counts and absorbed words may not
    rng = np.random.default_rng(seed)
    truth = random_machine(rng, truth_kind, dyadic=False)
    h = random_machine(rng, h_kind, dyadic=False)
    report = encoding_distance(h, truth, max_len)
    ref = reference_encoding_distance(h, truth, max_len)
    assert report.distance == pytest.approx(ref["distance"], abs=1e-12)
    assert report.words_checked == ref["words_checked"]
    assert report.bottom_words == ref["bottom_words"]
