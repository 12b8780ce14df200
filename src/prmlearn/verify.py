"""Brute-force oracles and encoding checks.

These deliberately avoid the matrix semantics in `machine`: they
enumerate trajectories and machine runs directly, so agreement between
the two code paths is meaningful evidence of correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import Word, label_sort_key, label_str, word_str
from .environment import Nmdp, Trajectory, check_count
from .machine import Prm, UnreachableWordError

DEFAULT_NODE_BUDGET = 1000


class BudgetExceededError(RuntimeError):
    def __init__(self, nodes_expanded: int):
        super().__init__("search budget exhausted after expanding %d nodes" % nodes_expanded)
        self.nodes_expanded = nodes_expanded


def _positive_reward_possible(prm: Prm, w: Word) -> bool:
    """True when a run of the hidden machine on w accrues positive total
    reward with positive probability."""
    # frontier of (machine state, has collected positive reward so far)
    frontier = {(prm.init, False)}
    for label in w:
        nxt = set()
        for y, hot in frontier:
            vec = prm.successor_vector(y, label)
            for j in np.flatnonzero(vec):
                j = int(j)
                nxt.add((j, hot or prm.edge_reward(y, label, j) > 0.0))
        frontier = nxt
    return any(hot for _, hot in frontier)


def _successors(m: Nmdp, x: int):
    """The (action, successor state) pairs of state x, in index order."""
    for a in m.available[x]:
        for x_next in np.flatnonzero(m.p[(x, a)]):
            yield a, int(x_next)


def brute_force_word_realizability(
    m: Nmdp,
    w: Word,
    *,
    criterion: str = "label_only",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Trajectory | None:
    """Exhaustive search for a trajectory whose label word equals w.

    Every transition emits a symbol (the empty label included), so a
    witness has exactly |w| steps.  Actions and successor states are
    explored in index order, so the returned witness is the
    lexicographically least one.  An episode ends on a terminal label, so
    a witness takes a terminal-labelled step only as its last.  With
    criterion="positive_reward" the trajectory must additionally give the
    hidden machine a positive probability of positive total reward.
    """
    if criterion not in ("label_only", "positive_reward"):
        raise ValueError("unknown criterion %r" % (criterion,))
    check_count(node_budget, "node_budget")
    for label in w:
        m.ap.validate_label(label)
    if any(label in m.terminal_labels for label in w[:-1]):
        return None

    # depth-first with an explicit stack, so a word's length is not bounded
    # by the recursion limit: frames[d] yields the (action, successor)
    # pairs of states[d] in index order, and actions[d] was taken there
    expanded = 0
    states = [m.x_init]
    actions: list = []
    frames = [_successors(m, m.x_init)]
    while len(actions) < len(w):
        x, depth = states[-1], len(actions)
        for a, x_next in frames[-1]:
            expanded += 1
            if expanded > node_budget:
                raise BudgetExceededError(expanded)
            if m.labeling[(x, a, x_next)] == w[depth]:
                states.append(x_next)
                actions.append(a)
                frames.append(_successors(m, x_next))
                break
        else:
            frames.pop()
            if not frames:
                return None
            states.pop()
            actions.pop()
    if criterion == "positive_reward" and not _positive_reward_possible(m.truth, w):
        # the label word is realizable but can never pay: keep searching is
        # pointless, reward depends only on the label word
        return None
    return Trajectory(states=states, actions=actions, labels=list(w))


def machine_reward_distribution(prm: Prm, w: Word) -> dict:
    """Distribution of the reward emitted on the last symbol of w, by
    exact forward enumeration of machine runs (no matrix products)."""
    if not w:
        raise ValueError("the word must be non-empty")
    dist = {prm.init: 1.0}
    for label in w[:-1]:
        nxt: dict = {}
        for y, p in dist.items():
            vec = prm.successor_vector(y, label)
            for j in np.flatnonzero(vec):
                j = int(j)
                nxt[j] = nxt.get(j, 0.0) + p * float(vec[j])
        dist = nxt
    out: dict = {}
    for y, p in dist.items():
        vec = prm.successor_vector(y, w[-1])
        for j in np.flatnonzero(vec):
            j = int(j)
            reward = prm.edge_reward(y, w[-1], j)
            out[reward] = out.get(reward, 0.0) + p * float(vec[j])
    total = sum(out.values())
    if total <= 0.0:
        raise UnreachableWordError("word %s is unreachable in the machine" % (word_str(w),))
    return {reward: p / total for reward, p in out.items()}


def brute_force_reward_distribution(m: Nmdp, w: Word) -> dict:
    """Distribution of the final reward of w under the environment's hidden
    reward machine."""
    if brute_force_word_realizability(m, w, node_budget=10 ** 7) is None:
        raise UnreachableWordError("word %s is not realizable in the environment" % (word_str(w),))
    return machine_reward_distribution(m.truth, w)


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


@dataclass
class EncodingReport:
    """Result of `encoding_distance`.  `bottom_words` lists the words
    counted in `bottom_count`, in breadth-first order; it is built on
    first access, and can be exponentially long."""

    distance: float
    worst_word: Word | None
    words_checked: int = 0
    bottom_count: int = 0
    first_bottom_word: Word | None = None
    _list_bottom: object = field(default=None, init=False, repr=False, compare=False)
    _bottom_words: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def bottom_words(self) -> list:
        if self._bottom_words is None:
            self._bottom_words = [] if self._list_bottom is None else self._list_bottom()
        return self._bottom_words


def encoding_distance(h: Prm, truth: Prm, max_len: int) -> EncodingReport:
    """Worst-case total-variation distance between the next-reward
    distributions of h and truth over all truth-realizable words of
    length at most max_len.  Words whose probability mass in h is fully
    absorbed by the failure state (or vanishes) count as distance 1 and
    are counted in `bottom_count`.  Raises ValueError before the walk when
    a label the truth reads uses a proposition h's alphabet lacks.

    Words are checked in breadth-first order, labels in index order;
    `worst_word` is the first word that reaches the distance.  The walk
    goes layer by layer over distinct belief pairs (truth state vector,
    hypothesis state vector), carrying the number of words that reach
    each pair and the first of them, so its cost grows with the number of
    distinct pairs per layer, not with the |labels|^max_len words, and it
    stops at the first empty layer.  Each pair is expanded once, over every
    label: one `advance_labels` product for the truth and, if the truth
    reads some label there, one for h; each label's successor pair, h's
    live mass and the distance are read from their rows and row sums."""
    check_count(max_len, "max_len")
    labels = sorted(set(l for _, l in truth.tau), key=label_sort_key)
    for label in labels:
        if not label <= set(h.ap.props):
            raise ValueError("the truth's label %s uses a proposition the hypothesis's propositions lack"
                             % label_str(label))
    pair_ids, pairs = {}, []   # bytes of both vectors -> pair id -> vectors

    def intern(tvec, hvec) -> int:
        key = tvec.tobytes() + hvec.tobytes()
        pair = pair_ids.get(key)
        if pair is None:
            pair = pair_ids[key] = len(pairs)
            pairs.append((tvec, hvec))
        return pair

    # per reward of either machine, its row in a label's block of h's and
    # of the truth's product (0 when that machine lacks it)
    tw, hw = 1 + len(truth.gamma), 1 + len(h.gamma)
    offsets = [(1 + h.gamma.index(g) if g in h.gamma else 0, 1 + truth.gamma.index(g) if g in truth.gamma else 0)
               for g in sorted(set(h.gamma) | set(truth.gamma))]
    # pair -> by label index: (successor pair, distance, absorbed), or None
    # when the truth cannot read the label
    rows = {}

    def expand(pair) -> list:
        tvec, hvec = pairs[pair]
        tout, tsums = truth.advance_labels(tvec, labels)
        # the truth reads a label when its reward distribution is not empty:
        # mass in the label's row and in one of its rewards' rows
        reads = [(i, t) for i, t in enumerate(range(0, len(tsums), tw))
                 if tsums[t] > 0.0 and max(tsums[t + 1:t + tw]) > 0.0]
        row = rows[pair] = [None] * len(labels)
        if not reads:
            return row
        hout, hsums = h.advance_labels(hvec, labels)
        for i, t in reads:
            k = i * hw
            live = hsums[k]
            if h.bottom is not None:
                live -= float(hout[k, h.bottom])
            absorbed = live <= 1e-15
            if absorbed:
                value = 1.0
            else:
                # both denominators are positive and every mass is not
                # negative, so mass / denominator is 0.0 just where the
                # reward's probability is absent
                gaps = []
                for hj, tj in offsets:
                    gap = abs((hsums[k + hj] / hsums[k] if hj else 0.0) - (tsums[t + tj] / tsums[t] if tj else 0.0))
                    if gap:
                        gaps.append(gap)
                # two gaps sum alike in any order; more are summed in the
                # order `total_variation` takes its rewards
                value = 0.5 * sum(gaps) if len(gaps) <= 2 else total_variation(
                    {g: m / hsums[k] for g, m in zip(h.gamma, hsums[k + 1:k + hw]) if m > 0.0},
                    {g: m / tsums[t] for g, m in zip(truth.gamma, tsums[t + 1:t + tw]) if m > 0.0})
            row[i] = (intern(tout[t], hout[k]), value, absorbed)
        return row

    root = intern(truth.initial_vector(), h.initial_vector())

    report = EncodingReport(distance=0.0, worst_word=None)
    layers = []
    # pair -> [words reaching it, first such word as label indices]; dict
    # order is the order of the first words
    layer = {root: [1, ()]}
    for _ in range(max_len):
        if not layer:
            break
        layers.append(tuple(layer))
        nxt = {}
        for pair, (count, first) in layer.items():
            row = rows.get(pair)
            for i, out in enumerate(expand(pair) if row is None else row):
                if out is None:
                    continue
                succ, value, absorbed = out
                report.words_checked += count
                if absorbed:
                    if report.first_bottom_word is None:
                        report.first_bottom_word = first + (i,)
                    report.bottom_count += count
                if value > report.distance:
                    report.distance = value
                    report.worst_word = first + (i,)
                slot = nxt.get(succ)
                if slot is None:
                    nxt[succ] = [count, first + (i,)]
                else:
                    slot[0] += count
        layer = nxt

    def word(indices):
        return None if indices is None else tuple(labels[i] for i in indices)

    report.worst_word = word(report.worst_word)
    report.first_bottom_word = word(report.first_bottom_word)
    if report.bottom_count:
        report._list_bottom = lambda: _bottom_words(layers, rows, labels, root)
    return report


def _bottom_words(layers, rows, labels, root) -> list:
    """Every absorbed word in breadth-first order, walking only prefixes
    whose pair can still reach an absorbed step within the length bound."""
    # alive[d]: pairs at depth d with an absorbed step at some depth > d
    alive = [set() for _ in range(len(layers) + 1)]
    for d in range(len(layers) - 1, -1, -1):
        for pair in layers[d]:
            if any(out is not None and (out[2] or out[0] in alive[d + 1]) for out in rows[pair]):
                alive[d].add(pair)
    words = []
    frontier = [((), root)] if root in alive[0] else []
    for d in range(len(layers)):
        later = alive[d + 1]
        nxt = []
        for prefix, pair in frontier:
            for label, out in zip(labels, rows[pair]):
                if out is None:
                    continue
                succ, _, absorbed = out
                word = prefix + (label,)
                if absorbed:
                    words.append(word)
                if succ in later:
                    nxt.append((word, succ))
        frontier = nxt
    return words
