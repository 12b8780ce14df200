"""Sampling observation tables.

The table tracks reward frequencies T(w) for every prefix of every
recorded trace; a word's sample count is the sum of its frequencies.
Statistical difference between two empirical reward distributions uses a
Hoeffding bound at confidence alpha = 1/M^3 where M is the total number
of samples so far.
"""

from __future__ import annotations

import csv
import functools
import math
from array import array

import numpy as np

from .alphabet import (
    Alphabet,
    EPSILON,
    Label,
    WORD_SEPARATOR,
    Word,
    format_reward,
    label_str,
    word_str,
)
from .environment import check_count
from .machine import Prm


@functools.lru_cache(maxsize=1)
def _hoeffding_factor(m_total: int) -> float:
    """sqrt(0.5 ln(2/alpha)) at alpha = 1/M^3: the threshold of two words
    with n and n' samples is this factor times sqrt(1/n) + sqrt(1/n').
    The last M's factor is kept: a sweep or a counterexample check asks
    for it once per test, at one M.  M is cubed as an int: a numpy M
    would wrap past 2^21."""
    alpha = 1.0 / int(m_total) ** 3
    return math.sqrt(0.5 * math.log(2.0 / alpha))


def _differ(f, n, g, m, factor: float) -> bool:
    """The Hoeffding test on two frequency maps (reward -> count) with
    n > 0 and m > 0 samples, m possibly a float: some reward's gap
    |f[gamma]/n - g[gamma]/m| exceeds factor * (sqrt(1/n) + sqrt(1/m))."""
    threshold = factor * (math.sqrt(1.0 / n) + math.sqrt(1.0 / m))
    for gamma, count in f.items():
        if abs(count / n - g.get(gamma, 0) / m) > threshold:
            return True
    for gamma, count in g.items():
        # a reward of only the second map: its gap is |0 - count/m| = count/m
        if gamma not in f and count / m > threshold:
            return True
    return False


def diff(f, s: Word, s_prime: Word, m_total: int) -> bool:
    """Statistical difference of the reward distributions of two words.

    `f` maps words to frequency maps (reward -> count).  False whenever
    either word has no samples; an m_total below 1 raises a ValueError."""
    check_count(m_total, "m_total", positive=True)
    freq, freq_prime = f(s), f(s_prime)
    n, n_prime = sum(freq.values()), sum(freq_prime.values())
    if n == 0 or n_prime == 0:
        return False
    return _differ(freq, n, freq_prime, n_prime, _hoeffding_factor(m_total))


def diff_against_distribution(freq, dist: dict, m_total: int) -> bool:
    """Hoeffding test of an empirical frequency map against an expected
    distribution scaled to the same sample size: `diff` of the map and
    {reward: p * n}."""
    check_count(m_total, "m_total", positive=True)
    n = sum(freq.values())
    if n == 0:
        return False
    expected = {gamma: p * n for gamma, p in dist.items()}
    n_prime = sum(expected.values())
    if n_prime == 0:
        return False
    return _differ(freq, n, expected, n_prime, _hoeffding_factor(m_total))


def is_counterexample(table: ObservationTable, h: Prm, trace, n_check: int, steps=None):
    """Returns the offending prefix word, or None.

    A prefix is a counterexample when (a) it is fully absorbed by the
    failure state despite being sampled at least n_check times, or (b)
    its empirical reward distribution is statistically different from
    the hypothesis prediction at that prefix.

    The walk follows the trace's word ids and stops at the first prefix
    below n_check (at least 1) samples with none or with
    factor * sqrt(1/n) >= 1: no later prefix has more samples, so none
    reaches n_check, and its threshold of at least 1 exceeds every gap.
    A prefix whose counts and prediction hold one and the same reward is
    not tested: its one gap is n/n - p*n/(p*n) = 0, so the Hoeffding
    test `_differ` would say False.

    `steps` memoises `h.advance` by the id of the word it ends, falling
    back on (bytes of the state vector, label), and keeps the initial
    vector and its bytes under None; a caller checking many traces of one
    table against one hypothesis passes the same dict to every call."""
    if steps is None:
        steps = {}
    factor = _hoeffding_factor(max(table.total_samples(), 1))
    start = steps.get(None)
    if start is None:
        vec = h.initial_vector()
        start = steps[None] = (vec, vec.tobytes())
    vec, key = start
    child, counts, sizes = table._child, table._counts, table._n
    node = 0
    for k, (label, _) in enumerate(trace):
        node = child.get((node, label))
        n = 0 if node is None else sizes[node]   # the prefix's sample count
        if n < n_check and (n == 0 or factor * math.sqrt(1.0 / n) >= 1.0):
            return None
        hit = steps.get(node)
        if hit is None:
            hit = steps.get((key, label))
            if hit is None:
                nxt, expected = h.advance(vec, label)
                absorbed = h.bottom is not None and nxt[h.bottom] >= 1.0 - 1e-12
                # the prediction's reward when it holds just one, else None
                single = next(iter(expected)) if len(expected) == 1 else None
                hit = steps[(key, label)] = (nxt, nxt.tobytes(), expected, single, absorbed)
            steps[node] = hit
        vec, key, expected, single, absorbed = hit
        freq = counts[node]
        if absorbed:
            if n >= n_check:
                return tuple(label for label, _ in trace[:k + 1])
            continue
        if len(freq) == 1 and single in freq:
            continue
        if expected:
            # the prediction scaled to the prefix's n samples
            scaled = {gamma: p * n for gamma, p in expected.items()}
            n_prime = sum(scaled.values())
            if n_prime and _differ(freq, n, scaled, n_prime, factor):
                return tuple(label for label, _ in trace[:k + 1])
    return None


CSV_COLUMNS = ("word", "reward", "count", "sample")
REPAIR_MAX_STEPS = 10_000


class ObservationTable:
    """Observation table (S, E, T).

    `alphabet` is the list of labels iterated by the closedness and
    consistency checks (typically the labels occurring in the
    environment, not all of 2^AP: unobservable labels have empty rows,
    which never affect either check).
    """

    def __init__(self, ap: Alphabet, alphabet=None):
        self.ap = ap
        self.alphabet = list(alphabet) if alphabet is not None else ap.labels()
        self.s: list = [0]   # S as word ids, in order; ε's is 0
        self._in_s = {0}
        self.e: list = [EPSILON]
        self.rewards: set = set()   # every recorded reward: the keys of the counts in t
        self.num_traces = 0
        self._total_samples = 0
        # Word ids, the table's one store of words: every prefix of a
        # recorded word has one, ε has 0, a parent's id is below its
        # children's, and no word's tuple is kept.  A recorded word has at
        # most as many samples as its parent (ε counts num_traces).  Only
        # add_state makes an id without counts, for a word never recorded,
        # and no descendant of such an id has counts.
        self._child: dict = {}            # (parent id, label) -> id
        self._parent: list = [None]       # id -> its (parent id, label) key in _child
        self._counts: list = [None]       # id -> the word's {reward: positive int count}, or None
        self._n: list = [0]               # id -> the sum of its counts, 0 without counts (ε's too)
        # E as a trie beside its list, which marks membership too: a node is
        # [its word's index into E or None, {label: child node}], root ε's.
        self._e_trie: list = [0, {}]
        # Caches derived from the counts and E, filled on first use.  The
        # word-pair verdicts depend on the counts alone (and on the sample
        # total, which the counts fix); the columns and the row verdicts
        # also depend on E.
        # (id, id') with id < id' -> whether the two words differ
        self._pairs: dict = {}
        # row id -> (the set of indices into E of the columns with samples
        # at row.e, {index: the id of row.e} over those of them that can
        # differ, in E order)
        self._cols: dict = {}
        # (row id, row id') with id <= id' -> the compatible_rows verdict
        self._verdicts: dict = {}
        # the last is_closed and is_consistent results until S, E or the counts change
        self._closed = self._consistent = None
        # row id -> its _preference, which depends on the counts through rank
        self._preferences: dict = {}
        self._names: dict = {}   # row id -> its (length, text), which no change alters

    def _counts_changed(self) -> None:
        self._pairs.clear()
        self._preferences.clear()
        self._columns_changed()

    def _columns_changed(self) -> None:
        self._cols.clear()
        self._verdicts.clear()
        self._closed = self._consistent = None

    # -- recording ---------------------------------------------------------

    def _intern(self, parent: int, label: Label) -> int:
        """The new id of the word with id `parent` extended by `label`."""
        key = (parent, label)
        new = self._child[key] = len(self._parent)
        self._parent.append(key)
        self._counts.append(None)
        self._n.append(0)
        return new

    def _node(self, word: Word) -> int:
        """The id of `word`, given with its prefixes' ids where missing."""
        node, child = 0, self._child
        for label in word:
            nxt = child.get((node, label))
            node = nxt if nxt is not None else self._intern(node, label)
        return node

    def record(self, trace, times: int = 1) -> int:
        """Count every nonempty prefix of a trace of (label, reward) pairs
        `times` times, a positive int: the table of `times` calls with the
        trace.  Returns the id of the trace's label word (0 when empty)."""
        if times.__class__ is not int or times < 1:   # a bool is no count, and True == 1
            check_count(times, "times", positive=True)
            times = int(times)   # a numpy count would make every total numpy's
        if not trace:
            return 0
        self._counts_changed()
        self.num_traces += times
        child, counts, rewards, n = self._child, self._counts, self.rewards, self._n
        node = 0
        for label, reward in trace:
            nxt = child.get((node, label))
            if nxt is None:
                nxt = self._intern(node, label)
            counter = counts[nxt]
            if counter is None:
                counter = counts[nxt] = {}
            if reward.__class__ is not float:
                reward = float(reward)
            count = counter.get(reward)
            if count is None:   # the word's first sample of this reward
                counter[reward] = times
                rewards.add(reward)
            else:
                counter[reward] = count + times
            n[nxt] += times
            node = nxt
        self._total_samples += len(trace) * times
        return node

    # -- lookups -----------------------------------------------------------

    def row(self, word: Word):
        """The id of `word`, or None: a word without an id has no samples."""
        node, child = 0, self._child
        for label in word:
            node = child.get((node, label))
            if node is None:
                break
        return node

    def word(self, node: int) -> Word:
        """The word whose id is `node`."""
        labels = []
        while node:
            node, label = self._parent[node]
            labels.append(label)
        return tuple(reversed(labels))

    @property
    def t(self) -> dict:
        """{word: a copy of its {reward: count}} over the recorded words in
        id order, built on read."""
        words = [EPSILON]
        for parent, label in self._parent[1:]:
            words.append(words[parent] + (label,))
        return {words[i]: dict(c) for i, c in enumerate(self._counts) if c is not None}

    def sampled_words(self, n: int) -> list:
        """The words of t with at least n samples, in t's order; builds no other."""
        least = max(n, 1)
        return [self.word(i) for i, k in enumerate(self._n) if k >= least]

    def freq(self, word: Word) -> dict:
        """A copy of `word`'s {reward: count}: empty for a word without counts."""
        node = self.row(word)
        return {} if node is None or self._counts[node] is None else dict(self._counts[node])

    def samples(self, node) -> int:
        """The sample count of the word whose id is `node`; 0 for None."""
        return 0 if node is None else self._n[node]

    def sample_count(self, word: Word) -> int:
        """How often `word` was a trace prefix; ε counts every trace."""
        return self.samples(self.row(word)) if word else self.num_traces

    def total_samples(self) -> int:
        return self._total_samples

    def add_state(self, word: Word) -> bool:
        """Add `word`'s id to S, giving an unrecorded word one without counts."""
        node = self._node(word)
        if node in self._in_s:
            return False
        self._in_s.add(node)
        self.s.append(node)
        self._closed = self._consistent = None
        return True

    def add_experiment(self, word: Word) -> bool:
        node = self._e_trie
        for label in word:
            kids = node[1]
            node = kids.get(label)
            if node is None:
                node = kids[label] = [None, {}]
        if node[0] is not None:
            return False
        node[0] = len(self.e)
        self.e.append(word)
        self._columns_changed()
        return True

    # -- compatibility ------------------------------------------------------
    #
    # A row is its word's id; the row s.l is _child[(s, l)], and a word
    # without an id has no samples.  `diff` is False whenever either word
    # has no samples, so a row test only visits the experiment columns that
    # both rows have samples for: it gives the results and witnesses of a
    # loop over all of E, and costs the number of shared sampled columns,
    # not |E|.  A row finds its columns by walking E's trie and the word
    # ids together from the row's id, so it visits only the E prefixes
    # recorded after the row, not every column of E.  The walk stops where
    # a word has no id.  Every word's counts hold at least one sample, and
    # an id without counts, which only add_state makes, has no descendant
    # with counts.
    # A word with n samples whose factor * sqrt(1/n) is at least 1 never
    # differs either: its threshold is at least 1 (rounding is monotone, so
    # adding sqrt(1/n') cannot lower it), and no gap between two
    # frequencies in [0, 1] exceeds 1.
    # So a row test visits only the shared testable columns: the cost of a
    # row is its visited E prefixes, and of a row test its testable
    # columns.  Each word pair's verdict is computed once until the
    # counts change; rows (s, s') at column l.e and rows (s.l, s'.l) at
    # column e test the same two words.  Each row pair's verdict is kept
    # until the counts or E change.

    def _columns(self, s: int):
        """(the set of indices i into E of the columns with samples at
        s.E[i], {i: the id of s.E[i]} over those of them whose word can
        differ from another, in E order), for the row with id s."""
        cols = self._cols.get(s)
        if cols is None:
            hits = []   # (i, id of s.E[i], its sample count)
            child, n = self._child, self._n
            stack = [(self._e_trie, s)]
            while stack:
                (i, kids), node = stack.pop()
                if i is not None and n[node]:
                    hits.append((i, node, n[node]))
                for label, sub in kids.items():
                    nxt = child.get((node, label))
                    if nxt is not None:
                        stack.append((sub, nxt))
            hits.sort()
            # sqrt(1/n) is the root the test computes, so the words left
            # out are exactly those whose threshold is at least 1
            factor = _hoeffding_factor(max(self._total_samples, 1))
            cols = self._cols[s] = (
                {i for i, _, _ in hits},
                {i: node for i, node, n in hits if factor * math.sqrt(1.0 / n) < 1.0},
            )
        return cols

    def _first_difference(self, s: int, s_prime: int):
        """The first index i in E order at which s.E[i] and s_prime.E[i]
        differ by the test `diff` runs, or None."""
        memo = self._cols
        cols = (memo.get(s) or self._columns(s))[1]
        cols_prime = (memo.get(s_prime) or self._columns(s_prime))[1]
        pairs, counts, n, factor = self._pairs, self._counts, self._n, None
        if len(cols_prime) < len(cols):
            cols, cols_prime = cols_prime, cols
        for i, a in cols.items():
            b = cols_prime.get(i)
            if b is None:
                continue
            key = (a, b) if a < b else (b, a)
            differ = pairs.get(key)
            if differ is None:
                factor = factor or _hoeffding_factor(max(self._total_samples, 1))
                differ = pairs[key] = _differ(counts[a], n[a], counts[b], n[b], factor)
            if differ:
                return i
        return None

    def compatible_rows(self, s: int, s_prime: int) -> bool:
        key = (s, s_prime) if s < s_prime else (s_prime, s)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._first_difference(s, s_prime) is None
        return verdict

    def rows_share_evidence(self, s: int, s_prime: int) -> bool:
        """True when some experiment column has samples for both rows."""
        return not self._columns(s)[0].isdisjoint(self._columns(s_prime)[0])

    # -- closedness / consistency -------------------------------------------

    def row_has_data(self, s: int) -> bool:
        return bool(self._columns(s)[0])

    def is_closed(self):
        """Returns (True, None) or (False, (s, label)) with a witness row
        s.label compatible (with shared evidence) with no member of S.
        Rows without any data are vacuously covered: they carry no
        information and map to the failure state anyway."""
        if self._closed is None:
            self._closed = self._closedness()
        return self._closed

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

    def is_consistent(self):
        """Returns (True, None) or (False, (s, s', label, e)), e the first
        column of E at which s.label and s'.label differ."""
        if self._consistent is None:
            self._consistent = self._consistency()
        return self._consistent

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

    # -- representatives ------------------------------------------------------

    def rank(self, s: int) -> int:
        return sum(self.samples(self._child.get((s, label))) for label in self.alphabet)

    def _preference(self, s: int) -> tuple:
        """Rows stand for their class by rank, highest first, then by length and text."""
        preference = self._preferences.get(s)
        if preference is None:
            name = self._names.get(s)
            if name is None:
                word = self.word(s)
                name = self._names[s] = (len(word), word_str(word))
            preference = self._preferences[s] = (-self.rank(s),) + name
        return preference

    def resolve_to_member(self, w: int) -> int:
        """Map an arbitrary row to a compatible member of S, preferring
        members with shared evidence; exists whenever the table is closed."""
        compatible = [s for s in self.s if self.compatible_rows(w, s)]
        if not compatible:
            raise ValueError("no compatible row for %s; table is not closed" % (word_str(self.word(w)),))
        shared = [s for s in compatible if s == w or self.rows_share_evidence(w, s)]
        return min(shared or compatible, key=self._preference)

    # -- serialization ---------------------------------------------------------

    def to_csv(self, path) -> None:
        """One row per (word, reward): the word, the reward, its count, and
        the word's sample count (the sum of its counts), by length and then
        by text, which is spelled one length at a time from the one before."""
        depth, levels = array("l", [0]), [array("l", [0])]   # id -> length; length -> ids, in order
        for i in range(1, len(self._parent)):
            d = depth[self._parent[i][0]] + 1
            depth.append(d)
            if d == len(levels):
                levels.append(array("l"))
            levels[d].append(i)
        text = {0: ""}
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for ids in levels[1:]:
                above, text = text, {}
                for i in ids:
                    parent, label = self._parent[i]
                    text[i] = (above[parent] + WORD_SEPARATOR if parent else "") + label_str(label)
                for i in sorted(ids, key=text.__getitem__):
                    counter = self._counts[i]
                    if counter is not None:
                        for reward in sorted(counter):
                            writer.writerow([text[i], format_reward(reward), counter[reward], self._n[i]])


class TableNotReadyError(ValueError):
    pass


def build_hypothesis(table: ObservationTable, n_check: int) -> Prm:
    """Construct the hypothesis machine from a closed and consistent table.

    States are (reward, representative row) pairs reachable from
    (0, row(epsilon)) plus an absorbing failure state; an edge into
    (reward, row) emits that reward.  Transitions estimate
    reward-annotated successor frequencies, with all mass from
    under-sampled states or unobserved labels routed to the failure
    state.  The machine is total via an implicit failure default.
    """
    closed, witness = table.is_closed()
    if not closed:
        raise TableNotReadyError("table is not closed (witness %r)" % (witness,))
    consistent, witness = table.is_consistent()
    if not consistent:
        raise TableNotReadyError("table is not consistent (witness %r)" % (witness,))

    # Compatibility classes by greedy complete linkage in rank order: a row
    # joins the first class it is compatible with every member of (rows with
    # data must also share evidence with at least one member).  A single
    # sparsely sampled row is then never a bridge between two classes that
    # are mutually different.
    # rows with no data of their own (typically ε, whose own-word column is
    # never recorded) go last so they join an existing class instead of
    # seeding a spurious one
    order_rows = sorted(table.s, key=lambda u: (not table.row_has_data(u),) + table._preference(u))
    classes: list = []
    assign: dict = {}
    for u in order_rows:
        has_data = table.row_has_data(u)
        target = None
        for idx, cls in enumerate(classes):
            if not all(table.compatible_rows(u, v) for v in cls):
                continue
            if has_data and not any(table.rows_share_evidence(u, v) for v in cls):
                continue
            target = idx
            break
        if target is None:
            classes.append([u])
            assign[u] = len(classes) - 1
        else:
            classes[target].append(u)
            assign[u] = target

    start = (0.0, assign[0])
    child, counts = table._child, table._counts
    order = [start]
    seen = {start}
    edges = {}  # (state, label) -> list of (prob, next_state) or None for bottom
    class_edges = {}  # class -> {label: its edge}, shared by the class's states of every reward
    queue = [start]
    while queue:
        state = queue.pop(0)
        cls_edges = class_edges.get(state[1])
        if cls_edges is None:
            cls_edges = class_edges[state[1]] = dict.fromkeys(table.alphabet)
            for label in table.alphabet:
                donors = [u for u in classes[state[1]] if table.samples(child.get((u, label))) > 0]
                if not donors:
                    continue
                u = min(donors, key=lambda v: (-table.samples(child[(v, label)]),) + table._preference(v))
                if (table.samples(u) if u else table.num_traces) < n_check:   # ε counts every trace
                    continue
                # pool the counts of every class member: the rows were merged as
                # statistically indistinguishable, so their extensions estimate
                # the same distribution
                counter = {}
                for donor in donors:
                    for gamma, count in counts[child[(donor, label)]].items():
                        counter[gamma] = counter.get(gamma, 0) + count
                total = sum(counter.values())
                next_cls = assign[table.resolve_to_member(child[(u, label)])]
                cls_edges[label] = [(counter[g] / total, (float(g), next_cls)) for g in sorted(counter)]
        for label, outs in cls_edges.items():
            edges[(state, label)] = outs
            for _, nxt in outs or ():
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
                    queue.append(nxt)

    names = ["q%d" % i for i in range(len(order))]
    index = {state: i for i, state in enumerate(order)}

    # the failure state only exists when some (state, label) pair actually
    # routes to it; a fully covered table yields a machine without it
    all_labels = table.ap.labels()
    needs_bottom = any(
        (state, label) not in edges or edges[(state, label)] is None
        for state in order
        for label in all_labels
    )
    n = len(order) + (1 if needs_bottom else 0)
    bottom = len(order) if needs_bottom else None
    if needs_bottom:
        names.append("bot")

    tau, rho = {}, {}
    for (state, label), outs in edges.items():
        if outs is None:
            continue  # implicit failure routing; keeps exports free of ⊥ edges
        y = index[state]
        vec = np.zeros(n)
        for prob, nxt in outs:
            vec[index[nxt]] += prob
            rho[(y, label, index[nxt])] = nxt[0]  # the edge pays the reward of the state it enters
        tau[(y, label)] = vec

    return Prm(
        table.ap,
        sorted({0.0} | table.rewards),
        names,
        index[start],
        tau,
        rho,
        bottom=bottom,
        implicit_bottom=needs_bottom,
    )


def repair_step(table: ObservationTable) -> bool:
    """One repair without new samples, consistency first: add the column
    of an inconsistency to E, or else an unclosed witness row to S.  False
    when the table is closed and consistent."""
    consistent, witness = table.is_consistent()
    if not consistent:
        _, _, label, e = witness
        table.add_experiment((label,) + e)
        return True
    closed, witness = table.is_closed()
    if not closed:
        s, label = witness
        table.add_state(s + (label,))
    return not closed


def repair_on_frozen_data(table: ObservationTable) -> None:
    """Repair without new samples until the table is closed and consistent."""
    for _ in range(REPAIR_MAX_STEPS):
        if not repair_step(table):
            return
    raise RuntimeError("table repair did not terminate within %d steps" % (REPAIR_MAX_STEPS,))
