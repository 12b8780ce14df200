"""Probabilistic reward machines and their matrix semantics.

A machine maps (state, label) pairs to a distribution over successor
states, and each edge (y, label, y') it can take to the reward it emits
on that transition.  Learned hypotheses pay the reward of the
(reward, row) state an edge enters, so the edges of one pair may pay
different rewards.

Partial machines leave some (state, label) pairs undefined; matrix
operations give those all-zero rows.  Machines with ``implicit_bottom``
route every undefined pair to an absorbing failure state with reward 0,
which keeps approximate hypotheses total without materializing 2^AP.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .alphabet import (
    Alphabet,
    Label,
    Word,
    format_reward,
    label_sort_key,
    label_str,
    parse_label,
    parse_reward,
)

PROB_TOL = 1e-9


def last_rise(cum) -> int:
    """The index a draw past the end of the cumulative row `cum` takes:
    the last one whose cumulative probability rises, so that a row summing
    to just under 1 never gives a trailing index of probability 0; the
    last index of an all-zero row."""
    k = len(cum) - 1
    while k > 0 and cum[k] <= cum[k - 1]:
        k -= 1
    return k if cum[k] > 0 else len(cum) - 1


def sample_index(vec: np.ndarray, rng) -> int:
    """Draw an index from a probability vector; deterministic rows skip
    the rng entirely (much faster than rng.choice on small vectors)."""
    j = int(np.argmax(vec))
    if vec[j] >= 1.0:
        return j
    cum = np.cumsum(vec)
    k = int(np.searchsorted(cum, rng.random(), side="right"))
    return k if k < len(vec) else last_rise(cum)


def sampling_row(vec: np.ndarray):
    """What `sample_index` draws from, compiled once: the index of a
    deterministic row (argmax at least 1.0, no draw), else the cumulative
    row as a list of floats, which `draw_row` searches."""
    j = int(np.argmax(vec))
    if vec[j] >= 1.0:
        return j
    return np.cumsum(vec).tolist()


def draw_row(row, rng) -> int:
    """`sample_index` on a compiled row: the same index and the same draws
    (bisect_right on the cumulative list is searchsorted side="right")."""
    if row.__class__ is int:
        return row
    k = bisect_right(row, rng.random())
    return k if k < len(row) else last_rise(row)


STREAM_BLOCK = 1024   # the most raw 64-bit outputs a Stream takes from its bit generator at a time


class Stream:
    """`random()` and `integers(low, high)` of a `numpy.random.Generator`
    on the same PCG64 bit generator: the same values in the same order,
    without numpy's per-call overhead.  The raw outputs are drawn in
    blocks, so the bit generator must not be read by anything else.

    `random()` is numpy's double, (x >> 11) * 2**-53.  `integers` is its
    scalar path for 1 to 2**32 values: Lemire's rejection loop on 32-bit
    draws, each the low half of a raw output or the high half kept from
    the one before (or kept in the bit generator's state); one value
    draws nothing.  Blocks start at 32 outputs and double up to
    STREAM_BLOCK, so a short run of draws wastes few."""

    def __init__(self, bit_generator):
        self._bits = bit_generator
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._buf = []   # the raw outputs still to use, last one first
        self._block = 32

    def restart(self, state: int, inc: int) -> None:
        """Draw from here on as a Stream on a PCG64 set to (state, inc)."""
        self._bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
        self._half, self._buf, self._block = None, [], 32

    def _refill(self) -> list:
        block = self._block
        self._block = min(2 * block, STREAM_BLOCK)
        buf = self._buf = self._bits.random_raw(block).tolist()
        buf.reverse()
        return buf

    def random(self) -> float:
        buf = self._buf or self._refill()
        return (buf.pop() >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int) -> int:
        top = high - low - 1   # numpy draws from the closed range [0, top]
        if not 0 <= top <= 0xFFFFFFFF:
            raise ValueError("a Stream draws from 1 to 2**32 values, not %d" % (top + 1))
        if top == 0:
            return low
        span = top + 1
        while True:   # a 32-bit draw: the half kept, else the low half of a raw output
            half = self._half
            if half is None:
                x = (self._buf or self._refill()).pop()
                self._half, half = x >> 32, x & 0xFFFFFFFF
            else:
                self._half = None
            m = half * span
            # Lemire's test: a low word of at least span is above the threshold
            if m & 0xFFFFFFFF >= span or m & 0xFFFFFFFF >= (0xFFFFFFFF - top) % span:
                return low + (m >> 32)


_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix from hash constant `const`, on ints and uint32 arrays."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    r = ((0xCA01F9DD * x & _MASK32) - (0x4973F715 * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def spawn_states(seed, n: int) -> list:
    """The (state, inc) that `PCG64(child)` starts from, for each child of
    `SeedSequence(seed).spawn(n)`, all at once: the entropy is the seed's
    32-bit words, zero-padded to the pool size 4, then the child's index,
    which is mixed in as a uint32 array over the children (the hash
    constants do not depend on the data)."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed %d is negative: SeedSequence takes a non-negative integer" % seed)
    words = [seed >> 32 * k & _MASK32 for k in range((seed.bit_length() + 31) // 32 or 1)]
    entropy = words + [0] * (4 - len(words)) + [np.arange(n, dtype=np.uint32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in entropy[:4]]
    for src, dst in ((src, dst) for src in range(4) for dst in range(4) if src != dst):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    generate = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [generate(pool[i % 4]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = ((out[k] | out[k + 1] << 32).tolist() for k in range(0, 8, 2))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # from state 0: one step, add the seed, one more step
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


class UndefinedTransitionError(KeyError):
    def __init__(self, state: str, label: Label):
        super().__init__("undefined transition at state %r on label %s" % (state, label_str(label)))
        self.state = state
        self.label = label


class UnreachableWordError(ValueError):
    pass


class _UndefinedRewards(dict):
    """The emits of an undefined pair: no edges, and reading the pair of
    any successor raises UndefinedTransitionError."""

    def __init__(self, state: str, label: Label):
        super().__init__()
        self.state, self.label = state, label

    def __missing__(self, y_next):
        raise UndefinedTransitionError(self.state, self.label)


class Prm:
    """A probabilistic reward machine.

    tau maps (state index, label) to a probability vector over states;
    rho maps each edge (state index, label, successor index) with
    positive probability to the reward emitted on it.  ``bottom`` marks
    the failure state of hypothesis machines; with ``implicit_bottom``
    undefined pairs go there and emit 0.
    """

    def __init__(
        self,
        ap: Alphabet,
        gamma,
        states,
        init: int,
        tau: dict,
        rho: dict,
        *,
        bottom: int | None = None,
        implicit_bottom: bool = False,
    ):
        self.ap = ap
        self.states = tuple(states)
        self.init = int(init)
        self.rho = {edge: float(r) for edge, r in rho.items()}
        self.bottom = bottom
        self.implicit_bottom = implicit_bottom
        # label -> its _view and tuple of labels -> advance_labels' stack, built on first use:
        # membership queries build a machine per word and read few of its labels.  A machine
        # is not changed after construction.
        self._views = {}

        n = len(self.states)
        if "" in self.states:
            raise ValueError("a state name is empty")
        if len(set(self.states)) < n:
            raise ValueError("a state name is repeated in %r" % (self.states,))
        for name in self.states:
            # what the machine file cannot write back: a line break, outer
            # whitespace, a comment mark, or the edge line's -- and :
            if (name.splitlines() != [name] or name != name.strip() or name.startswith("#")
                    or "--" in name or ":" in name):
                raise ValueError("state name %r cannot be written to a machine file" % (name,))
        if not 0 <= self.init < n:
            raise ValueError("initial state index out of range")
        if implicit_bottom and bottom is None:
            raise ValueError("implicit_bottom requires a bottom state")
        if bottom is not None and not 0 <= bottom < n:
            raise ValueError("bottom state index out of range")

        # the rows are checked at once, stacked; the loop below runs only on
        # a bad row, to raise the error of the first in tau's order
        self.tau = {key: np.asarray(vec, dtype=float) for key, vec in tau.items()}
        keys, rows = list(self.tau), list(self.tau.values())
        mat = np.array(rows).reshape(len(rows), n) if all(vec.shape == (n,) for vec in rows) else None
        try:
            for label in {label for _, label in keys}:
                ap.validate_label(label)
        except ValueError:
            mat = None
        if (mat is None or not np.isfinite(mat).all() or (mat < 0).any()
                or (abs(mat.sum(axis=1) - 1.0) > PROB_TOL).any()):
            for (y, label), vec in self.tau.items():
                ap.validate_label(label)
                if vec.shape != (n,):
                    raise ValueError("transition vector has wrong length at (%r, %s)" % (y, label_str(label)))
                if not np.all(np.isfinite(vec)):
                    raise ValueError("non-finite transition probability at (%r, %s)" % (y, label_str(label)))
                if np.any(vec < 0):
                    raise ValueError("negative transition probability at (%r, %s)" % (y, label_str(label)))
                if abs(vec.sum() - 1.0) > PROB_TOL:
                    raise ValueError(
                        "transition probabilities at (%s, %s) sum to %r"
                        % (self.states[y], label_str(label), float(vec.sum()))
                    )
        ks, js = mat.nonzero()
        edges = {keys[k] + (j,) for k, j in zip(ks.tolist(), js.tolist())}
        if edges != set(self.rho):
            raise ValueError("rho must give a reward to exactly the edges of positive probability")

        gamma = {float(g) for g in gamma}
        gamma.add(0.0)  # required by hypothesis initial states
        gamma.update(self.rho.values())
        if not all(np.isfinite(g) for g in gamma):
            raise ValueError("non-finite reward in %r" % (sorted(gamma),))
        self.gamma = tuple(sorted(gamma))

    # -- structure ---------------------------------------------------------

    def n_states(self) -> int:
        return len(self.states)

    def defined(self, y: int, label: Label) -> bool:
        return (y, label) in self.tau or self.implicit_bottom

    def is_total(self) -> bool:
        if self.implicit_bottom:
            return True
        labels = self.ap.labels()
        return all((y, l) in self.tau for y in range(len(self.states)) for l in labels)

    def successor_vector(self, y: int, label: Label) -> np.ndarray:
        """Transition row; zeros if undefined, e_bottom with implicit_bottom."""
        vec = self.tau.get((y, label))
        if vec is not None:
            return vec
        out = np.zeros(len(self.states))
        if self.implicit_bottom:
            out[self.bottom] = 1.0
        return out

    def compiled_step(self, y: int, label: Label) -> tuple:
        """(row, emits) of the pair, compiled afresh on every call: callers
        keep the result.  `draw_row(row, rng)` draws the successor as
        `sample_index(self.successor_vector(y, label), rng)` does, and
        `emits[y_next]` is that edge's one (label, reward) tuple.  An
        undefined pair without implicit_bottom has an all-zero row, which
        draws the last state, and emits that raise UndefinedTransitionError
        when read."""
        vec = self.successor_vector(y, label)
        if self.defined(y, label):   # an implicit-bottom pair's one edge pays 0
            emits = {j: (label, self.rho.get((y, label, j), 0.0)) for j in vec.nonzero()[0].tolist()}
        else:
            emits = _UndefinedRewards(self.states[y], label)
        return sampling_row(vec), emits

    def edge_reward(self, y: int, label: Label, y_next: int) -> float:
        reward = self.rho.get((y, label, y_next))
        if reward is not None:
            return reward
        if self.implicit_bottom and (y, label) not in self.tau:
            return 0.0
        raise UndefinedTransitionError(self.states[y], label)

    # -- matrix semantics --------------------------------------------------

    def _view(self, label: Label) -> tuple:
        """(stack, slots) of the label, built once and read-only: stack is one
        array of shape (1 + |gamma|, n, n) whose slot 0 is H(label) and slot
        1 + k is H(gamma[k], label), and slots are its slices in that order,
        taken once the stack is frozen (a slice taken before stays writeable)."""
        view = self._views.get(label)
        if view is not None:
            return view
        self.ap.validate_label(label)
        n = len(self.states)
        stack = np.zeros((1 + len(self.gamma), n, n))
        stack[0] = [self.successor_vector(y, label) for y in range(n)]
        # H(gamma, label)[y, y'] = tau(y, label, y')·[sigma(y, label, y') = gamma]; an
        # implicit-bottom row's one edge pays 0
        ys, js = stack[0].nonzero()
        for y, j in zip(ys.tolist(), js.tolist()):
            stack[1 + self.gamma.index(self.rho.get((y, label, j), 0.0)), y, j] = stack[0, y, j]
        stack.flags.writeable = False
        view = self._views[label] = (stack, tuple(stack))
        return view

    def label_matrix(self, label: Label) -> np.ndarray:
        """H(label): slot 0 of the label's read-only stack."""
        return self._view(label)[1][0]

    def reward_conditional_matrix(self, gamma: float, label: Label) -> np.ndarray:
        """H(gamma, label): slot 1 + k of the label's read-only stack, where gamma is self.gamma[k]."""
        gamma = float(gamma)
        if gamma not in self.gamma:
            raise ValueError("reward %r is not in gamma %r" % (gamma, self.gamma))
        return self._view(label)[1][1 + self.gamma.index(gamma)]

    def advance(self, vec: np.ndarray, label: Label) -> tuple:
        """Read `label` from the state distribution `vec`: returns vec·H(label)
        and the normalized distribution of the reward emitted, which is
        empty when `vec` has no mass that can read the label.  One product,
        vec @ stack, gives vec·H(label) and each vec·H(gamma, label) as rows,
        and one row reduction the denominator and each reward's mass."""
        out = vec @ self._view(label)[0]
        return out[0], self._distribution(out.sum(axis=1).tolist(), 0)

    def advance_labels(self, vec: np.ndarray, labels) -> tuple:
        """Read each of `labels` from `vec` with one product, vec @ one
        read-only array of the labels' `_view` stacks in order, built once
        per tuple of labels.  Returns the product and its row sums as a list:
        label i's rows start at i·(1 + |gamma|), vec·H(label) and then each
        vec·H(gamma, label) in `gamma` order, each bit for bit as `advance`
        computes it."""
        labels = tuple(labels)
        stack = self._views.get(labels)
        if stack is None:
            stack = np.concatenate([self._view(label)[0] for label in labels] or [np.zeros((0,) + vec.shape * 2)])
            stack.flags.writeable = False
            self._views[labels] = stack
        out = vec @ stack
        return out, out.sum(axis=1).tolist()

    def _distribution(self, sums: list, k: int) -> dict:
        """The reward distribution from the row sums of vec @ a label's stack:
        sums[k] is the denominator, and each reward's mass follows it."""
        denom, masses = sums[k], sums[k + 1:k + 1 + len(self.gamma)]
        if not denom > 0.0:
            return {}
        return {gamma: mass / denom for gamma, mass in zip(self.gamma, masses) if mass > 0.0}

    def reward_matrix(self, gamma: float) -> np.ndarray:
        n = len(self.states)
        out = np.zeros((n, n))
        for label in self.ap.labels():
            out += self.reward_conditional_matrix(gamma, label)
        return out

    def word_matrix(self, word: Word) -> np.ndarray:
        out = np.eye(len(self.states))
        for label in word:
            out = out @ self.label_matrix(label)
        return out

    def initial_vector(self) -> np.ndarray:
        return unit_vector(len(self.states), self.init)

    def _read(self, word: Word) -> np.ndarray:
        """The state distribution after `word`, by the vector chain
        y_I·H(l_1)·...·H(l_k): the successor vectors `advance` gives, in
        O(k·n²) where `word_matrix` multiplies n×n matrices."""
        vec = self.initial_vector()
        for label in word:
            vec = vec @ self._view(label)[1][0]
        return vec

    def reward_sequence_probability(self, rewards) -> float:
        """y_I H(r_1)...H(r_n) 1.  Not normalized over reward sequences."""
        vec = self.initial_vector()
        for gamma in rewards:
            vec = vec @ self.reward_matrix(gamma)
        return float(vec.sum())

    def next_reward_distribution(self, prefix: Word, label: Label) -> dict:
        """Normalized distribution of the reward emitted on reading `label`
        after driving the machine with `prefix`."""
        _, dist = self.advance(self._read(prefix), label)
        if not dist:
            raise UnreachableWordError(
                "unreachable word: %s then %s" % ("".join("<%s>" % label_str(l) for l in prefix), label_str(label))
            )
        return dist


# -- builtin machines -------------------------------------------------------


def unit_vector(n: int, i: int) -> np.ndarray:
    vec = np.zeros(n)
    vec[i] = 1.0
    return vec


def coffee_prm() -> Prm:
    """Ground truth for the probabilistic office task: picking up coffee
    has a 10% chance of producing weak coffee that is rejected (reward 0)
    at delivery; stepping on a decoration fails the task."""
    return _bundled_prm("coffee_truth.prm")


def patrol_prm() -> Prm:
    """Deterministic two-state machine: reward 1 for alternating between
    the marked cell and an unmarked one, 0 for staying put."""
    return _bundled_prm("patrol_truth.prm")


def _bundled_prm(name: str) -> Prm:
    from pathlib import Path

    return load_prm(Path(__file__).parent / "assets" / name)


# -- text format --------------------------------------------------------------
#
# ap: a,b,c
# gamma: 0,1
# init: y0
# [bottom: name]            (only for hypothesis machines)
# [implicit_bottom: true]
# [state: name]             (a state that no other line names)
# y0 --c/0--> y1 : 0.9      (on {c}, y0 emits 0 and moves to y1 with probability 0.9)


def _edge_order(edge) -> tuple:
    y, label, j = edge
    return y, label_sort_key(label), j


def prm_to_text(prm: Prm) -> str:
    lines = []
    lines.append("ap: %s" % ",".join(prm.ap.props))
    lines.append("gamma: %s" % ",".join(format_reward(g) for g in prm.gamma))
    lines.append("init: %s" % prm.states[prm.init])
    if prm.bottom is not None:
        lines.append("bottom: %s" % prm.states[prm.bottom])
    if prm.implicit_bottom:
        lines.append("implicit_bottom: true")
    named = {prm.init, prm.bottom}.union(*((y, j) for y, _, j in prm.rho))
    lines.extend("state: %s" % name for y, name in enumerate(prm.states) if y not in named)
    for y, label, j in sorted(prm.rho, key=_edge_order):
        lines.append(
            "%s --%s/%s--> %s : %s"
            % (prm.states[y], label_str(label), format_reward(prm.rho[(y, label, j)]), prm.states[j],
               repr(float(prm.tau[(y, label)][j])))
        )
    return "\n".join(lines) + "\n"


def _read_field(parse, field, line: str):
    """parse(field), whose ValueError is raised again quoting the line read."""
    try:
        return parse(field)
    except ValueError as err:
        raise ValueError("%s in line: %s" % (err, line)) from None


def prm_from_text(text: str) -> Prm:
    """Read the text format above; a line it cannot read raises a
    ValueError that quotes the line."""
    ap = None
    gamma = []
    init_name = None
    bottom_name = None
    implicit_bottom = False
    state_lines = []
    edges = {}  # (src, label, dst) -> (reward, prob), one line each
    headers = set()  # each header line may appear once
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key = line.split(":", 1)[0]
        if key in ("ap", "gamma", "init", "bottom", "implicit_bottom"):
            if key in headers:
                raise ValueError("repeated header line: %s" % line)
            headers.add(key)
        if line.startswith("ap:"):
            ap = _read_field(Alphabet, [p.strip() for p in line[3:].split(",") if p.strip()], line)
        elif line.startswith("gamma:"):
            gamma = [_read_field(parse_reward, p, line) for p in line[6:].split(",") if p.strip()]
        elif line.startswith("init:"):
            init_name = line[5:].strip()
        elif line.startswith("bottom:"):
            bottom_name = line[7:].strip()
        elif line.startswith("implicit_bottom:"):
            value = line.split(":", 1)[1].strip().lower()
            if value not in ("true", "false"):
                raise ValueError("implicit_bottom must be true or false: %s" % line)
            implicit_bottom = value == "true"
        elif line.startswith("state:"):
            state_lines.append(line[6:].strip())
        else:
            try:
                head, prob = line.rsplit(":", 1)
                src, rest = head.split("--", 1)
                middle, dst = rest.rsplit("-->", 1)
                label_part, reward_part = middle.rsplit("/", 1)
                src, dst, prob = src.strip(), dst.strip(), float(prob)
                if not src or not dst:
                    raise ValueError
            except ValueError:
                raise ValueError("malformed machine line: %s" % line) from None
            label = _read_field(parse_label, label_part, line)
            if ap is not None:
                _read_field(ap.validate_label, label, line)
            edge = (src, label, dst)
            if edge in edges:   # a second line would add to the first's probability
                raise ValueError("repeated edge line: %s" % line)
            edges[edge] = (_read_field(parse_reward, reward_part, line), prob)
    if ap is None or init_name is None:
        raise ValueError("machine text is missing its ap or init header")

    names = []
    named = [e[0] for e in edges] + [e[2] for e in edges]
    for name in named + state_lines + [init_name, bottom_name]:
        if name is not None and name not in names:
            names.append(name)
    index = {name: i for i, name in enumerate(names)}

    tau, rho = {}, {}
    for (src, label, dst), (reward, prob) in edges.items():
        y, j = index[src], index[dst]
        if (y, label) not in tau:
            tau[(y, label)] = np.zeros(len(names))
        tau[(y, label)][j] = prob
        if prob:   # a line of probability 0 is no edge and pays nothing
            rho[(y, label, j)] = reward

    return Prm(
        ap,
        gamma,
        names,
        index[init_name],
        tau,
        rho,
        bottom=None if bottom_name is None else index[bottom_name],
        implicit_bottom=implicit_bottom,
    )


def save_prm(prm: Prm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prm_to_text(prm))


def load_prm(path) -> Prm:
    with open(path, "r", encoding="utf-8") as fh:
        return prm_from_text(fh.read())


def _dot_string(text: str) -> str:
    """`text` as a DOT quoted string, its backslashes and double quotes escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def prm_to_dot(prm: Prm) -> str:
    lines = ["digraph prm {", "  rankdir=LR;", '  __init [shape=point, label=""];']
    names = [_dot_string(name) for name in prm.states]
    for i, name in enumerate(names):
        shape = "doublecircle" if i == prm.bottom else "circle"
        lines.append("  %s [shape=%s];" % (name, shape))
    lines.append("  __init -> %s;" % names[prm.init])
    for y, label, j in sorted(prm.rho, key=_edge_order):
        text = "⟨%s, %s⟩ : %s" % (label_str(label), format_reward(prm.rho[(y, label, j)]),
                                  repr(float(prm.tau[(y, label)][j])))
        lines.append("  %s -> %s [label=%s];" % (names[y], names[j], _dot_string(text)))
    lines.append("}")
    return "\n".join(lines) + "\n"
