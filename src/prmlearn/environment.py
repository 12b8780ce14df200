"""Non-Markovian decision processes and the office gridworld.

The environment hides its reward source: rewards depend on the full
label history, through a ground-truth reward machine (the truth) that
`step` advances on each transition label.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .alphabet import (
    Alphabet,
    EMPTY_LABEL,
    Label,
    Word,
    format_reward,
    label_sort_key,
    label_str,
    parse_label,
    parse_reward,
)
from .machine import PROB_TOL, Prm, Stream, draw_row, last_rise, load_prm, sampling_row, spawn_states, unit_vector
# sample_index is unused here; the benchmark tracer wraps it as environment.sample_index
from .machine import sample_index  # noqa: F401

ACTIONS = ("N", "S", "E", "W")
MOVES = {"N": (-1, 0), "S": (1, 0), "E": (0, 1), "W": (0, -1)}
CELL_CHARS = ".#co*A"


def is_distribution(vec: np.ndarray) -> bool:
    """Finite, non-negative and summing to 1 within PROB_TOL."""
    return bool(np.all(np.isfinite(vec)) and np.all(vec >= 0) and abs(vec.sum() - 1.0) <= PROB_TOL)


# -- the decision process ------------------------------------------------------


@dataclass
class Nmdp:
    states: tuple           # display names
    x_init: int
    actions: tuple          # display names
    available: list         # state index -> list of action indices
    p: dict                 # (state, action) -> probability vector over states
    labeling: dict          # (state, action, state) -> Label
    truth: Prm              # the hidden reward machine; total
    # the labels that end an episode: a rollout stops right after one
    terminal_labels: frozenset = frozenset()
    # Built by __post_init__, so a dataclasses.replace copy has its own, and
    # only read by step: _labels is label_alphabet(), whose places number
    # the labels, and _terminal flags the numbers that end an episode;
    # _truth_steps[z][i] is the truth's compiled step from z on label i, and
    # _moves[x] is {action: (sampling_row of the successor vector, the label
    # index of a deterministic row, else {successor: label index})}.
    _labels: list = field(default=None, init=False, repr=False, compare=False)
    _terminal: list = field(default=None, init=False, repr=False, compare=False)
    _truth_steps: list = field(default=None, init=False, repr=False, compare=False)
    _moves: list = field(default=None, init=False, repr=False, compare=False)
    # the label automaton: a set of states a word can reach -> {label: the
    # set it reaches next}, filled by word_realizable on first use
    _edges: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.truth.is_total():
            raise ValueError("the truth of an environment must be a total machine")
        if not 0 <= self.x_init < len(self.states):
            raise ValueError("initial state index out of range")
        if len(self.available) != len(self.states):
            raise ValueError("available must list the actions of all %d states" % len(self.states))
        if not all(isinstance(label, frozenset) for label in self.terminal_labels):   # "c" would read as {c}
            raise ValueError("terminal labels must be frozensets of propositions: %r" % (self.terminal_labels,))
        self.terminal_labels = frozenset(map(self.ap.validate_label, self.terminal_labels))
        for x, acts in enumerate(self.available):
            if not acts:
                raise ValueError("state %r has no available actions" % (self.states[x],))
            if any(not 0 <= a < len(self.actions) for a in acts):
                raise ValueError("state %r lists an action index outside the actions" % (self.states[x],))
            if len(set(acts)) < len(acts):
                raise ValueError("state %r lists an action twice" % (self.states[x],))
            if any((x, a) not in self.p for a in acts):
                raise ValueError("state %r has an available action without a transition row" % (self.states[x],))
        labels = set()   # the labels of positive-probability transitions, checked as they are met
        for (x, a), vec in self.p.items():
            vec = np.asarray(vec, dtype=float)
            if vec.shape != (len(self.states),):
                raise ValueError("transition row at (%d, %d) has shape %s, not (%d,)"
                                 % (x, a, vec.shape, len(self.states)))
            if not is_distribution(vec):
                raise ValueError("bad transition distribution at (%d, %d)" % (x, a))
            self.p[(x, a)] = vec
            for j in np.flatnonzero(vec):
                label = self.labeling.get((x, a, int(j)))
                if label is None:
                    raise ValueError("missing label for transition (%d, %d, %d)" % (x, a, int(j)))
                if not isinstance(label, frozenset):   # "c" would read as {c}
                    raise ValueError("transition (%d, %d, %d) has label %r, not a frozenset of propositions"
                                     % (x, a, int(j), label))
                labels.add(self.ap.validate_label(label))
        self._labels = sorted(labels, key=label_sort_key)
        index = {label: i for i, label in enumerate(self._labels)}
        self._terminal = [label in self.terminal_labels for label in self._labels]
        self._truth_steps = [[self.truth.compiled_step(z, label) for label in self._labels]
                             for z in range(self.truth.n_states())]
        self._moves = [{} for _ in self.states]
        for x, moves in enumerate(self._moves):
            for a in self.available[x]:
                row = sampling_row(self.p[(x, a)])
                label_of = {j: index[self.labeling[(x, a, j)]] for j in np.flatnonzero(self.p[(x, a)]).tolist()}
                moves[a] = (row, label_of[row] if row.__class__ is int else label_of)

    @property
    def ap(self) -> Alphabet:
        """The truth's propositions, which every transition label uses."""
        return self.truth.ap

    def label_alphabet(self) -> list:
        """Labels of positive-probability transitions, in canonical order: `step`'s label index reads this list."""
        return list(self._labels)


@dataclass
class Trajectory:
    states: list            # x_0 ... x_n (indices)
    actions: list           # a_1 ... a_n (indices)
    labels: list            # l_1 ... l_n


class UnavailableActionError(ValueError):
    pass


# -- policies -----------------------------------------------------------------


class PositionalPolicy:
    """Map from state to a distribution over actions.  Missing states fall
    back to the first available action (they are never visited by the
    rollouts the policy was built for).  A policy is not changed after
    construction."""

    def __init__(self, action_probs: dict):
        self.action_probs = dict(action_probs)
        for x, dist in self.action_probs.items():
            if not is_distribution(np.array(list(dist.values()), dtype=float)):
                raise ValueError("the action probabilities at state %r are not a distribution" % (x,))
        # state -> (its actions sorted, sampling_row of their probabilities),
        # filled by action_row on first use
        self._rows = {}

    def action_row(self, x: int, m: Nmdp) -> tuple:
        """(actions, row): `actions[draw_row(row, rng)]` draws x's action as `sample_index`
        on the sorted actions' probabilities would; a missing x gives its first available
        action, with no draw, and an action not in m.available[x] raises UnavailableActionError."""
        compiled = self._rows.get(x)
        if compiled is None:
            dist = self.action_probs.get(x)
            if dist is None:
                return (int(m.available[x][0]),), 0
            actions = tuple(int(a) for a in sorted(dist))
            for a in actions:
                if a not in m.available[x]:
                    raise UnavailableActionError("action %r unavailable at state %r" % (a, m.states[x]))
            compiled = self._rows[x] = (actions, sampling_row(np.array([dist[a] for a in actions])))
        return compiled


def uniform_policy(m: Nmdp) -> PositionalPolicy:
    probs = {}
    for x in range(len(m.states)):
        acts = m.available[x]
        probs[x] = {a: 1.0 / len(acts) for a in acts}
    return PositionalPolicy(probs)


# -- stepping and episodes -----------------------------------------------------


def step(m: Nmdp, x: int, y: int, a: int, rng):
    """One step of the environment and its truth from (x, y): returns
    (x_next, y_next, pair, index), where pair is the (label, reward) tuple
    of the truth's edge and index is the label's in `m.label_alphabet()`.
    The environment's successor is drawn as `sample_index(m.p[(x, a)], rng)`
    would, from its compiled row, then the truth's from its compiled step."""
    move = m._moves[x].get(a)
    if move is None:
        raise UnavailableActionError("action %r unavailable at state %r" % (a, m.states[x]))
    row, i = move
    if row.__class__ is int:
        x_next = row
    else:
        x_next = draw_row(row, rng)
        i = i[x_next]
    row, emits = m._truth_steps[y][i]
    y_next = row if row.__class__ is int else draw_row(row, rng)
    return x_next, y_next, emits[y_next], i


def run_episode(m: Nmdp, policy, rng, n_episode: int):
    """Roll out one episode, up to n_episode steps or a terminal label, told
    by its index; returns the trace as [(label, reward), ...], the truth's pairs."""
    terminal = m._terminal
    compiled = policy._rows
    x, y = m.x_init, m.truth.init
    trace = []
    for _ in range(n_episode):
        actions, row = compiled.get(x) or policy.action_row(x, m)
        if row.__class__ is not int:   # row = draw_row(row, rng), inline
            k = bisect_right(row, rng.random())
            row = k if k < len(row) else last_rise(row)
        a = actions[row]
        x, y, pair, i = step(m, x, y, a, rng)
        trace.append(pair)
        if terminal[i]:
            break
    return trace


# -- grid map -------------------------------------------------------------------


@dataclass
class GridMap:
    width: int
    height: int
    cells: list              # rows of single characters
    start: tuple = field(default=None)

    def props_at(self, row: int, col: int) -> Label:
        ch = self.cells[row][col]
        if ch in ("c", "o", "*"):
            return frozenset({ch})
        return EMPTY_LABEL

    def is_wall(self, row: int, col: int) -> bool:
        return self.cells[row][col] == "#"

    def open_cells(self) -> list:
        """The (row, col) of every cell that is not a wall, row by row; state
        i of the office environment is the i-th of them."""
        return [(r, c) for r in range(self.height) for c in range(self.width)
                if not self.is_wall(r, c)]


class MapParseError(ValueError):
    pass


def parse_gridmap(text: str) -> GridMap:
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise MapParseError("empty map")
    width = len(rows[0])
    start = None
    cells = []
    for r, line in enumerate(rows):
        if len(line) != width:
            raise MapParseError("row %d has length %d, expected %d" % (r, len(line), width))
        row_cells = []
        for c, ch in enumerate(line):
            if ch not in CELL_CHARS:
                raise MapParseError("bad character %r at row %d column %d" % (ch, r, c))
            if ch == "A":
                if start is not None:
                    raise MapParseError("multiple start cells (row %d column %d)" % (r, c))
                start = (r, c)
            row_cells.append(ch)
        cells.append(row_cells)
    if start is None:
        raise MapParseError("no start cell 'A' in map")
    return GridMap(width=width, height=len(rows), cells=cells, start=start)


def load_gridmap(path) -> GridMap:
    return parse_gridmap(Path(path).read_text(encoding="utf-8"))


def build_office_nmdp(gridmap: GridMap, truth: Prm, terminal_labels=()) -> Nmdp:
    """Deterministic gridworld: moves blocked by walls and borders are
    self-loops; a transition is labeled with the propositions of its
    destination cell; rewards come from the hidden ground-truth machine,
    and an episode ends on a label in `terminal_labels`."""
    cells = gridmap.open_cells()
    index = {cell: i for i, cell in enumerate(cells)}
    names = tuple("(%d,%d)" % cell for cell in cells)
    n = len(cells)
    p, labeling = {}, {}
    available = [list(range(len(ACTIONS))) for _ in cells]
    for (r, c), x in index.items():
        for a, action in enumerate(ACTIONS):
            dr, dc = MOVES[action]
            nr, nc = r + dr, c + dc
            if not (0 <= nr < gridmap.height and 0 <= nc < gridmap.width) or gridmap.is_wall(nr, nc):
                nr, nc = r, c
            x_next = index[(nr, nc)]
            p[(x, a)] = unit_vector(n, x_next)
            labeling[(x, a, x_next)] = gridmap.props_at(nr, nc)
    return Nmdp(
        states=names,
        x_init=index[gridmap.start],
        actions=ACTIONS,
        available=available,
        p=p,
        labeling=labeling,
        truth=truth,
        terminal_labels=terminal_labels,
    )


def shortest_path_policy(gridmap: GridMap, m: Nmdp) -> PositionalPolicy:
    """Positional policy on `m = build_office_nmdp(gridmap, ...)` following
    the shortest start -> coffee -> office path, avoiding decorations.
    Fails if the two legs conflict on a cell."""
    cells = gridmap.open_cells()
    if len(cells) != len(m.states):
        raise ValueError("the environment is not the office of this map")
    index = {cell: i for i, cell in enumerate(cells)}
    first = {}  # cell character -> its first cell
    for r, c in cells:
        first.setdefault(gridmap.cells[r][c], (r, c))
    if "c" not in first or "o" not in first:
        raise ValueError("map has no coffee or office cell")

    def bfs(src, dst):
        from collections import deque

        prev = {src: None}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            if cur == dst:
                break
            for action in ACTIONS:
                dr, dc = MOVES[action]
                nxt = (cur[0] + dr, cur[1] + dc)
                if nxt in index and nxt not in prev and gridmap.props_at(*nxt) != frozenset({"*"}):
                    prev[nxt] = (cur, action)
                    queue.append(nxt)
        if dst not in prev:
            raise ValueError("no decoration-free path from %r to %r" % (src, dst))
        steps = []
        cur = dst
        while prev[cur] is not None:
            before, action = prev[cur]
            steps.append((before, action))
            cur = before
        return list(reversed(steps))

    legs = bfs(gridmap.start, first["c"]) + bfs(first["c"], first["o"])
    probs = {}
    for cell, action in legs:
        x = index[cell]
        a = ACTIONS.index(action)
        if x in probs and probs[x] != {a: 1.0}:
            raise ValueError("shortest path revisits cell %r with a different move" % (cell,))
        probs[x] = {a: 1.0}
    return PositionalPolicy(probs)


def word_realizable(m: Nmdp, w: Word) -> bool:
    """Whether w can be a trace prefix: some trajectory's label word is w,
    and no label before w's last ends the episode.  Walks m's label
    automaton, whose states are the sets of environment states that a word
    can reach; a terminal label leads to the empty set, which reads nothing."""
    reach, edges = frozenset((m.x_init,)), m._edges
    for label in w:
        reach = (edges.get(reach) or _compile_edges(m, reach)).get(label)
        if reach is None:
            return False
    return True


def _compile_edges(m: Nmdp, reach: frozenset) -> dict:
    """Fill and return `m._edges[reach]`: {label: the states that an
    available action from a state in `reach` enters with that label at
    positive probability, or the empty set for a terminal label}."""
    succ = {}
    for x in reach:
        for a in m.available[x]:
            for x_next in np.flatnonzero(m.p[(x, a)]).tolist():
                succ.setdefault(m.labeling[(x, a, x_next)], set()).add(x_next)
    edges = m._edges[reach] = {label: frozenset() if label in m.terminal_labels else frozenset(xs)
                               for label, xs in succ.items()}
    return edges


# -- membership reward machines --------------------------------------------------


def membership_reward_machine(ap: Alphabet, zeta: Word) -> Prm:
    """Deterministic machine paying 1 per matched symbol of the query word;
    the final state is absorbing with reward 0."""
    if not zeta:
        raise ValueError("membership query word must be non-empty")
    n = len(zeta) + 1
    names = ["y%d" % k for k in range(n)]
    labels = ap.labels()
    tau, rho = {}, {}
    for k in range(n):
        for label in labels:
            if k < len(zeta) and label == zeta[k]:
                tau[(k, label)] = unit_vector(n, k + 1)
                rho[(k, label, k + 1)] = 1.0
            else:
                tau[(k, label)] = unit_vector(n, k)
                rho[(k, label, k)] = 0.0
    return Prm(ap, [0.0, 1.0], names, 0, tau, rho)


# -- product MDP ------------------------------------------------------------------


@dataclass
class ProductMdp:
    mdp: Nmdp
    reward: dict             # ((x,y) index, action, (x',y') index) -> reward
    pairs: list              # product state index -> (x, y)


def product(m: Nmdp, h: Prm) -> ProductMdp:
    missing = []
    needed = m.label_alphabet()
    for y in range(h.n_states()):
        for label in needed:
            if not h.defined(y, label):
                missing.append((h.states[y], label_str(label)))
    if missing:
        raise ValueError("machine undefined on pairs: %s" % (missing,))

    n_x, n_y = len(m.states), h.n_states()
    pairs = [(x, y) for x in range(n_x) for y in range(n_y)]
    idx = {pair: i for i, pair in enumerate(pairs)}
    names = tuple("%s|%s" % (m.states[x], h.states[y]) for x, y in pairs)
    p, labeling, reward = {}, {}, {}
    available = [m.available[x] for x, _ in pairs]
    for (x, y), i in idx.items():
        for a in m.available[x]:
            vec = np.zeros(len(pairs))
            for x_next in np.flatnonzero(m.p[(x, a)]):
                x_next = int(x_next)
                label = m.labeling[(x, a, x_next)]
                succ = h.successor_vector(y, label)
                for y_next in np.flatnonzero(succ):
                    y_next = int(y_next)
                    j = idx[(x_next, y_next)]
                    vec[j] += float(m.p[(x, a)][x_next]) * float(succ[y_next])
                    labeling[(i, a, j)] = label
                    reward[(i, a, j)] = h.edge_reward(y, label, y_next)
            p[(i, a)] = vec
    mdp = Nmdp(
        states=names,
        x_init=idx[(m.x_init, h.init)],
        actions=m.actions,
        available=available,
        p=p,
        labeling=labeling,
        truth=m.truth,
        terminal_labels=m.terminal_labels,
    )
    return ProductMdp(mdp=mdp, reward=reward, pairs=pairs)


# -- configuration and trace logs ---------------------------------------------------


@dataclass
class EnvSetup:
    nmdp: Nmdp
    gridmap: GridMap
    n_episode: int
    seed: int

    @property
    def truth(self) -> Prm:
        """The environment's hidden reward machine."""
        return self.nmdp.truth

    @property
    def terminal_labels(self) -> frozenset:
        """The labels that end the environment's episodes."""
        return self.nmdp.terminal_labels


def load_env_config(path) -> EnvSetup:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("environment config must be a mapping")
    for key in ("map", "truth_prm"):
        if key not in cfg:
            raise ValueError("environment config is missing %r" % (key,))
        if not isinstance(cfg[key], str):
            raise ValueError("environment config %r must be a file name" % (key,))
    terminal = cfg.get("terminal_labels", [])
    if not isinstance(terminal, list) or not all(isinstance(t, str) for t in terminal):
        raise ValueError("environment config 'terminal_labels' must be a list of labels")
    n_episode, seed = cfg.get("n_episode", 100), cfg.get("seed", 0)
    check_count(n_episode, "environment config 'n_episode'", positive=True)
    check_count(seed, "environment config 'seed'")
    base = path.parent
    gridmap = load_gridmap(base / cfg["map"])
    truth = load_prm(base / cfg["truth_prm"])
    nmdp = build_office_nmdp(gridmap, truth, [parse_label(t) for t in terminal])
    return EnvSetup(nmdp=nmdp, gridmap=gridmap, n_episode=n_episode, seed=seed)


def trace_to_line(trace) -> str:
    fields = []
    for label, reward in trace:
        fields.append(label_str(label))
        fields.append(format_reward(reward))
    return ";".join(fields)


def trace_from_line(line: str):
    fields = line.strip().split(";")
    if fields == [""]:
        return []
    if len(fields) % 2 != 0:
        raise ValueError("trace line has an odd number of fields: %r" % (line,))
    out = []
    for i in range(0, len(fields), 2):
        out.append((parse_label(fields[i]), parse_reward(fields[i + 1])))
    return out


def save_traces(traces, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(trace_to_line(trace) + "\n")


def load_traces(path):
    """One trace per line; a blank line is an empty trace.  Equal pairs
    are one tuple, and a bad line's ValueError names its 1-based number."""
    shared, traces = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            try:
                pairs = trace_from_line(line)
            except ValueError as err:
                raise ValueError("line %d: %s" % (number, err)) from None
            traces.append(list(map(shared.setdefault, pairs, pairs)))
    return traces


# -- parallel trace collection -------------------------------------------------------


def _collect_chunk(args):
    """Episodes from `spawn_states`, on one Stream restarted at each in turn."""
    m, policy, states, n_episode = args
    rng = Stream(np.random.PCG64(0))
    out = []
    for state, inc in states:
        rng.restart(state, inc)
        out.append(run_episode(m, policy, rng, n_episode))
    return out


def check_terminal_labels(m: Nmdp, terminal_labels) -> None:
    """Raise a ValueError unless `terminal_labels` is None or, as a set,
    m's own: the environment owns its terminal labels, and a learner's
    copy of them may only repeat them."""
    if terminal_labels is not None and set(terminal_labels) != m.terminal_labels:
        raise ValueError("terminal labels %r differ from the environment's %s"
                         % (terminal_labels, sorted(map(label_str, m.terminal_labels))))


def check_count(value, name: str, positive: bool = False) -> None:
    """Raise a ValueError naming `name` unless `value` is a non-negative
    (or, with `positive`, positive) int that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < positive:
        raise ValueError("%s must be a %s integer, got %r"
                         % (name, "positive" if positive else "non-negative", value))


def collect_traces(m: Nmdp, policy, episodes: int, seed, n_episode: int, jobs: int = 1):
    """Roll out `episodes` episodes, episode i with the draws of
    `default_rng(SeedSequence(seed).spawn(episodes)[i])`; results are
    deterministic and independent of the number of jobs."""
    check_count(seed, "seed")
    check_count(episodes, "episodes")
    check_count(n_episode, "n_episode", positive=True)
    check_count(jobs, "jobs", positive=True)
    states = spawn_states(seed, episodes)
    if jobs <= 1:
        return _collect_chunk((m, policy, states, n_episode))
    from concurrent.futures import ProcessPoolExecutor

    chunks = [states[i::jobs] for i in range(jobs)]
    args = [(m, policy, chunk, n_episode) for chunk in chunks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_collect_chunk, args))
    out = [None] * episodes
    for j, chunk_result in enumerate(results):
        for k, trace in enumerate(chunk_result):
            out[j + k * jobs] = trace
    return out
