"""Property tests of the text formats: machine files, trace lines and grid
maps each read back what was written, and reject corrupted text with a
ValueError (exit 1 on the command line)."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from prmlearn import (
    Alphabet,
    LearnerConfig,
    PassiveConfig,
    Prm,
    learn_active,
    learn_passive,
    load_prm,
    prm_from_text,
    prm_to_dot,
    prm_to_text,
)
from prmlearn.cli import main
from prmlearn.environment import (
    load_env_config,
    load_gridmap,
    load_traces,
    parse_gridmap,
    trace_from_line,
    trace_to_line,
    uniform_policy,
)

from conftest import edges_of, probability_vectors

ASSETS = Path(__file__).resolve().parents[1] / "src" / "prmlearn" / "assets"

PROPS = ["a", "b", "*"]
finite_rewards = st.floats(allow_nan=False, allow_infinity=False)
state_names = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True)
# names made of the machine file's own syntax as well: a machine rejects
# the ones its text cannot write back
NAME_PIECES = ["-", "--", "-->", ">", ":", "/", "#", "&", "ε", " ", "\t", "\n", "\r", "\x1c", "\u2028",
               "y", "0"]
any_state_names = st.one_of(
    state_names,
    st.lists(st.one_of(st.sampled_from(NAME_PIECES), st.text(max_size=2)), min_size=1, max_size=4).map("".join),
)


@st.composite
def machines(draw, name=state_names):
    """Total or partial machines, with or without a (possibly implicit)
    failure state.  Each edge draws its own reward, so the edges of one
    pair can pay different rewards."""
    ap = Alphabet(draw(st.lists(st.sampled_from(PROPS), min_size=1, max_size=2, unique=True)))
    n = draw(st.integers(1, 4))
    names = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    total = draw(st.booleans())
    bottom = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    implicit_bottom = bottom is not None and draw(st.booleans())
    tau = {}
    for y in range(n):
        for label in ap.labels():
            if total or draw(st.booleans()):
                tau[(y, label)] = draw(probability_vectors(n))
    rho = {edge: draw(finite_rewards) for edge in edges_of(tau)}
    return Prm(
        ap,
        draw(st.lists(finite_rewards, max_size=3)),
        names,
        draw(st.integers(0, n - 1)),
        tau,
        rho,
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
    assert q.gamma == p.gamma
    assert set(q.tau) == {(perm[y], label) for y, label in p.tau}
    for (y, label), vec in p.tau.items():
        assert np.array_equal(q.tau[(perm[y], label)][perm], vec)
    assert q.rho == {(perm[y], label, perm[j]): r for (y, label, j), r in p.rho.items()}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_machine_text_round_trip(data):
    # every machine text reads back exactly, and a state name the text
    # could not write back is rejected when the machine is made
    try:
        prm = data.draw(machines(any_state_names))
    except ValueError as err:
        assert "state name" in str(err)
        return
    text = prm_to_text(prm)
    again = prm_from_text(text)
    assert_same_machine(prm, again)
    assert prm_to_text(prm_from_text(prm_to_text(again))) == prm_to_text(again)


# The active office machine of seed 0 (acceptance-4 budget) in the format
# of files older than edge rewards, which is no longer read, and as it is
# written now: the q0 --o--> q2 edge pays 1.
OLD_ACTIVE_OFFICE = """\
ap: c,o,*
gamma: 0,1
init: q0
convention: target
bottom: bot
implicit_bottom: true
tag: q0 0
tag: q1 0
tag: q2 1
tag: bot 0
q0 --ε/0--> q0 : 1.0
q0 --*/0--> q0 : 1.0
q0 --c/0--> q0 : 1.0
q0 --o/0--> q1 : 0.09923664122137404
q0 --o/0--> q2 : 0.9007633587786259
"""
ACTIVE_OFFICE = """\
ap: c,o,*
gamma: 0,1
init: q0
bottom: bot
implicit_bottom: true
q0 --ε/0--> q0 : 1.0
q0 --*/0--> q0 : 1.0
q0 --c/0--> q0 : 1.0
q0 --o/0--> q1 : 0.09923664122137404
q0 --o/1--> q2 : 0.9007633587786259
"""


def test_old_learned_machine_file_rejected_at_its_convention_line():
    with pytest.raises(ValueError, match="malformed machine line: convention: target$"):
        prm_from_text(OLD_ACTIVE_OFFICE)
    assert prm_to_text(prm_from_text(ACTIVE_OFFICE)) == ACTIVE_OFFICE


@pytest.mark.parametrize("line", [
    "foo: bar",
    "y0 --a--> y0 : 1.0",     # no reward
    "y0 -a/0-> y0 : 1.0",     # no arrows
    "y0 --a/0--> y0 : x",     # no probability
    "y0 --a/0--> y0",         # no probability field
    "y0 --a/0--> : 1.0",      # no successor name
    "--a/0--> y0 : 1.0",      # no source name
    "tag: y0 1",              # a line of files older than edge rewards
])
def test_malformed_machine_line_quoted(line):
    with pytest.raises(ValueError, match="malformed machine line: %s$" % re.escape(line)):
        prm_from_text("ap: a\ngamma: 0\ninit: y0\n%s\n" % line)


@pytest.mark.parametrize("header", ["init: \n", "init: y0\nbottom: \n", "init: y0\nstate: \n"],
                         ids=["init", "bottom", "state"])
def test_empty_state_name_rejected(header):
    # an empty name would write back as a line that names no state
    with pytest.raises(ValueError, match="state name is empty"):
        prm_from_text("ap: a\ngamma: 0\n" + header + "y0 --a/0--> y0 : 1.0\n")
    with pytest.raises(ValueError, match="state name is empty"):
        Prm(Alphabet(["a"]), [0.0], ["y0", ""], 0, {(0, frozenset({"a"})): np.array([1.0, 0.0])},
            {(0, frozenset({"a"}), 0): 0.0})


@pytest.mark.parametrize("names, message", [
    *((["y0", name], "cannot be written")
      for name in ["y--0", "y-->z", "a:b", " y0", "y0\t", "y\n0", "y\u20280", "#y"]),
    (["y0", "y0"], "repeated"),
])
def test_state_names_the_machine_file_cannot_write_rejected(names, message):
    # written out, y--0 would read back as the label "0 --a", " y0" as y0,
    # and two states named y0 as one
    a = frozenset({"a"})
    with pytest.raises(ValueError, match=message):
        Prm(Alphabet(["a"]), [0.0], names, 0, {(0, a): np.array([0.5, 0.5])}, {(0, a, 0): 0.0, (0, a, 1): 0.0})


HEADER_FAULTS = [
    (ACTIVE_OFFICE.replace("implicit_bottom: true", "implicit_bottom: yes"), "implicit_bottom: yes"),
    (ACTIVE_OFFICE.replace("implicit_bottom: true", "implicit_bottom: flase"), "implicit_bottom: flase"),
    *((ACTIVE_OFFICE + line + "\n", line)
      for line in ["ap: c,o", "gamma: 0,1", "init: q1", "bottom: q2", "implicit_bottom: true"]),
    # the header lines of files older than edge rewards are not read
    (ACTIVE_OFFICE + "convention: target\n", "convention: target"),
    (ACTIVE_OFFICE + "tag: q2 0\n", "tag: q2 0"),
]


@pytest.mark.parametrize("text, line", HEADER_FAULTS, ids=[line for _, line in HEADER_FAULTS])
def test_machine_header_read_once_and_exactly(text, line):
    # a repeated header would make the last line win, and any
    # implicit_bottom value but true would read as false
    with pytest.raises(ValueError, match=re.escape(line)):
        prm_from_text(text)


@pytest.mark.parametrize("first, second", [
    ("y0 --a/0--> y1 : 0.5", "y0 --a/0--> y1 : 0.5"),
    ("y0 --a&b/0--> y1 : 0.5", "y0 --b&a/0--> y1 : 0.5"),   # one label, spelled twice
    ("y0 --a/0--> y1 : 1.0", "y0 --a/0--> y1 : 0.0"),
])
def test_machine_repeated_edge_line_rejected(first, second):
    # summed, the two lines of one (state, label, successor) would make
    # two halves read as one edge of probability 1.0
    text = "ap: a,b\ngamma: 0,1\ninit: y0\n%s\n%s\n" % (first, second)
    with pytest.raises(ValueError, match="repeated edge line: %s" % re.escape(second)):
        prm_from_text(text)


@pytest.mark.parametrize("line, message", [
    ("y0 --a&&b/0--> y1 : 1.0", "malformed label: 'a&&b'"),
    ("y0 --q/0--> y1 : 1.0", "label q uses unknown proposition 'q'"),
    ("y1 --a/x--> y1 : 1.0", "reward must be a finite number: 'x'"),
    ("gamma: 0,x", "reward must be a finite number: 'x'"),
    ("ap: a,b/c", "invalid proposition name: 'b/c'"),
], ids=["label", "proposition", "edge-reward", "gamma", "ap"])
def test_machine_field_fault_quotes_its_line(line, message):
    # in a long machine file the field alone would not say which line
    # holds it; the bad line is the second of three after init
    headers = [h for h in ("ap: a,b", "gamma: 0,1") if h.split(":")[0] != line.split(":")[0]]
    text = "\n".join(headers + ["init: y0", "y0 --a/0--> y1 : 1.0", line, "y1 --b/1--> y0 : 1.0"])
    with pytest.raises(ValueError, match="^%s in line: %s$" % (re.escape(message), re.escape(line))):
        prm_from_text(text)


def test_machine_state_lines_may_repeat():
    prm = prm_from_text(ACTIVE_OFFICE + "state: spare\nstate: spare\n")
    assert prm.states.count("spare") == 1


EDGE_LINE = re.compile(r"(\S+) --(.+)/(\S+)--> (\S+) : \S+")
DOT_EDGE = re.compile(r'  "(.+)" -> "(.+)" \[label="⟨(.+), (.+)⟩ : \S+"\];')


def learned_machines():
    office = load_env_config(ASSETS / "office.yaml")
    patrol = load_env_config(ASSETS / "patrol.yaml")
    for seed in (0, 1):
        cfg = LearnerConfig(n_check=200, n_query=500, n_stop=50, n_episode=100, seed=seed)
        yield learn_active(office.nmdp, cfg).hypothesis
        cfg = LearnerConfig(n_check=100, n_query=300, n_stop=30, n_episode=50, seed=seed)
        yield learn_active(patrol.nmdp, cfg).hypothesis
    cfg = PassiveConfig(n_check=40, n_episode=office.n_episode, seed=7)
    yield learn_passive(office.nmdp, uniform_policy(office.nmdp), 300, cfg).hypothesis


def test_learned_machine_text_and_dot_agree_on_every_edge_reward():
    for h in learned_machines():
        text = prm_to_text(h)
        written = {}
        for line in text.splitlines():
            match = EDGE_LINE.fullmatch(line)
            if match:
                src, label, reward, dst = match.groups()
                written[(src, label, dst)] = reward
        drawn = {}
        for line in prm_to_dot(h).splitlines():
            match = DOT_EDGE.fullmatch(line)
            if match:
                src, dst, label, reward = match.groups()
                drawn[(src, label, dst)] = reward
        assert written == drawn
        assert len(written) == len(h.rho)
        again = prm_from_text(text)
        assert_same_machine(h, again)
        assert prm_to_text(again) == text


labels = st.frozensets(st.sampled_from(PROPS + ["c", "o", "p_1"]), max_size=3)
traces = st.lists(st.tuples(labels, finite_rewards), max_size=8)


@settings(max_examples=300, deadline=None)
@given(trace=traces)
def test_trace_line_round_trip(trace):
    assert trace_from_line(trace_to_line(trace)) == trace


# Every non-integer finite float, drawn without a rejecting filter: such a
# float lies within ±(2^52 - 0.5), where r + 0.5 is exact, so integral draws
# move up by a half.
non_integer_rewards = st.floats(min_value=-(2.0 ** 52 - 0.5), max_value=2.0 ** 52 - 0.5).map(
    lambda r: r + 0.5 if r == int(r) else r
)


@settings(max_examples=300, deadline=None)
@given(trace=st.lists(st.tuples(labels, non_integer_rewards), min_size=1, max_size=8))
def test_trace_line_round_trip_non_integer_rewards(trace):
    again = trace_from_line(trace_to_line(trace))
    assert [reward for _, reward in again] == [reward for _, reward in trace]


# -- proposition names ---------------------------------------------------------------


def accepted(name: str) -> bool:
    try:
        Alphabet([name])
    except ValueError:
        return False
    return True


prop_names = st.text(min_size=1, max_size=4).filter(accepted)


@settings(max_examples=300, deadline=None)
@given(
    props=st.lists(prop_names, min_size=1, max_size=2, unique=True),
    rewards=st.lists(finite_rewards, min_size=1, max_size=4),
    data=st.data(),
)
def test_accepted_names_round_trip_through_every_format(props, rewards, data):
    ap = Alphabet(props)
    labels = ap.labels()
    tau = {(y, label): data.draw(probability_vectors(2)) for y in range(2) for label in labels}
    rho = {edge: data.draw(st.sampled_from(rewards)) for edge in edges_of(tau)}
    prm = Prm(ap, rewards, ["y0", "y1"], 0, tau, rho)
    assert_same_machine(prm, prm_from_text(prm_to_text(prm)))

    trace = data.draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(rewards)), min_size=1, max_size=5))
    assert trace_from_line(trace_to_line(trace)) == trace


# -- malformed input -------------------------------------------------------------------
#
# Each parser either reads a corrupted text or raises ValueError; any other
# exception is a defect.  On the command line a ValueError is exit 1.

SYNTAX = [":", "-", "--", "-->", "/", ",", ";", "&", "#", "~", "ε", " ", "\t", "\n", "\r", '"',
          "0", "1", "0.5", "-1", "1e999", "nan", "inf", "c", "o", "*", "A", ".", "y0",
          "ap:", "gamma:", "init:", "tag:", "state:", "bottom:", "convention: target",
          "implicit_bottom: true", "\x00", "\u2028", "\ufeff"]
pieces = st.one_of(st.sampled_from(SYNTAX), st.text(max_size=3))
edits = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace", "duplicate line", "drop line"]),
              st.integers(0, 10 ** 6), st.integers(1, 4), pieces),
    min_size=1,
    max_size=4,
)


def corrupt(text: str, steps) -> str:
    for kind, pos, width, piece in steps:
        if kind in ("duplicate line", "drop line"):
            lines = text.splitlines(keepends=True)
            if lines:
                k = pos % len(lines)
                lines[k:k + 1] = [lines[k]] * (2 if kind == "duplicate line" else 0)
            text = "".join(lines)
            continue
        k = pos % (len(text) + 1)
        if kind == "insert":
            text = text[:k] + piece + text[k:]
        elif kind == "delete":
            text = text[:k] + text[k + width:]
        else:
            text = text[:k] + piece + text[k + width:]
    return text


def reads_or_rejects(parse, text) -> bool:
    """True when `parse(text)` reads the text, False when it raises
    ValueError; any other exception escapes."""
    try:
        parse(text)
    except ValueError:
        return False
    return True


def texts_from(sources):
    return st.one_of(
        st.tuples(sources, edits).map(lambda pair: corrupt(*pair)),
        st.text(max_size=40),
    )


machine_texts = texts_from(machines().map(prm_to_text))
trace_texts = texts_from(traces.map(trace_to_line))
MAPS = [(ASSETS / name).read_text(encoding="utf-8") for name in ("officeworld.map", "patrol.map")]
map_texts = texts_from(st.sampled_from(MAPS))


@pytest.mark.parametrize("texts, parse", [
    (machine_texts, prm_from_text),
    (trace_texts, trace_from_line),
    (map_texts, parse_gridmap),
], ids=["machine", "trace", "map"])
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_parser_reads_or_rejects_malformed_text(texts, parse, data):
    reads_or_rejects(parse, data.draw(texts))


NON_NUMERIC_REWARDS = [
    ("ap: a\ngamma: 0\ninit: y0\ny0 --a/x--> y0 : 1.0\n", prm_from_text, "bad.prm"),
    ("ap: a\ngamma: 0,x\ninit: y0\ny0 --a/0--> y0 : 1.0\n", prm_from_text, "bad.prm"),
    ("c;x\n", trace_from_line, "bad.log"),
]


@pytest.mark.parametrize("text, parse, name", NON_NUMERIC_REWARDS, ids=["edge", "gamma", "trace"])
def test_parser_names_a_reward_that_is_no_number(text, parse, name, tmp_path, capsys):
    # float's own error would name neither the field nor its text
    message = "reward must be a finite number: 'x'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse(text)
    (tmp_path / name).write_text(text, encoding="utf-8")
    command = {
        "bad.prm": ["export-dot", "--prm", tmp_path / "bad.prm", "--out", tmp_path / "bad.dot"],
        "bad.log": ["learn-passive", "--env", patrol_copy(tmp_path), "--traces", tmp_path / "bad.log",
                    "--n-check", "1", "--out", tmp_path / "learned.prm"],
    }[name]
    assert main([str(arg) for arg in command]) == 1
    assert message in capsys.readouterr().err


# The command line reads machine files (export-dot), trace logs
# (learn-passive --traces) and maps (through an environment config); a
# file its reader rejects exits 1, and no file escapes as a traceback.


def patrol_copy(tmp: Path) -> Path:
    for name in ("patrol.yaml", "patrol.map", "patrol_truth.prm"):
        (tmp / name).write_bytes((ASSETS / name).read_bytes())
    return tmp / "patrol.yaml"


@pytest.mark.parametrize("texts, load, name, command", [
    (machine_texts, load_prm, "bad.prm",
     lambda tmp: ["export-dot", "--prm", tmp / "bad.prm", "--out", tmp / "bad.dot"]),
    (trace_texts, load_traces, "bad.log",
     lambda tmp: ["learn-passive", "--env", patrol_copy(tmp), "--traces", tmp / "bad.log",
                  "--n-check", "1", "--out", tmp / "learned.prm"]),
    (map_texts, load_gridmap, "patrol.map",
     lambda tmp: ["simulate", "--env", patrol_copy(tmp), "--episodes", "2", "--out", tmp / "traces.log"]),
], ids=["machine", "trace", "map"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_exits_1_on_malformed_file(texts, load, name, command, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [str(arg) for arg in command(tmp)]
        (tmp / name).write_text(data.draw(texts), encoding="utf-8")
        read = reads_or_rejects(load, tmp / name)
        code = main(argv)
    assert code in ((0, 1) if read else (1,))


yaml_values = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 200), st.floats(), st.text(max_size=6),
    st.lists(st.one_of(st.integers(), st.text(max_size=3), st.sampled_from(["c", "*", "~"])), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
config_values = {
    "map": st.one_of(st.just("patrol.map"), yaml_values),
    "truth_prm": st.one_of(st.just("patrol_truth.prm"), yaml_values),
    "n_episode": st.one_of(st.integers(1, 20), yaml_values),
    "seed": yaml_values,
    "terminal_labels": st.one_of(st.just(["c"]), yaml_values),
}
configs = st.fixed_dictionaries({}, optional=config_values)
policy_files = st.dictionaries(
    st.one_of(st.sampled_from(["(0,0)", "(0,1)"]), st.text(max_size=4), st.integers()),
    st.one_of(st.sampled_from(["N", "S", "E", "W"]), yaml_values),
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(cfg=configs, policy=policy_files)
def test_cli_malformed_environment_config_and_policy(cfg, policy):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = patrol_copy(tmp)
        config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        policy_file = tmp / "policy.yaml"
        policy_file.write_text(yaml.safe_dump(policy), encoding="utf-8")
        try:
            load_env_config(config)
            read = True
        except (ValueError, OSError):   # OSError: a file the config names is missing
            read = False
        code = main(["simulate", "--env", str(config), "--policy", str(policy_file),
                     "--episodes", "2", "--out", str(tmp / "traces.log")])
    assert code in ((0, 1) if read else (1,))


@pytest.mark.parametrize("key, value", [
    ("seed", 2.9), ("seed", True), ("seed", -3), ("seed", "7"), ("seed", None),
    ("n_episode", 2.9), ("n_episode", False), ("n_episode", 0), ("n_episode", "50"),
])
def test_env_config_seed_and_episode_length_are_yaml_integers(tmp_path, key, value):
    # no float, bool or string is rounded or read as a number; a seed is
    # at least 0 and an episode at least one step long
    config = patrol_copy(tmp_path)
    cfg = yaml.safe_load(config.read_text(encoding="utf-8"))
    cfg[key] = value
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    with pytest.raises(ValueError, match=key):
        load_env_config(config)


@pytest.mark.parametrize("config, labels, bad", [
    ("office.yaml", ["q", "o"], "q"),
    ("office.yaml", ["o", "c&x"], "c&x"),
    ("patrol.yaml", ["c", "o"], "o"),
])
def test_env_config_terminal_labels_use_the_truth_propositions(tmp_path, config, labels, bad):
    for name in ("office.yaml", "officeworld.map", "coffee_truth.prm"):
        (tmp_path / name).write_bytes((ASSETS / name).read_bytes())
    path = patrol_copy(tmp_path).parent / config
    cfg = yaml.safe_load(path.read_text(encoding="utf-8"))
    cfg["terminal_labels"] = labels
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    with pytest.raises(ValueError, match="label %s uses unknown proposition" % bad):
        load_env_config(path)
    cfg["terminal_labels"] = [label for label in labels if label != bad]
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert len(load_env_config(path).terminal_labels) == 1


@pytest.mark.parametrize("seed", [-1, 1.5, None, True, "0", np.float64(2.0)])
@pytest.mark.parametrize("make", [
    lambda seed: LearnerConfig(n_check=1, n_query=1, n_stop=1, n_episode=1, seed=seed),
    lambda seed: PassiveConfig(n_check=1, seed=seed),
], ids=["active", "passive"])
def test_learner_configs_take_only_non_negative_integer_seeds(make, seed):
    with pytest.raises(ValueError, match="seed"):
        make(seed)
    assert make(np.int64(3)).seed == 3 and make(0).seed == 0
