"""Property tests of the text formats: machine files, trace lines, grid
maps and the observation-table CSV each read back what was written, and
reject corrupted text with a ValueError (exit 1 on the command line)."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from prmlearn import Alphabet, ObservationTable, Prm, load_prm, prm_from_text, prm_to_text
from prmlearn.alphabet import EPSILON
from prmlearn.cli import main
from prmlearn.environment import (
    load_env_config,
    load_gridmap,
    load_traces,
    parse_gridmap,
    trace_from_line,
    trace_to_line,
)

from conftest import probability_vectors

ASSETS = Path(__file__).resolve().parents[1] / "src" / "prmlearn" / "assets"

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


CSV_AP = Alphabet(["c", "o", "*"])
csv_traces = st.lists(
    st.tuples(st.frozensets(st.sampled_from(CSV_AP.props), max_size=2), finite_rewards), max_size=4
)
csv_trace_lists = st.lists(csv_traces, max_size=20)


@settings(max_examples=200, deadline=None)
@given(traces=csv_trace_lists)
def test_table_csv_round_trip(traces):
    table = ObservationTable(CSV_AP)
    for trace in traces:
        table.record(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        table.to_csv(path)
        again = ObservationTable.from_csv(path, CSV_AP)
    assert again.t == table.t
    assert again.num_traces == table.num_traces
    assert again.total_samples() == table.total_samples()
    for word in [EPSILON, *table.t]:
        assert again.sample_count(word) == table.sample_count(word)


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
    rho = {key: data.draw(st.sampled_from(rewards)) for key in tau}
    prm = Prm(ap, rewards, ["y0", "y1"], 0, tau, rho)
    assert_same_machine(prm, prm_from_text(prm_to_text(prm)))

    trace = data.draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(rewards)), min_size=1, max_size=5))
    assert trace_from_line(trace_to_line(trace)) == trace

    table = ObservationTable(ap)
    table.record(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        table.to_csv(path)
        again = ObservationTable.from_csv(path, ap)
    assert again.t == table.t


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


def csv_text(traces) -> str:
    table = ObservationTable(CSV_AP)
    for trace in traces:
        table.record(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        table.to_csv(path)
        return Path(path).read_text(encoding="utf-8")


def read_csv_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        Path(path).write_text(text, encoding="utf-8", newline="")
        return ObservationTable.from_csv(path, CSV_AP)


@pytest.mark.parametrize("texts, parse", [
    (machine_texts, prm_from_text),
    (trace_texts, trace_from_line),
    (map_texts, parse_gridmap),
    (texts_from(csv_trace_lists.map(csv_text)), read_csv_text),
], ids=["machine", "trace", "map", "csv"])
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_parser_reads_or_rejects_malformed_text(texts, parse, data):
    reads_or_rejects(parse, data.draw(texts))


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
