import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import prmlearn.cli
from prmlearn.cli import main
from prmlearn.environment import ACTIONS, PositionalPolicy, collect_traces, load_env_config, save_traces, uniform_policy
from prmlearn.passive import PassiveConfig, learn_passive
from prmlearn.verify import EncodingReport

from conftest import C

ASSETS = Path(__file__).resolve().parents[1] / "src" / "prmlearn" / "assets"


@pytest.fixture
def patrol_env(tmp_path):
    """A copy of the patrol environment config in a scratch directory."""
    for name in ("patrol.yaml", "patrol.map", "patrol_truth.prm"):
        shutil.copy(ASSETS / name, tmp_path / name)
    return tmp_path / "patrol.yaml"


def run_cli(args):
    return main([str(a) for a in args])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- pinned outputs -----------------------------------------------------------------
#
# The sha256 of the files and stdout of commands whose output a speed
# change must leave byte-identical.  The commands run in a scratch
# directory with relative file names, so stdout names no absolute path.

LEARN_ACTIVE_PINS = {
    "stdout": "cf80464caa13645ab406e13ac9b92bdd5353bad98665e3a87b16a0c01e91cd0b",
    "active.prm": "a625e114ca566bcc3cf06e99fd847382eb31d29d62517680370b45af7f25cb4f",
    "report.txt": "984d0b9751758af84c80e5e7d07b59a91ec88428a02bed657897fc61567a10b0",
    "eval-encoding": "88c9d713f7420f87aa2eb2411b21bf762251fa094fcd7eff052e0726288564c6",
}
SIMULATE_PINS = {
    "stdout": "6ad29ee8f796ef1dad5e273c0ca8f642ba50edbe82f827491d373973c771e301",
    "traces.log": "4022dc3776390584a9134b9092f08b65f9a1adcf873715140ef59b8e44963b74",
}


def test_learn_active_and_eval_encoding_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    # the acceptance-4 budget on seed 1, then its machine against the office truth
    monkeypatch.chdir(tmp_path)
    code = run_cli(["learn-active", "--env", "office", "--budget", "200,500,50,100", "--seed", "1",
                    "--out", "active.prm", "--report", "report.txt"])
    assert code == 0
    digests = {"stdout": sha256(capsys.readouterr().out.encode("utf-8"))}
    digests.update((name, sha256((tmp_path / name).read_bytes())) for name in ("active.prm", "report.txt"))
    code = run_cli(["eval-encoding", "--hypothesis", "active.prm", "--truth", ASSETS / "coffee_truth.prm",
                    "--max-len", "3"])
    assert code == 0
    digests["eval-encoding"] = sha256(capsys.readouterr().out.encode("utf-8"))
    assert digests == LEARN_ACTIVE_PINS


def test_simulate_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run_cli(["simulate", "--env", "office", "--episodes", "200", "--seed", "3", "--out", "traces.log"])
    assert code == 0
    digests = {"stdout": sha256(capsys.readouterr().out.encode("utf-8")),
               "traces.log": sha256((tmp_path / "traces.log").read_bytes())}
    assert digests == SIMULATE_PINS


# -- simulate ---------------------------------------------------------------------


def test_simulate_writes_traces(patrol_env, tmp_path, capsys):
    out = tmp_path / "traces.log"
    code = run_cli(["simulate", "--env", patrol_env, "--episodes", "5", "--out", out, "--seed", "1"])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert "wrote 5 traces" in capsys.readouterr().out


def test_simulate_deterministic(patrol_env, tmp_path):
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    run_cli(["simulate", "--env", patrol_env, "--episodes", "20", "--out", a, "--seed", "3"])
    run_cli(["simulate", "--env", patrol_env, "--episodes", "20", "--out", b, "--seed", "3"])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_builtin_office(tmp_path):
    out = tmp_path / "office.log"
    code = run_cli(
        ["simulate", "--env", "office", "--policy", "shortest-path",
         "--episodes", "3", "--out", out, "--seed", "7"]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").count("\n") == 3


# -- learn-passive ------------------------------------------------------------------


def test_learn_passive_from_traces_file(patrol_env, tmp_path):
    traces = tmp_path / "traces.log"
    run_cli(["simulate", "--env", patrol_env, "--episodes", "500", "--out", traces, "--seed", "2"])
    out = tmp_path / "learned.prm"
    dot = tmp_path / "learned.dot"
    table = tmp_path / "table.csv"
    code = run_cli(
        ["learn-passive", "--env", patrol_env, "--traces", traces, "--n-check", "50",
         "--out", out, "--dot", dot, "--table", table, "--seed", "2"]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith("ap: c")
    assert dot.read_text(encoding="utf-8").startswith("digraph")
    assert table.read_text(encoding="utf-8").startswith("word,reward,count,sample")


def test_learn_passive_reports_every_logged_episode(patrol_env, tmp_path, capsys):
    # an empty episode is a blank line of the log, and still an episode
    traces = tmp_path / "traces.log"
    run_cli(["simulate", "--env", patrol_env, "--episodes", "4", "--out", traces, "--seed", "2"])
    lines = traces.read_text(encoding="utf-8").splitlines()
    traces.write_text("\n".join(["", *lines[:2], "", *lines[2:], ""]) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = run_cli(["learn-passive", "--env", patrol_env, "--traces", traces,
                    "--n-check", "1", "--out", tmp_path / "learned.prm"])
    assert code == 0
    assert "from 7 traces" in capsys.readouterr().out


def test_learn_passive_prints_where_state_seeding_stopped(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("prmlearn.passive.MAX_STATES", 2)
    env = load_env_config(ASSETS / "office.yaml")
    cfg = PassiveConfig(n_check=5, n_episode=env.n_episode, seed=env.seed)
    result = learn_passive(env.nmdp, uniform_policy(env.nmdp), 300, cfg)
    assert result.report.notes == ["state seeding stopped at max_states=2"]
    monkeypatch.chdir(tmp_path)
    code = run_cli(["learn-passive", "--env", "office", "--policy", "uniform", "--episodes", "300",
                    "--n-check", "5", "--out", "learned.prm"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("learned ") and out[1:] == ["state seeding stopped at max_states=2"]


@pytest.mark.parametrize("log", ["", "\n\n"], ids=["empty-log", "blank-lines"])
def test_learn_passive_rejects_a_log_without_steps(tmp_path, capsys, log):
    traces = tmp_path / "traces.log"
    traces.write_text(log, encoding="utf-8")
    out = tmp_path / "learned.prm"
    code = run_cli(["learn-passive", "--env", "office", "--traces", traces, "--out", out])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "with a step" in err[0]
    assert not out.exists()


def test_learn_passive_deterministic(patrol_env, tmp_path):
    outs = []
    for name in ("a.prm", "b.prm"):
        out = tmp_path / name
        code = run_cli(
            ["learn-passive", "--env", patrol_env, "--policy", "uniform",
             "--episodes", "300", "--n-check", "50", "--out", out, "--seed", "5"]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# -- learn-active --------------------------------------------------------------------


def test_learn_active_and_report(patrol_env, tmp_path):
    out = tmp_path / "active.prm"
    report = tmp_path / "report.txt"
    code = run_cli(
        ["learn-active", "--env", patrol_env, "--budget", "30,100,10,20",
         "--out", out, "--report", report, "--seed", "0"]
    )
    assert code == 0
    assert "totals:" in report.read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8").startswith("ap: c")


def test_learn_active_bad_budget(patrol_env, tmp_path, capsys):
    code = run_cli(
        ["learn-active", "--env", patrol_env, "--budget", "nonsense",
         "--out", tmp_path / "x.prm"]
    )
    assert code == 1
    assert "budget" in capsys.readouterr().err


# -- eval-encoding ----------------------------------------------------------------------


def test_eval_encoding_identical_files(capsys):
    truth = ASSETS / "patrol_truth.prm"
    code = run_cli(["eval-encoding", "--hypothesis", truth, "--truth", truth, "--max-len", "4"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_eval_encoding_negative_max_len(capsys):
    truth = ASSETS / "patrol_truth.prm"
    code = run_cli(["eval-encoding", "--hypothesis", truth, "--truth", truth, "--max-len", "-1"])
    assert code == 1
    assert "max_len" in capsys.readouterr().err


def test_eval_encoding_reports_bottom_words(tmp_path, capsys):
    empty = tmp_path / "empty.prm"
    empty.write_text(
        "ap: c\ngamma: 0,1\ninit: q0\nbottom: bot\nimplicit_bottom: true\n",
        encoding="utf-8",
    )
    truth = ASSETS / "patrol_truth.prm"
    code = run_cli(["eval-encoding", "--hypothesis", empty, "--truth", truth, "--max-len", "3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "1.0",
        "14 words fully absorbed by the failure state, e.g. ε",
    ]


@pytest.mark.parametrize("digits", [4300, 5001])
def test_eval_encoding_prints_every_digit_of_a_long_bottom_count(digits, monkeypatch, capsys):
    # int -> str refuses more than 4300 digits by default; a count of 5001
    # digits, as a long enough walk reaches, still prints in full
    count = 10 ** (digits - 1) + 7
    report = EncodingReport(1.0, (C,), words_checked=count, bottom_count=count, first_bottom_word=(C,))
    monkeypatch.setattr(prmlearn.cli, "encoding_distance", lambda h, truth, max_len: report)
    truth = ASSETS / "patrol_truth.prm"
    code = run_cli(["eval-encoding", "--hypothesis", truth, "--truth", truth, "--max-len", "3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "1.0",
        "1%s7 words fully absorbed by the failure state, e.g. c" % ("0" * (digits - 2)),
    ]


def test_eval_encoding_rejects_a_hypothesis_without_the_truths_propositions(tmp_path, capsys):
    # the patrol truth reads {c}; this hypothesis's alphabet is {a}
    other = tmp_path / "other.prm"
    other.write_text("ap: a\ngamma: 0,1\ninit: q0\nq0 --a/1--> q0 : 1.0\nq0 --ε/0--> q0 : 1.0\n",
                     encoding="utf-8")
    code = run_cli(["eval-encoding", "--hypothesis", other, "--truth", ASSETS / "patrol_truth.prm", "--max-len", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the truth's label c uses a proposition the hypothesis's propositions lack" in captured.err
    assert "Traceback" not in captured.err


def test_eval_encoding_long_words_on_office(capsys):
    truth = ASSETS / "coffee_truth.prm"
    code = run_cli(["eval-encoding", "--hypothesis", truth, "--truth", truth, "--max-len", "50"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.0"


# -- mq -----------------------------------------------------------------------------------


def test_mq_prints_witness(capsys):
    code = run_cli(["mq", "--env", "office", "--word", "c;o", "--node-budget", "100000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "witness actions:" in out
    assert "witness states:" in out


def test_mq_word_longer_than_the_recursion_limit(capsys):
    word = ";".join(["~"] * 2000)
    code = run_cli(["mq", "--env", "office", "--word", word, "--node-budget", "100000"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()[0].split()) == 2 + 2000   # "witness actions:" and one per label


def test_mq_no_witness(capsys):
    code = run_cli(["mq", "--env", "office", "--word", "c;c", "--node-budget", "100000"])
    assert code == 0
    assert "no witness" in capsys.readouterr().out


def test_mq_no_witness_past_a_terminal_label(capsys):
    # office episodes end on o: c;o has a witness, and a word going on after o has none
    assert run_cli(["mq", "--env", "office", "--word", "c;o"]) == 0
    assert capsys.readouterr().out.startswith("witness actions: S S\n")
    assert run_cli(["mq", "--env", "office", "--word", "c;o;~"]) == 0
    assert capsys.readouterr().out == "no witness\n"


@pytest.mark.parametrize("word", ["z", "c&z"])
def test_mq_rejects_unknown_proposition(capsys, word):
    code = run_cli(["mq", "--env", "office", "--word", word])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: label %s uses unknown proposition 'z'" % word]


def test_mq_budget_exit_code(capsys):
    code = run_cli(["mq", "--env", "office", "--word", "~;~;~;~;~;~;c;c", "--node-budget", "10"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_mq_negative_node_budget_exits_1(capsys):
    # a budget below 0 is a bad option, not a search that ran out
    code = run_cli(["mq", "--env", "office", "--word", "c;o", "--node-budget", "-5"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: node_budget must be a non-negative integer, got -5"
    ]


# -- export-dot ------------------------------------------------------------------------------


def test_export_dot(tmp_path, capsys):
    out = tmp_path / "coffee.dot"
    code = run_cli(["export-dot", "--prm", ASSETS / "coffee_truth.prm", "--out", out])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert "0.9" in text


# -- error handling ----------------------------------------------------------------------------


def test_missing_env_is_configuration_error(tmp_path, capsys):
    code = run_cli(["simulate", "--env", "nowhere.yaml", "--episodes", "1",
                    "--out", tmp_path / "x.log"])
    assert code == 1
    assert "no such environment" in capsys.readouterr().err


def test_unknown_policy_file(patrol_env, tmp_path, capsys):
    code = run_cli(["simulate", "--env", patrol_env, "--policy", "no-such-policy",
                    "--episodes", "1", "--out", tmp_path / "x.log"])
    assert code == 1


def test_simulate_policy_file_rolls_out_its_positional_policy(tmp_path, monkeypatch, capsys):
    # start, then coffee below it, then the office below that; (1,1) is
    # never visited, and every other state falls back to its first action
    monkeypatch.chdir(tmp_path)
    (tmp_path / "policy.yaml").write_text('"(3,3)": S\n"(4,3)": S\n"(1,1)": E\n', encoding="utf-8")
    code = run_cli(["simulate", "--env", "office", "--policy", "policy.yaml", "--episodes", "20",
                    "--seed", "3", "--out", "traces.log"])
    assert code == 0
    env = load_env_config(ASSETS / "office.yaml")
    policy = PositionalPolicy({env.nmdp.states.index(state): {ACTIONS.index(action): 1.0}
                               for state, action in (("(3,3)", "S"), ("(4,3)", "S"), ("(1,1)", "E"))})
    save_traces(collect_traces(env.nmdp, policy, 20, 3, env.n_episode), tmp_path / "expected.log")
    assert (tmp_path / "traces.log").read_bytes() == (tmp_path / "expected.log").read_bytes()
    assert "wrote 20 traces" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ('"(0,0)": E\n', "policy names unknown state '(0,0)'"),   # a wall, not a state
    ('"(3,3)": X\n', "policy names unknown action 'X'"),
    ('"(3,3)": 1\n', "policy names unknown action 1"),
    ("- E\n", "a policy file must map state names to action names"),
    ("", "a policy file must map state names to action names"),
], ids=["unknown-state", "unknown-action", "non-string-action", "list", "empty-file"])
def test_simulate_rejects_a_bad_policy_file(tmp_path, capsys, text, message):
    policy = tmp_path / "policy.yaml"
    policy.write_text(text, encoding="utf-8")
    code = run_cli(["simulate", "--env", "office", "--policy", policy, "--episodes", "1",
                    "--out", tmp_path / "x.log"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: " + message]
    assert not (tmp_path / "x.log").exists()


@pytest.mark.parametrize(
    "command, episodes", [("simulate", "-3"), ("learn-passive", "0"), ("learn-passive", "-2")]
)
def test_bad_episode_count_is_configuration_error(tmp_path, capsys, command, episodes):
    out = tmp_path / "out"
    code = run_cli([command, "--env", "office", "--episodes", episodes, "--out", out])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["simulate", "--env", "office", "--episodes", "abc", "--out", "x.log"], ["mq"], []],
    ids=["bad-int", "missing-option", "no-command"],
)
def test_usage_error_exits_1(capsys, args):
    assert run_cli(args) == 1
    assert "usage: prmlearn" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, unknown",
    [(["mq", "--env", "office", "--word", "c", "--max-len", "1"], "--max-len 1"),
     (["export-dot", "--prm", "x.prm", "--out", "x.dot", "extra"], "extra")],
    ids=["unknown-option", "extra-positional"],
)
def test_unknown_argument_shows_the_subcommand_usage(capsys, args, unknown):
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: prmlearn %s " % args[0])
    assert err.endswith("prmlearn %s: error: unrecognized arguments: %s\n" % (args[0], unknown))


def test_console_script_installed():
    # the package is found on PYTHONPATH alone, as in a checkout
    env = dict(os.environ, PYTHONPATH=str(ASSETS.parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "prmlearn.cli", "--help"], capture_output=True, text=True, env=env
    )
    # argparse prints help and exits 0
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


@pytest.mark.parametrize("reward", ["inf", "nan"])
def test_learn_passive_rejects_non_finite_reward(patrol_env, tmp_path, capsys, reward):
    traces = tmp_path / "traces.log"
    traces.write_text("c;%s\n" % reward, encoding="utf-8")
    out = tmp_path / "learned.prm"
    code = run_cli(["learn-passive", "--env", patrol_env, "--traces", traces,
                    "--n-check", "1", "--out", out])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_learn_passive_rejects_labels_outside_the_propositions(patrol_env, tmp_path, capsys):
    # the patrol environment has the one proposition c
    traces = tmp_path / "traces.log"
    traces.write_text("c;0\nx;1;c;0\nq&c;0\n", encoding="utf-8")
    out = tmp_path / "learned.prm"
    code = run_cli(["learn-passive", "--env", patrol_env, "--traces", traces,
                    "--n-check", "1", "--out", out])
    assert code == 1
    assert "unknown proposition 'x'" in capsys.readouterr().err
    assert not out.exists()


def test_export_dot_rejects_non_finite_reward(tmp_path, capsys):
    prm = tmp_path / "inf.prm"
    prm.write_text("ap: c\ngamma: 0\ninit: y0\ny0 --c/inf--> y0 : 1.0\n", encoding="utf-8")
    code = run_cli(["export-dot", "--prm", prm, "--out", tmp_path / "inf.dot"])
    assert code == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["2.9", "true", "-3"])
def test_bad_config_seed_exits_1(patrol_env, tmp_path, capsys, seed):
    text = patrol_env.read_text(encoding="utf-8").replace("seed: 3", "seed: " + seed)
    patrol_env.write_text(text, encoding="utf-8")
    out = tmp_path / "traces.log"
    code = run_cli(["simulate", "--env", patrol_env, "--episodes", "2", "--out", out])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'seed'" in err[0]
    assert not out.exists()


def test_unknown_terminal_label_exits_1(patrol_env, tmp_path, capsys):
    with open(patrol_env, "a", encoding="utf-8") as fh:
        fh.write("terminal_labels: [c, q]\n")
    out = tmp_path / "learned.prm"
    code = run_cli(["learn-active", "--env", patrol_env, "--budget", "20,20,2,30", "--out", out])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "unknown proposition 'q'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--episodes", "2"],
    ["learn-passive", "--episodes", "2"],
    ["learn-active", "--budget", "1,1,1,1"],
])
def test_negative_seed_option_exits_1(patrol_env, tmp_path, capsys, command):
    out = tmp_path / "out"
    code = run_cli(command[:1] + ["--env", patrol_env] + command[1:] + ["--out", out, "--seed", "-3"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed must be a non-negative integer")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--episodes", "2"],
    ["learn-passive", "--episodes", "2"],
])
def test_zero_jobs_option_exits_1(patrol_env, tmp_path, capsys, command):
    out = tmp_path / "out"
    code = run_cli(command[:1] + ["--env", patrol_env] + command[1:] + ["--out", out, "--jobs", "0"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: jobs must be a positive integer, got 0"]
    assert not out.exists()
