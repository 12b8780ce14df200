"""Command-line interface.

Exit codes: 0 success, 1 configuration or usage error, 2 search budget exhausted.
All randomness is controlled by --seed; outputs with a fixed seed are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from importlib import resources
from pathlib import Path

import yaml

from .active import LearnerConfig, learn_active
from .alphabet import parse_word, word_str
from .environment import (
    EnvSetup,
    MapParseError,
    PositionalPolicy,
    collect_traces,
    load_env_config,
    load_traces,
    save_traces,
    shortest_path_policy,
    uniform_policy,
)
from .machine import load_prm, prm_to_dot, save_prm
from .passive import PassiveConfig, learn_passive, learn_passive_from_traces
from .verify import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    brute_force_word_realizability,
    encoding_distance,
)

BUILTIN_ENVS = {"office": "office.yaml"}


class ConfigurationError(ValueError):
    pass


def resolve_env(arg: str) -> EnvSetup:
    if arg in BUILTIN_ENVS:
        root = resources.files("prmlearn") / "assets" / BUILTIN_ENVS[arg]
        return load_env_config(str(root))
    path = Path(arg)
    if not path.exists():
        raise ConfigurationError("no such environment config: %s" % arg)
    return load_env_config(path)


def resolve_policy(arg: str, setup: EnvSetup):
    if arg == "uniform":
        return uniform_policy(setup.nmdp)
    if arg == "shortest-path":
        return shortest_path_policy(setup.gridmap, setup.nmdp)
    path = Path(arg)
    if not path.exists():
        raise ConfigurationError("no such policy: %s (builtins: uniform, shortest-path)" % arg)
    with open(path, "r", encoding="utf-8") as fh:
        mapping = yaml.safe_load(fh)
    if not isinstance(mapping, dict):
        raise ConfigurationError("a policy file must map state names to action names")
    m = setup.nmdp
    state_index = {name: i for i, name in enumerate(m.states)}
    action_index = {name: i for i, name in enumerate(m.actions)}
    probs = {}
    for state, action in mapping.items():
        if state not in state_index:
            raise ConfigurationError("policy names unknown state %r" % state)
        if not isinstance(action, str) or action not in action_index:
            raise ConfigurationError("policy names unknown action %r" % action)
        probs[state_index[state]] = {action_index[action]: 1.0}
    return PositionalPolicy(probs)


def pick_seed(args, setup: EnvSetup) -> int:
    return args.seed if args.seed is not None else setup.seed


def cmd_simulate(args) -> int:
    setup = resolve_env(args.env)
    policy = resolve_policy(args.policy, setup)
    traces = collect_traces(
        setup.nmdp, policy, args.episodes, pick_seed(args, setup), setup.n_episode, jobs=args.jobs
    )
    save_traces(traces, args.out)
    print("wrote %d traces to %s" % (len(traces), args.out))
    return 0


def cmd_learn_passive(args) -> int:
    setup = resolve_env(args.env)
    cfg = PassiveConfig(
        n_check=args.n_check,
        n_episode=setup.n_episode,
        seed=pick_seed(args, setup),
        jobs=args.jobs,
    )
    if args.traces:
        result = learn_passive_from_traces(
            load_traces(args.traces), setup.nmdp.ap, cfg, alphabet=setup.nmdp.label_alphabet()
        )
    else:
        policy = resolve_policy(args.policy, setup)
        result = learn_passive(setup.nmdp, policy, args.episodes, cfg)
    save_prm(result.hypothesis, args.out)
    if args.dot:
        Path(args.dot).write_text(prm_to_dot(result.hypothesis), encoding="utf-8")
    if args.table:
        result.table.to_csv(args.table)
    print("learned %d-state machine from %d traces; wrote %s"
          % (result.hypothesis.n_states(), result.report.episodes, args.out))
    for note in result.report.notes:
        print(note)
    return 0


def cmd_learn_active(args) -> int:
    setup = resolve_env(args.env)
    try:
        n_check, n_query, n_stop, n_episode = (int(v) for v in args.budget.split(","))
    except ValueError as exc:
        raise ConfigurationError(
            "--budget must be n_check,n_query,n_stop,n_episode"
        ) from exc
    cfg = LearnerConfig(
        n_check=n_check,
        n_query=n_query,
        n_stop=n_stop,
        n_episode=n_episode,
        seed=pick_seed(args, setup),
    )
    result = learn_active(setup.nmdp, cfg)
    save_prm(result.hypothesis, args.out)
    if args.report:
        Path(args.report).write_text(result.report.render(), encoding="utf-8")
    print("learned %d-state machine in %d rounds; wrote %s"
          % (result.hypothesis.n_states(), len(result.report.rounds), args.out))
    return 0


def cmd_eval_encoding(args) -> int:
    hypothesis = load_prm(args.hypothesis)
    truth = load_prm(args.truth)
    report = encoding_distance(hypothesis, truth, args.max_len)
    print(report.distance)
    if report.bottom_count:
        # a Decimal prints every digit of a count that int -> str would refuse
        print("%s words fully absorbed by the failure state, e.g. %s"
              % (Decimal(report.bottom_count), word_str(report.first_bottom_word)))
    return 0


def cmd_mq(args) -> int:
    setup = resolve_env(args.env)
    word = parse_word(args.word)
    witness = brute_force_word_realizability(
        setup.nmdp, word, criterion=args.criterion, node_budget=args.node_budget
    )
    if witness is None:
        print("no witness")
        return 0
    actions = " ".join(setup.nmdp.actions[a] for a in witness.actions)
    states = " -> ".join(setup.nmdp.states[x] for x in witness.states)
    print("witness actions: %s" % actions)
    print("witness states: %s" % states)
    return 0


def cmd_export_dot(args) -> int:
    prm = load_prm(args.prm)
    Path(args.out).write_text(prm_to_dot(prm), encoding="utf-8")
    print("wrote %s" % args.out)
    return 0


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  It rejects arguments it does not know under
    its own usage line; left to the top-level parser, they would be
    reported under `prmlearn`'s."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: %s" % " ".join(extra))
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prmlearn", description="Learn and analyse probabilistic reward machines."
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add_common(p, jobs=False):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel rollout workers")

    p = sub.add_parser("simulate", help="roll out episodes and log the traces")
    p.add_argument("--env", required=True, help="environment config path or builtin name")
    p.add_argument("--policy", default="uniform", help="uniform, shortest-path, or a policy file")
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--out", required=True)
    add_common(p, jobs=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("learn-passive", help="learn a machine from policy rollouts")
    p.add_argument("--env", required=True)
    p.add_argument("--policy", default="shortest-path")
    p.add_argument("--traces", default=None, help="learn from a trace log instead of rolling out")
    p.add_argument("--episodes", type=int, default=10000)
    p.add_argument("--n-check", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--dot", default=None)
    p.add_argument("--table", default=None)
    add_common(p, jobs=True)
    p.set_defaults(func=cmd_learn_passive)

    p = sub.add_parser("learn-active", help="learn a machine by active queries")
    p.add_argument("--env", required=True)
    p.add_argument("--budget", required=True, help="n_check,n_query,n_stop,n_episode")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    add_common(p)
    p.set_defaults(func=cmd_learn_active)

    p = sub.add_parser("eval-encoding", help="worst-case distance between two machines")
    p.add_argument("--hypothesis", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=cmd_eval_encoding)

    p = sub.add_parser("mq", help="brute-force membership query oracle")
    p.add_argument("--env", required=True)
    p.add_argument("--word", required=True, help='";"-separated labels, "~" for the empty label')
    p.add_argument("--criterion", choices=["label_only", "positive_reward"], default="label_only")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_mq)

    p = sub.add_parser("export-dot", help="render a machine file to DOT")
    p.add_argument("--prm", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ConfigurationError, MapParseError, ValueError, OSError, yaml.YAMLError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
