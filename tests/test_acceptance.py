"""The nine acceptance criteria.

Each test prints a single PASS/FAIL line (visible because pytest runs
with capture disabled) and then asserts the same condition.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from prmlearn import (
    Alphabet,
    LearnerConfig,
    ObservationTable,
    PassiveConfig,
    QTable,
    build_hypothesis,
    collect_traces,
    diff,
    encoding_distance,
    hoeffding_threshold,
    learn_active,
    learn_passive,
    load_env_config,
    membership_reward_machine,
    product,
    shortest_path_policy,
)
from prmlearn.active import teacher_query
from prmlearn.table import repair_on_frozen_data
from prmlearn.verify import brute_force_reward_distribution

from conftest import C, O, STAR, free_nmdp, random_nmdp, random_prm, rollout_greedy

from test_cli import ASSETS, run_cli

OFFICE = str(ASSETS / "office.yaml")
PATROL = str(ASSETS / "patrol.yaml")


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("ACCEPTANCE %d %s: %s%s" % (number, name, status, suffix), flush=True)
    assert ok, "acceptance criterion %d (%s) failed%s" % (number, name, suffix)


def test_acceptance_1_passive_reconstruction():
    setup = load_env_config(OFFICE)
    policy = shortest_path_policy(setup.gridmap, setup.nmdp)
    cfg = PassiveConfig(
        n_check=100,
        n_episode=setup.n_episode,
        seed=setup.seed,
    )
    start = time.monotonic()
    result = learn_passive(setup.nmdp, policy, episodes=10 ** 4, cfg=cfg)
    elapsed = time.monotonic() - start
    dist = result.hypothesis.next_reward_distribution((C,), O)
    p = dist.get(1.0, 0.0)
    labels_used = {label for _, label in result.hypothesis.tau}
    observed = {label for word in result.table.t for label in word}
    stray = labels_used - observed
    ok = abs(p - 0.9) <= 0.02 and STAR not in labels_used and not stray and elapsed < 30
    report(
        1,
        "passive reconstruction",
        ok,
        "p=%.4f stray_labels=%s %.1fs" % (p, sorted(map(str, stray)), elapsed),
    )


def test_acceptance_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n_states = int(rng.integers(1, 6))
        n_props = int(rng.integers(1, 3))
        n_rewards = int(rng.integers(1, 4))
        props = ["a", "b"][:n_props]
        rewards = [0.0, 1.0, 2.0][:n_rewards]
        prm = random_prm(rng, n_states, props, rewards)
        m = free_nmdp(prm)
        labels = prm.ap.labels()
        length = int(rng.integers(1, 7))
        w = tuple(labels[int(rng.integers(0, len(labels)))] for _ in range(length))
        oracle = brute_force_reward_distribution(m, w)
        matrix = prm.next_reward_distribution(w[:-1], w[-1])
        keys = set(oracle) | set(matrix)
        gap = max(abs(oracle.get(k, 0.0) - matrix.get(k, 0.0)) for k in keys)
        worst = max(worst, gap)
    ok = worst <= 1e-12
    report(2, "oracle equivalence", ok, "worst gap %.2e over 100 machines" % worst)


def test_acceptance_3_active_deterministic_patrol():
    setup = load_env_config(PATROL)
    start = time.monotonic()
    good = 0
    distances = []
    for seed in range(10):
        cfg = LearnerConfig(n_check=100, n_query=300, n_stop=30, n_episode=50, seed=seed)
        result = learn_active(setup.nmdp, cfg)
        d = encoding_distance(result.hypothesis, setup.truth, max_len=5).distance
        distances.append(d)
        good += d <= 0.05
    elapsed = time.monotonic() - start
    ok = good >= 9 and elapsed < 60
    report(
        3,
        "active learning, deterministic rewards",
        ok,
        "%d/10 seeds, max dist %.4f, %.1fs" % (good, max(distances), elapsed),
    )


def test_acceptance_4_active_stochastic_office():
    setup = load_env_config(OFFICE)
    start = time.monotonic()
    good = 0
    splits = []
    for seed in range(10):
        cfg = LearnerConfig(n_check=200, n_query=500, n_stop=50, n_episode=100, seed=seed)
        result = learn_active(setup.nmdp, cfg)
        try:
            p = result.hypothesis.next_reward_distribution((C,), O).get(1.0, 0.0)
        except ValueError:
            p = float("nan")
        splits.append(p)
        good += abs(p - 0.9) <= 0.05
    elapsed = time.monotonic() - start
    ok = good >= 8 and elapsed < 300
    report(
        4,
        "active learning, stochastic rewards",
        ok,
        "%d/10 seeds, splits %s, %.1fs"
        % (good, " ".join("%.3f" % s for s in splits), elapsed),
    )


def test_acceptance_5_hoeffding_diff_suite():
    threshold = hoeffding_threshold(100, 100, 200)
    threshold_ok = abs(threshold - 0.576) <= 1e-3

    def freq_fn(mapping):
        return lambda w: Counter(mapping.get(w, {}))

    ex1 = diff(freq_fn({"s": {1.0: 100}, "t": {0.0: 100}}), "s", "t", 200) is True
    ex2 = diff(freq_fn({"s": {}, "t": {0.0: 100}}), "s", "t", 200) is False
    ex3 = diff(freq_fn({"s": {0.0: 50, 1.0: 50}, "t": {0.0: 50, 1.0: 50}}), "s", "t", 200) is False

    rng = np.random.default_rng(5)
    rewards = [0.0, 1.0, 2.0]
    property_ok = True
    for _ in range(10 ** 4):
        fs = {r: int(rng.integers(0, 30)) for r in rewards}
        ft = {r: int(rng.integers(0, 30)) for r in rewards}
        if rng.random() < 0.1:
            fs = {r: 0 for r in rewards}
        m_total = int(rng.integers(1, 10 ** 4))
        forward = diff(freq_fn({"s": fs, "t": ft}), "s", "t", m_total)
        backward = diff(freq_fn({"s": ft, "t": fs}), "s", "t", m_total)
        if forward != backward:
            property_ok = False
            break
        if (sum(fs.values()) == 0 or sum(ft.values()) == 0) and forward:
            property_ok = False
            break
    ok = threshold_ok and ex1 and ex2 and ex3 and property_ok
    report(
        5,
        "Hoeffding Diff unit suite",
        ok,
        "threshold=%.4f examples=%s property=%s"
        % (threshold, (ex1, ex2, ex3), property_ok),
    )


def random_closed_consistent_table(rng):
    """A table populated from random traces, then repaired on frozen data."""
    props = ["a", "b"][: int(rng.integers(1, 3))]
    ap = Alphabet(props)
    labels = ap.labels()
    rewards = [0.0, 1.0, 2.5][: int(rng.integers(1, 4))]
    table = ObservationTable(ap, labels)
    n_traces = int(rng.integers(5, 40))
    for _ in range(n_traces):
        trace = []
        for _ in range(int(rng.integers(1, 4))):
            label = labels[int(rng.integers(0, len(labels)))]
            reward = rewards[int(rng.integers(0, len(rewards)))]
            trace.append((label, reward))
        table.record(trace)
    # seed S with a few sampled prefixes so the classes are not all vacuous
    prefixes = sorted(table.t, key=lambda w: (len(w), str(w)))
    for w in prefixes[: int(rng.integers(0, 6))]:
        table.add_state(w)
    repair_on_frozen_data(table)
    return table


def test_acceptance_6_hypothesis_well_formedness():
    rng = np.random.default_rng(6)
    ok = True
    detail = ""
    for i in range(10 ** 3):
        table = random_closed_consistent_table(rng)
        n_check = int(rng.integers(1, 10))
        h = build_hypothesis(table, n_check)
        # totality: every (state, label) pair resolves to a row summing to 1
        for y in range(h.n_states()):
            for label in h.ap.labels():
                vec = h.successor_vector(y, label)
                if abs(float(vec.sum()) - 1.0) > 1e-9 or np.any(vec < 0):
                    ok, detail = False, "row sum at table %d state %d" % (i, y)
                    break
        if not h.is_total():
            ok, detail = False, "machine %d not total" % i
        # every state reachable from the initial state
        reachable = {h.init}
        frontier = [h.init]
        while frontier:
            y = frontier.pop()
            for label in h.ap.labels():
                for j in np.flatnonzero(h.successor_vector(y, label)):
                    j = int(j)
                    if j not in reachable:
                        reachable.add(j)
                        frontier.append(j)
        if reachable != set(range(h.n_states())):
            ok, detail = False, "unreachable states in machine %d" % i
        # edge rewards live in gamma
        if any(float(r) not in h.gamma for r in h.rho.values()):
            ok, detail = False, "rho outside gamma in machine %d" % i
        if not ok:
            break
    report(6, "hypothesis well-formedness", ok, detail or "1000 tables checked")


def test_acceptance_7_product_factorization():
    rng = np.random.default_rng(7)
    ok = True
    detail = "100 exact products"
    for i in range(100):
        n_x = int(rng.integers(2, 5))
        n_a = int(rng.integers(1, 4))
        props = ["a", "b"][: int(rng.integers(1, 3))]
        m = random_nmdp(rng, n_states=n_x, n_actions=n_a, props=props, dyadic=True)
        h = random_prm(rng, int(rng.integers(1, 5)), props, [0.0, 1.0], dyadic=True)
        prod = product(m, h)
        idx = {pair: k for k, pair in enumerate(prod.pairs)}
        n_y = h.n_states()
        for (x, a), vec in m.p.items():
            for y in range(n_y):
                i_state = idx[(x, y)]
                row = prod.mdp.p[(i_state, a)]
                for x_next in range(n_x):
                    marginal = math.fsum(
                        float(row[idx[(x_next, y_next)]]) for y_next in range(n_y)
                    )
                    if marginal != float(vec[x_next]):
                        ok = False
                        detail = "pair %d mismatch: %r != %r" % (i, marginal, float(vec[x_next]))
                        break
        if not ok:
            break
    report(7, "product-MDP factorization", ok, detail)


def test_acceptance_8_membership_priming():
    setup = load_env_config(OFFICE)
    zeta = (C, O)
    machine = membership_reward_machine(setup.nmdp.ap, zeta)
    cfg = LearnerConfig(n_check=10 ** 9, n_query=500, n_stop=1, n_episode=setup.n_episode)
    good = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        q = QTable()
        for _ in range(cfg.n_query):
            teacher_query(q, setup.nmdp, machine, "membership", cfg, rng)
        _, total = rollout_greedy(q, setup.nmdp, machine, cfg.n_episode, rng)
        good += total == 2.0
    ok = good >= 8
    report(8, "membership priming", ok, "%d/10 seeds reach reward 2" % good)


def test_acceptance_9_cli_determinism(tmp_path):
    import shutil

    for name in ("patrol.yaml", "patrol.map", "patrol_truth.prm"):
        shutil.copy(ASSETS / name, tmp_path / name)
    env = tmp_path / "patrol.yaml"

    def twice(args, outputs):
        blobs = []
        for run in range(2):
            for out in outputs:
                out.unlink(missing_ok=True)
            code = run_cli(args)
            assert code == 0
            blobs.append(tuple(out.read_bytes() for out in outputs))
        return blobs[0] == blobs[1]

    traces = tmp_path / "traces.log"
    results = {}
    results["simulate"] = twice(
        ["simulate", "--env", env, "--episodes", "50", "--out", traces, "--seed", "11"],
        [traces],
    )
    passive_out, passive_dot, passive_csv = (
        tmp_path / "p.prm", tmp_path / "p.dot", tmp_path / "p.csv",
    )
    results["learn-passive"] = twice(
        ["learn-passive", "--env", env, "--policy", "uniform", "--episodes", "300",
         "--n-check", "50", "--out", passive_out, "--dot", passive_dot,
         "--table", passive_csv, "--seed", "11"],
        [passive_out, passive_dot, passive_csv],
    )
    active_out, active_report = tmp_path / "a.prm", tmp_path / "a.report"
    results["learn-active"] = twice(
        ["learn-active", "--env", env, "--budget", "30,100,10,20",
         "--out", active_out, "--report", active_report, "--seed", "11"],
        [active_out, active_report],
    )
    dot_out = tmp_path / "t.dot"
    results["export-dot"] = twice(
        ["export-dot", "--prm", ASSETS / "coffee_truth.prm", "--out", dot_out],
        [dot_out],
    )
    ok = all(results.values())
    report(9, "CLI determinism", ok, str(results))
