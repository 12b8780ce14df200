"""prmlearn benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload active-office --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  With `--trace 0` the run times set-up and a closed
loop of ops (one caller; each op starts when the previous one returns).
With `--trace 1` it times the loop untraced, measures the tracemalloc peak
of an op, times the loop again with wrappers around the library's public
functions, and reports per-layer counts and times.  Set-up, memory and
traced passes run in child processes, so neither wrappers nor tracemalloc
touch the timed pass.  Every op's output is checked; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and the `metrics`
that BENCHMARK.json lists.
See bench/README.md for the workloads and the metrics.
"""

import os

# one BLAS/OpenMP thread for this process and its children; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


def import_library():
    """Import prmlearn from this checkout's src/ and return the workloads
    module; exits with an error when the checkout has no library."""
    if not (SRC / "prmlearn" / "__init__.py").is_file():
        raise SystemExit("bench: no prmlearn package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import prmlearn

    if Path(prmlearn.__file__).resolve().parent != SRC / "prmlearn":
        raise SystemExit("bench: prmlearn was imported from %s, not %s" % (prmlearn.__file__, SRC))
    import workloads

    return workloads


# -- statistics ------------------------------------------------------------------


def tail(values):
    """(value, percentile) of the highest percentile with at least ten ops
    beyond it; (None, None) with fewer than 11 ops, which have no such
    percentile."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None, None
    return xs[n - 11], math.floor(100 * (n - 10) / n)


def metric(value, unit, better):
    return {"value": value, "unit": unit, "better": better}


# -- run environment ----------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "collect_traces_jobs": 1,
    }


# -- passes ---------------------------------------------------------------------------


class Pass:
    """Closed-loop rounds over a fixed batch of op seeds, with per-op checks
    and a determinism check against every earlier op of the same seed.
    With a tracer, spans are recorded during the library call only, and
    each op's own `table.diff` calls join its fingerprint.  With a pacer,
    each op's time is also corrected for the host's pace (see pace.py)."""

    def __init__(self, workload, ctx, seeds, tracer=None, pacer=None):
        self.workload, self.ctx, self.seeds = workload, ctx, seeds
        self.tracer, self.pacer = tracer, pacer
        self.fingerprints = {}   # op seed -> fingerprint
        self.outcomes = {}       # op seed -> first outcome seen
        self.op_s, self.round_s, self.work = [], [], 0   # wall times
        self.paced_op_s, self.paced_round_s, self.ref_s = [], [], []
        self.attempted, self.failed, self.failures = 0, 0, []

    def op(self, seed, counted=True):
        w, tracer, pacer = self.workload, self.tracer, self.pacer
        if tracer is not None:
            diff_calls = tracer.spans["table.diff"][0]
            tracer.recording = True
        if pacer is not None:
            pacer.start()
        start = time.perf_counter()
        try:
            try:
                result = w.call(self.ctx, seed)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.recording = False
                if pacer is not None:
                    elapsed, ref = pacer.stop()
            outcome = w.outcome(self.ctx, result)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            elapsed, outcome = None, None
            problems = ["raised %s: %s" % (type(exc).__name__, exc)]
        else:
            problems = list(outcome.failures)
            if tracer is not None:
                outcome.counters["table.diff.calls"] = tracer.spans["table.diff"][0] - diff_calls
            fp = outcome.fingerprint()
            first = self.fingerprints.setdefault(seed, fp)
            if fp != first:
                problems.append("not deterministic: %r then %r" % (first, fp))
            self.outcomes.setdefault(seed, outcome)
        if counted:
            self.attempted += 1
            self.failed += bool(problems)
            if elapsed is not None:
                self.op_s.append(elapsed)
                self.work += outcome.work
                if pacer is not None:
                    self.paced_op_s.append(pacer.corrected(elapsed, ref))
                    self.ref_s.append(ref)
        self.failures.extend("op seed %d: %s" % (seed, p) for p in problems)

    def run(self, seconds, warmup=True):
        """One uncounted warm-up op, then whole rounds for as long as the
        next one, at the median pace so far, ends within `seconds` (at
        least one round)."""
        if warmup:
            self.op(self.seeds[0], counted=False)
        gc.collect()
        start = time.perf_counter()
        while (not self.round_s or time.perf_counter() - start
               + statistics.median(self.round_s) <= seconds):
            round_start, first = time.perf_counter(), len(self.paced_op_s)
            for seed in self.seeds:
                self.op(seed)
            self.round_s.append(time.perf_counter() - round_start)
            if self.pacer is not None:
                self.paced_round_s.append(sum(self.paced_op_s[first:]))
        return self


def batch_seeds(workloads, w, args) -> list:
    """The op seeds of a run.  Traced runs use the first half of the batch,
    so that their three passes end in time."""
    seeds = workloads.op_seeds(args.seed, w.batch)
    return seeds[: (len(seeds) + 1) // 2] if args.trace else seeds


def prepare(args):
    workloads = import_library()
    w = workloads.WORKLOADS[args.workload]
    seeds = batch_seeds(workloads, w, args)
    return w, seeds, w.setup(seeds)


def child(args) -> dict:
    if args.child == "setup":
        from pace import Pacer

        pacer = Pacer(matrices=False)
        pacer.start()
        prepare(args)
        wall, ref = pacer.stop()
        return {"setup_s": pacer.corrected(wall, ref), "wall_s": wall}
    if args.child == "memory":
        return memory_pass(args)
    return traced_pass(args)


def memory_pass(args) -> dict:
    import tracemalloc

    w, seeds, ctx = prepare(args)
    measured = Pass(w, ctx, seeds)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        measured.op(seeds[0], counted=False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"peak_mb": peak / 1e6, "fingerprints": measured.fingerprints, "failures": measured.failures}


def traced_pass(args) -> dict:
    w, seeds, ctx = prepare(args)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        warmup = Pass(w, ctx, seeds)
        warmup.op(seeds[0], counted=False)   # with the wrappers in place, not recorded
        traced = Pass(w, ctx, seeds, tracer).run(args.seconds / 2, warmup=False)
    finally:
        not_restored = tracer.restore()
    return {
        "spans": tracer.spans,
        "mq_prefiltered": tracer.mq_prefiltered,
        "mq_filled": tracer.mq_filled,
        "round_s": traced.round_s,
        "counters": {seed: o.counters for seed, o in traced.outcomes.items()},
        "fingerprints": traced.fingerprints,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "failures": warmup.failures + traced.failures + ["not restored: %s" % a for a in not_restored],
    }


def spawn(kind, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("%s pass failed:\n%s" % (kind, proc.stderr))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # JSON turns the op-seed keys into strings
    for key in ("fingerprints", "counters"):
        if key in out:
            out[key] = {int(k): v for k, v in out[key].items()}
    return out


def cross_check(name, fingerprints, timed, drop=()):
    """Fingerprints from another process must match the timed pass."""
    problems = []
    for seed, fp in fingerprints.items():
        fp = {k: v for k, v in fp.items() if k not in drop}
        if seed in timed.fingerprints and fp != timed.fingerprints[seed]:
            problems.append("%s pass op seed %d differs: %r vs %r" % (name, seed, fp, timed.fingerprints[seed]))
    return problems


# -- reports -----------------------------------------------------------------------------


def end_to_end(w, timed, setup_runs) -> dict:
    """Op times are pace-corrected (see pace.py); the `_wall` twins are
    the same statistics of the uncorrected wall times."""
    tail_s, pct = tail(timed.paced_op_s)
    batch = [timed.outcomes[s] for s in timed.seeds if s in timed.outcomes]
    out = {
        "setup_s": metric(statistics.median(r["setup_s"] for r in setup_runs), "s", "lower"),
        "setup_s_wall": metric(statistics.median(r["wall_s"] for r in setup_runs), "s", "lower"),
        "wall_s": metric(statistics.median(timed.paced_round_s), "s", "lower"),
        "op_s_p50": metric(statistics.median(timed.paced_op_s), "s", "lower"),
        "op_s_tail": dict(metric(tail_s, "s", "lower"), percentile=pct, ops=len(timed.paced_op_s)),
        w.work_unit: metric(timed.work / sum(timed.paced_op_s), "1/s", "higher"),
        "wall_s_wall": metric(statistics.median(timed.round_s), "s", "lower"),
        "op_s_p50_wall": metric(statistics.median(timed.op_s), "s", "lower"),
        "pace_ref_ms": metric(1e3 * statistics.median(timed.ref_s), "ms", "lower"),
        "ops_failed": metric(timed.failed, "count", "lower"),
        "ops_attempted": {"value": timed.attempted, "unit": "count"},
    }
    if "env_steps" in batch[0].counters:
        out["env_steps"] = metric(sum(o.counters["env_steps"] for o in batch), "count", "lower")
        out["episodes"] = metric(sum(o.counters["episodes"] for o in batch), "count", "lower")
    if batch[0].split_err is not None:
        out["split_err"] = metric(statistics.median(o.split_err for o in batch), "prob", "lower")
        out["split_err_max"] = metric(max(o.split_err for o in batch), "prob", "lower")
    return out


def per_layer(traced, untraced, memory) -> dict:
    """Per-op means over the traced ops; times in s per op unless `us`."""
    ops = traced["attempted"]
    spans = traced["spans"]
    counters = list(traced["counters"].values())

    def calls(name):
        return spans[name][0] / ops

    def incl(name):
        return spans[name][1] / ops

    def self_s(name):
        return spans[name][2] / ops

    def per_call_us(name):
        return 1e6 * spans[name][1] / spans[name][0] if spans[name][0] else 0.0

    def fact(key):
        return statistics.fmean(c.get(key, 0) for c in counters)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = fact("env_steps")
    words = fact("verify.words_checked")
    mq_calls = spans["active.membership_query"][0]
    out = {
        "environment.step.calls": calls("environment.step"),
        "environment.step.us": per_call_us("environment.step"),
        "environment.step.self_s": self_s("environment.step"),
        "environment.collect_traces.s": incl("environment.collect_traces"),
        "environment.word_realizable.calls": calls("environment.word_realizable"),
        "environment.word_realizable.s": incl("environment.word_realizable"),
        "machine.sample_index.calls": calls("machine.sample_index"),
        "machine.sample_index.us": per_call_us("machine.sample_index"),
    }
    for name in ("label_matrix", "word_matrix", "next_reward_distribution"):
        out["machine.%s.calls" % name] = calls("machine." + name)
        out["machine.%s.self_s" % name] = self_s("machine." + name)
    out.update({
        "active.teacher_query.calls": calls("active.teacher_query"),
        "active.teacher_query.self_s": self_s("active.teacher_query"),
        "active.membership_query.calls": calls("active.membership_query"),
        "active.membership_query.s": incl("active.membership_query"),
        "active.mq.episodes": fact("active.mq.episodes"),
        "active.mq.prefiltered": traced["mq_prefiltered"] / ops,
        "active.mq.filled_ratio": ratio(traced["mq_filled"], mq_calls),
        "active.equivalence_query.calls": calls("active.equivalence_query"),
        "active.equivalence_query.s": incl("active.equivalence_query"),
        "active.eq.episodes": fact("active.eq.episodes"),
        "active.eq.ce_ratio": ratio(fact("active.counterexamples"), fact("active.rounds")),
        "active.is_counterexample.calls": calls("active.is_counterexample"),
        "active.is_counterexample.self_s": self_s("active.is_counterexample"),
        "active.rounds": fact("active.rounds"),
        "table.record.calls": calls("table.record"),
        "table.record.steps": steps,
        "table.record.us_per_step": ratio(1e6 * incl("table.record"), steps),
        "table.words": fact("table.words"),
        "table.S": fact("table.S"),
        "table.E": fact("table.E"),
        "table.diff.calls": calls("table.diff"),
        "table.diff.self_s": self_s("table.diff"),
        "table.is_closed.calls": calls("table.is_closed"),
        "table.is_closed.s": incl("table.is_closed"),
        "table.is_consistent.calls": calls("table.is_consistent"),
        "table.is_consistent.s": incl("table.is_consistent"),
        "table.build_hypothesis.calls": calls("table.build_hypothesis"),
        "table.build_hypothesis.self_s": self_s("table.build_hypothesis"),
        "table.repair_on_frozen_data.s": incl("table.repair_on_frozen_data"),
        "passive.learn_passive_from_traces.self_s": self_s("passive.learn_passive_from_traces"),
        "passive.dropped_suffixes": fact("passive.dropped_suffixes"),
        "verify.encoding_distance.s": incl("verify.encoding_distance"),
        "verify.words_checked": words,
        "verify.bottom_words": fact("verify.bottom_words"),
        "verify.us_per_word": ratio(1e6 * incl("verify.encoding_distance"), words),
        "trace.overhead_ratio": statistics.median(traced["round_s"]) / statistics.median(untraced.round_s),
        "peak_mb": memory["peak_mb"],
    })
    return out


def unit_of(name) -> str:
    if name == "peak_mb":
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".us") or name.endswith("us_per_step") or name.endswith("us_per_word"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def last_line_metrics(report_metrics, listed) -> dict:
    """The metrics BENCHMARK.json lists, in its units, from the report."""
    out = {}
    for m in listed:
        got = report_metrics[m["name"]]
        if got["unit"] != m["unit"]:
            raise RuntimeError("%s is in %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("bench: unknown workload %r; choose from %s"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
    w = workloads.WORKLOADS[args.workload]
    seeds = batch_seeds(workloads, w, args)
    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "op_seeds": seeds, "environment": run_environment()}

    if args.trace:
        timed = Pass(w, w.setup(seeds), seeds).run(args.seconds / 2)
        memory = spawn("memory", args)
        traced = spawn("traced", args)
        problems = timed.failures + memory["failures"] + traced["failures"]
        if w.split_gate:
            problems += workloads.split_gate_problems(timed.outcomes)
        problems += cross_check("memory", memory["fingerprints"], timed)
        problems += cross_check("traced", traced["fingerprints"], timed, drop=("table.diff.calls",))
        layers = per_layer(traced, timed, memory)
        # every env step of a learner is recorded in its table
        if layers["environment.step.calls"] != layers["table.record.steps"]:
            problems.append("environment.step calls %r != recorded steps %r"
                            % (layers["environment.step.calls"], layers["table.record.steps"]))
        report["deterministic"] = traced["fingerprints"]
        report["per_layer"] = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        metrics = last_line_metrics(report["per_layer"], spec["per_layer"])
        attempted = timed.attempted + traced["attempted"]
        failed = timed.failed + traced["failed"]
    else:
        setup_runs = [spawn("setup", args) for _ in range(SETUP_REPEATS)]
        from pace import Pacer

        timed = Pass(w, w.setup(seeds), seeds, pacer=Pacer()).run(args.seconds)
        problems = timed.failures
        if w.split_gate:
            problems += workloads.split_gate_problems(timed.outcomes)
        report["deterministic"] = timed.fingerprints
        report["end_to_end"] = end_to_end(w, timed, setup_runs)
        report["setup_runs_s"] = setup_runs
        report["round_s"] = timed.round_s
        metrics = last_line_metrics(report["end_to_end"], spec["end_to_end"])
        attempted, failed = timed.attempted, timed.failed

    report["problems"] = problems
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "memory", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


if __name__ == "__main__":
    ARGS = parse_args()
    if ARGS.child:
        print(json.dumps(child(ARGS)))
        sys.exit(0)
    sys.exit(main(ARGS))
