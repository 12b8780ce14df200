"""Aggregated spans around calls into prmlearn's public functions.

Wrappers are installed on module globals and class attributes at run time
and removed afterwards; no source file changes.  A span keeps a call
count, inclusive time and self time (inclusive time minus the time of
wrapped calls made inside it, tracked with a stack).  Sub-microsecond
calls such as `QTable.get` and `ObservationTable.freq` are not wrapped:
their counts are read off the result objects instead.
"""

from __future__ import annotations

import time

from prmlearn import active, environment, machine, passive, table, verify

# (owner, attribute, span name).  The same function looked up from two
# modules feeds one span.
TARGETS = [
    (active, "learn_active", "active.learn_active"),
    (active, "teacher_query", "active.teacher_query"),
    (active, "membership_query", "active.membership_query"),
    (active, "equivalence_query", "active.equivalence_query"),
    (active, "is_counterexample", "active.is_counterexample"),
    (active, "step", "environment.step"),
    (active, "word_realizable", "environment.word_realizable"),
    (active, "sample_index", "machine.sample_index"),
    (active, "build_hypothesis", "table.build_hypothesis"),
    (active, "diff_against_distribution", "table.diff_against_distribution"),
    (environment, "step", "environment.step"),
    (environment, "sample_index", "machine.sample_index"),
    (table, "diff", "table.diff"),
    (passive, "learn_passive_from_traces", "passive.learn_passive_from_traces"),
    (passive, "collect_traces", "environment.collect_traces"),
    (passive, "build_hypothesis", "table.build_hypothesis"),
    (passive, "repair_on_frozen_data", "table.repair_on_frozen_data"),
    (verify, "encoding_distance", "verify.encoding_distance"),
    (table.ObservationTable, "record", "table.record"),
    (table.ObservationTable, "is_closed", "table.is_closed"),
    (table.ObservationTable, "is_consistent", "table.is_consistent"),
    (machine.Prm, "label_matrix", "machine.label_matrix"),
    (machine.Prm, "word_matrix", "machine.word_matrix"),
    (machine.Prm, "next_reward_distribution", "machine.next_reward_distribution"),
]


class Tracer:
    """Install with `install()`, record only while `recording` is set, and
    take the wrappers out with `restore()`."""

    def __init__(self):
        self.spans = {}          # name -> [calls, inclusive s, self s]
        self.recording = False
        self.mq_prefiltered = 0  # membership queries that ran no episode
        self.mq_filled = 0       # ... that ran episodes and reached n_check
        self._stack = []         # wrapped-children time of each open span
        self._installed = []     # (owner, attribute, original)

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            after = self._count_mq if name == "active.membership_query" else None
            setattr(owner, attr, self._wrap(original, name, after))
            self._installed.append((owner, attr, original))

    def restore(self) -> list:
        """Put every original back; returns the attributes that did not
        end up as their original object."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        wrong = [
            "%s.%s" % (owner.__name__, attr)
            for owner, attr, original in self._installed
            if vars(owner)[attr] is not original
        ]
        self._installed.clear()
        return wrong

    def _wrap(self, fn, name, after):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result, args)
            return result

        return traced

    def _count_mq(self, episodes, args):
        tbl, zeta, cfg = args[0], args[1], args[4]
        if episodes == 0:
            self.mq_prefiltered += 1
        elif tbl.sample_count(zeta) >= cfg.n_check:
            self.mq_filled += 1
