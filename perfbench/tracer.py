"""In-memory span recorder that times sparsefourier layers from outside.

A span is one call: its name, the index of the span that was open when it
started (its parent, -1 for none), the trial seed it belongs to, its start
and end on the perf_counter clock, and an optional work count (points read,
terms evaluated, entries kept, shift attempts).

`Tracer.call` records a span around a call made by the benchmark itself.
`patched` replaces the public functions of each layer by recording wrappers
for the length of a `with` block. A wrapper has to sit where the caller looks
the name up: `recovery` imports `reduce_h_rounds` by name, so the wrapper goes
on `sparsefourier.recovery.reduce_h_rounds`; one put on
`sparsefourier.reduction.reduce_h_rounds` would never be called.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

NAME, PARENT, TRIAL, START, END, WORK = range(6)


class Tracer:
    """Collects spans in a list; nothing is written until the caller asks."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial = -1
        self._open: list[int] = []

    def call(self, name, fn, *args, work=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; work(args, out) sets its count."""
        span = [name, self._open[-1] if self._open else -1, self.trial, perf_counter(), 0.0, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._open.pop()
        if work is not None:
            span[WORK] = work(args, out)
        return out

    def wrap(self, name, fn, work=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, work=work, **kwargs)

        return traced

    def totals(self, first: int = 0) -> dict:
        """Per span name: calls, total seconds, self seconds and summed work.

        Covers the spans from index `first` on. Self time is a span's
        duration minus the durations of its direct children; calls are
        sequential, so children never overlap.
        """
        child_s = defaultdict(float)
        for s in self.spans[first:]:
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += s[END] - s[START]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        for i in range(first, len(self.spans)):
            s = self.spans[i]
            t = out[s[NAME]]
            dur = s[END] - s[START]
            t["calls"] += 1
            t["total_s"] += dur
            t["self_s"] += dur - child_s[i]
            t["work"] += s[WORK]
        return out


def layer_targets(sf) -> list:
    """(owner, attribute, span name, work) for every wrapped layer entry point.

    `sf` holds the imported sparsefourier modules as attributes. The owner is
    the module or class through which the caller reaches the function.
    """
    return [
        (sf.recovery, "reduce_h_rounds", "reduction.reduce_h_rounds", None),
        (sf.reduction, "linfinity_reduce", "reduction.linfinity_reduce", lambda a, out: len(out.z)),
        (sf.reduction, "sparse_eval_time", "dft.sparse_eval_time", lambda a, out: len(a[2]) * len(a[1])),
        (sf.recovery, "draw_good_shift", "grids.draw_good_shift", lambda a, out: out[1]),
        (sf.recovery, "project", "grids.project", None),
        (sf.sampling.AuditedSignal, "read", "sampling.read", lambda a, out: len(out)),
        (sf.sampling.SampleBundle, "draw", "sampling.bundle_draw", None),
        (sf.signals, "forward", "dft.forward", None),
        (sf.signals, "inverse", "dft.inverse", None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Install recording wrappers on every target, restore them on exit."""
    saved = []
    try:
        for owner, attr, name, work in targets:
            # vars() keeps the descriptor (a classmethod stays a classmethod)
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), work))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
