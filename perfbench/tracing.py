"""Spans and counters around the public functions of each pskrx layer.

A wrapper is installed at the module attribute through which each caller
looks a function up (``pskrx.cli.estimate_error``,
``pskrx.optimize.cyclic_error_probability``, ...).  Wrappers live only
for the duration of one traced operation, so untraced operations and
the benchmark's own checks run the unmodified program.  ``core``,
``strategy`` and ``errors`` run inside these calls and get no spans of
their own; the trial engine's worker processes are not traced.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps

import pskrx.bench
import pskrx.cli
import pskrx.mc
import pskrx.optimize


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int


@dataclass
class Tracer:
    """Spans and counts of one run, kept in memory until the run ends."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[tuple[int, str], float] = field(default_factory=lambda: defaultdict(float))
    analytic_m_max: list[int] = field(default_factory=list)
    op: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def layer_times(self, op: int) -> dict[str, tuple[float, float]]:
        """(busy seconds, self seconds) per span name within one operation.

        Self time is a span's duration minus the time its direct child
        spans cover; the calls are sequential, so children never overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.op == op and s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i, s in enumerate(self.spans):
            if s.op == op:
                out[s.name][0] += s.end - s.start
                out[s.name][1] += s.end - s.start - child_time[i]
        return {name: (busy, own) for name, (busy, own) in out.items()}

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _WRAPPED]
        pool_cls = pskrx.mc.ProcessPoolExecutor

        def counted_pool(*args, **kwargs):
            self.counts[self.op, "mc.pool_starts"] += 1
            return pool_cls(*args, **kwargs)

        try:
            for (module, attr, name, record), (_, _, fn) in zip(_WRAPPED, saved):
                setattr(module, attr, _wrap(self, name, fn, record))
            pskrx.mc.ProcessPoolExecutor = counted_pool
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            pskrx.mc.ProcessPoolExecutor = pool_cls

    def op_metrics(self, op: int, bytes_out: int) -> dict[str, float]:
        """Per-layer totals of one traced operation."""
        times = self.layer_times(op)
        count = lambda key: self.counts.get((op, key), 0.0)
        busy = lambda name: times.get(name, (0.0, 0.0))[0]
        own = lambda name: times.get(name, (0.0, 0.0))[1]
        return {
            "analytic.calls": count("analytic.calls"),
            "analytic.busy_s": busy("analytic"),
            "optimize.analytic.evaluations": count("optimize.analytic.evaluations"),
            "optimize.analytic.self_s": own("optimize.analytic"),
            "optimize.mc.evaluations": count("optimize.mc.evaluations"),
            "optimize.mc.self_s": own("optimize.mc"),
            "mc.pool_starts": count("mc.pool_starts"),
            "mc.calls": count("mc.calls"),
            "mc.trials": count("mc.trials"),
            "mc.busy_s": busy("mc"),
            "mc.records_s": busy("mc.records"),
            "bench.calls": count("bench.calls"),
            "bench.busy_s": busy("bench"),
            "cli.self_s": own("cli"),
            "cli.bytes_out": float(bytes_out),
            "trials": count("mc.trials") + count("records.trials"),
        }

    def analytic_call_ms(self) -> list[float]:
        return [1e3 * (s.end - s.start) for s in self.spans if s.name == "analytic"]

    def dump(self) -> list[dict]:
        return [s.__dict__ for s in self.spans]


def _count(key: str, value=lambda result: 1):
    def record(tracer: Tracer, result) -> None:
        tracer.counts[tracer.op, key] += value(result)

    return record


def _mc(tracer: Tracer, result) -> None:
    tracer.counts[tracer.op, "mc.calls"] += 1
    tracer.counts[tracer.op, "mc.trials"] += result.trials


def _analytic(tracer: Tracer, result) -> None:
    tracer.counts[tracer.op, "analytic.calls"] += 1
    tracer.analytic_m_max.append(result.m_max)


# (module, attribute, span name, what to count from the result)
_WRAPPED = (
    (pskrx.cli, "optimize_beta_analytic", "optimize.analytic",
     _count("optimize.analytic.evaluations", lambda r: r.evaluations)),
    (pskrx.optimize, "optimize_beta_analytic", "optimize.analytic",
     _count("optimize.analytic.evaluations", lambda r: r.evaluations)),
    (pskrx.cli, "optimize_beta_mc", "optimize.mc",
     _count("optimize.mc.evaluations", lambda r: r.evaluations)),
    (pskrx.optimize, "cyclic_error_probability", "analytic", _analytic),
    (pskrx.cli, "estimate_error", "mc", _mc),
    (pskrx.optimize, "estimate_error", "mc", _mc),
    (pskrx.cli, "simulate_outcomes", "mc.records", _count("records.trials", len)),
    (pskrx.bench, "sql_heterodyne", "bench", _count("bench.calls")),
    (pskrx.bench, "helstrom_mpsk", "bench", _count("bench.calls")),
)


def _wrap(tracer: Tracer, name: str, fn, record):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        record(tracer, result)
        return result

    return wrapper
