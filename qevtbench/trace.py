"""Layer tracing from outside the program.

Every traced function is wrapped once and the wrapper is bound in place of
the original in each ``qevt`` module namespace that holds it, which is where
the program looks the name up (``qevt.pipeline.collect_extreme_samples``,
``qevt.sample_size.fit_gev_minima``, ``qevt.qaoa.circuit_state`` ...).
Spans are kept in memory with a link to the span that caused them; a span's
self time is its duration minus the time of its direct children, which is
exact because the program runs single-threaded and spans nest.

Counts that need a look at arguments or results (shots drawn, optimizer
evaluations, fit shapes) are taken by small hooks at the same boundaries.
The scipy ``optimize`` module seen by ``qevt.gev`` is replaced by a shim
that counts the likelihood evaluations of every fit, and the random
generators ``qevt.annealing`` draws from are wrapped to count the flips SA
proposes.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import qevt.annealing
import qevt.gev


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Trace:
    """Spans and counters recorded while a :class:`Tracer` is installed."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    minima: list = field(default_factory=list)     # (instance key, per-run minima)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def child_calls(self, name: str, parent: str) -> int:
        return sum(
            1
            for s in self.spans
            if s.name == name and s.parent is not None and self.spans[s.parent].name == parent
        )

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.spans)

    def to_list(self) -> list:
        return [
            {"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans)
        ]


# hooks: (trace, args, kwargs, result) -> None, run after a successful call
def _count_shots(trace, args, kwargs, result):
    trace.counts["qaoa.shots_drawn"] += int(args[2] if len(args) > 2 else kwargs["shots_s"])


def instance_key(inst) -> str:
    """Identifies an instance across save/load round trips."""
    return hashlib.sha256(np.ascontiguousarray(inst.q).tobytes()).hexdigest()


def _count_batch_shots(trace, args, kwargs, result):
    shots = int(args[2] if len(args) > 2 else kwargs["shots_s"])
    trace.counts["qaoa.shots_drawn"] += shots * result.size
    trace.minima.append((instance_key(args[1]), np.asarray(result)))


def _keep_minima(trace, args, kwargs, result):
    trace.minima.append((instance_key(args[0]), np.asarray(result)))


def _count_distinct(trace, args, kwargs, result):
    trace.counts["gev.jitter.calls"] += 1
    trace.counts["gev.jitter.distinct_sum"] += int(np.unique(np.asarray(args[0])).size)


def _count_fit_shape(trace, args, kwargs, result):
    trace.counts["gev.fit.ok"] += 1
    trace.counts["gev.fit.xi_below_-1"] += int(result.xi < -1.0)


def _count_fit_failures(trace, args, kwargs, result):
    for failed, attempted in result.fit_failures.values():
        trace.counts["sample_size.fits_failed"] += failed
        trace.counts["sample_size.fits_attempted"] += attempted


def _count_written(trace, args, kwargs, result):
    trace.counts["pipeline.io.bytes_written"] += os.stat(args[0]).st_size


# (module of the original, function name, span name, hook)
TRACED = (
    ("qevt.qubo", "energy_table", "qubo.energy_table", None),
    ("qevt.qubo", "ising_energy_table", "qubo.ising_energy_table", None),
    ("qevt.qaoa", "optimize_parameters", "qaoa.optimize_parameters", None),
    ("qevt.qaoa", "circuit_state", "qaoa.circuit_state", None),
    ("qevt.qaoa", "collect_extreme_samples", "qaoa.collect_extreme_samples", _keep_minima),
    ("qevt.qaoa", "sample_shots", "qaoa.sample_shots", _count_shots),
    ("qevt.qaoa", "run_minima_batch", "qaoa.run_minima_batch", _count_batch_shots),
    ("qevt.annealing", "simulated_annealing", "annealing.simulated_annealing", None),
    ("qevt.gev", "fit_gev_minima", "gev.fit_gev_minima", _count_fit_shape),
    ("qevt.gev", "jitter", "gev.jitter", _count_distinct),
    ("qevt.stats", "mvsw_null_stats", "stats.mvsw_null_stats", None),
    ("qevt.stats", "hotelling_t2", "stats.hotelling_t2", None),
    ("qevt.stats", "shapiro_wilk_multivariate", "stats.shapiro_wilk_multivariate", None),
    ("qevt.sample_size", "estimate_required_extremes", "sample_size.estimate_required_extremes",
     _count_fit_failures),
    ("qevt.pipeline", "write_json", "pipeline.io", _count_written),
    ("qevt.pipeline", "write_csv", "pipeline.io", _count_written),
    ("qevt.pipeline", "read_json", "pipeline.io", None),
    ("qevt.svg", "line_chart", "svg", None),
    ("qevt.svg", "histogram_with_curve", "svg", None),
)


class _CountingOptimize:
    """Stands in for ``scipy.optimize`` inside ``qevt.gev``; counts nfev."""

    def __init__(self, real, trace: Trace):
        self._real = real
        self._trace = trace

    def minimize(self, *args, **kwargs):
        res = self._real.minimize(*args, **kwargs)
        self._trace.counts["gev.fit_gev_minima.nfev"] += int(res.nfev)
        return res

    def __getattr__(self, name):
        return getattr(self._real, name)


class _CountingRng:
    """Stands in for a generator made by ``qevt.annealing``'s ``rng_from``.

    SA takes one uniform acceptance draw per proposed flip, so the uniforms
    drawn count the proposals as they happen.
    """

    def __init__(self, real, trace: Trace):
        self._real = real
        self._trace = trace

    def random(self, size=None, *args, **kwargs):
        self._trace.counts["annealing.flips_proposed"] += 1 if size is None else int(np.prod(size))
        return self._real.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Installs wrappers around the traced functions; use as a context manager.

    While installed, every call records a span into ``self.trace``.  Leaving
    the context puts every original binding back.
    """

    def __init__(self):
        self.trace = Trace()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str, hook):
        trace, stack = self.trace, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name=name, parent=stack[-1] if stack else None, start=time.perf_counter())
            trace.spans.append(span)
            stack.append(len(trace.spans) - 1)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    trace.spans[span.parent].child_s += span.end - span.start
                if failed:
                    trace.counts[f"{name}.failed"] += 1
            if hook is not None:
                hook(trace, args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qevt" and not mod_name.startswith("qevt."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        for mod_name, fn_name, span_name, hook in TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            self._rebind(original, self._wrap(original, span_name, hook))
        shim = _CountingOptimize(qevt.gev.optimize, self.trace)
        self._restore.append((qevt.gev, "optimize", qevt.gev.optimize))
        qevt.gev.optimize = shim
        rng_from = qevt.annealing.rng_from
        self._restore.append((qevt.annealing, "rng_from", rng_from))
        qevt.annealing.rng_from = lambda *path: _CountingRng(rng_from(*path), self.trace)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

