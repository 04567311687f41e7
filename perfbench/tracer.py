"""In-memory recorders installed around morphtok's public functions.

A recorder replaces a function at the place its caller looks the name up
(``morphtok.cli.load_corpus``, ``morphtok.ulm.ulm_encode``, ...) and puts
the original back on :meth:`Tracer.uninstall`. Nothing in the package is
edited.

Two kinds of recorder:

- a *span* recorder keeps one record per call: name, parent span, start,
  end and the time its traced children covered;
- a *per-word* recorder, for functions called once per word, keeps only a
  call count, busy time, self time and a latency histogram.

Both push a frame on one call stack, so a layer's self time is its
duration minus the time covered by traced calls nested inside it.
Everything stays in memory until the benchmark writes it out.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field

# latency histogram buckets per doubling of the duration
BUCKETS_PER_OCTAVE = 16


@dataclass
class CallStats:
    """Aggregate of a per-word function: no per-call records."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    histogram: dict = field(default_factory=dict)  # bucket index -> calls

    def add(self, duration: float, child: float) -> None:
        self.calls += 1
        self.busy_s += duration
        self.self_s += duration - child
        ns = max(duration * 1e9, 1.0)
        bucket = int(math.log2(ns) * BUCKETS_PER_OCTAVE)
        self.histogram[bucket] = self.histogram.get(bucket, 0) + 1

    def quantile_us(self, q: float) -> float:
        """Duration at quantile q in microseconds, read from the histogram
        (bucket midpoint, about 2% resolution); 0.0 before any call."""
        rank = q * self.calls
        seen = 0
        for bucket in sorted(self.histogram):
            seen += self.histogram[bucket]
            if seen >= rank:
                return 2 ** ((bucket + 0.5) / BUCKETS_PER_OCTAVE) / 1e3
        return 0.0


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Call stack, spans and per-word aggregates of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, CallStats] = {}
        # one frame per open traced call: [span index or None, child seconds]
        self._stack: list[list] = [[None, 0.0]]
        self._installed: list[tuple] = []

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span named `name`; returns its result."""
        return self._span(name, fn, args, {}, None)

    def _span(self, name: str, fn, args, kwargs, observe):
        stack = self._stack
        record = Span(name, stack[-1][0], 0.0)
        self.spans.append(record)
        frame = [len(self.spans) - 1, 0.0]
        stack.append(frame)
        record.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            stack.pop()
            record.child_s = frame[1]
        if observe is not None:
            observe(args, kwargs, result)
        # the parent's covered time includes this recorder's bookkeeping
        stack[-1][1] += time.perf_counter() - record.start
        return result

    def _per_word(self, name: str, fn, observe):
        stack = self._stack
        stats = self.calls.setdefault(name, CallStats())
        clock = time.perf_counter

        def recorder(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
            stats.add(duration, frame[1])
            if observe is not None:
                observe(args, kwargs, result)
            stack[-1][1] += clock() - start
            return result

        return recorder

    def _spanning(self, name: str, fn, observe):
        def recorder(*args, **kwargs):
            return self._span(name, fn, args, kwargs, observe)

        return recorder

    def install(self, target: str, per_word: bool = False, observe=None) -> None:
        """Replace `module.attr` (e.g. ``morphtok.cli.load_corpus``) by a recorder.

        `observe(args, kwargs, result)` runs after each successful call,
        outside the timed interval of that call.
        """
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        make = self._per_word if per_word else self._spanning
        setattr(module, attr, make(target, original, observe))
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def self_seconds(self, *names: str) -> float:
        """Self time summed over spans and per-word calls with these names."""
        total = sum(s.self_s for s in self.spans if s.name in names)
        return total + sum(self.calls[n].self_s for n in names if n in self.calls)

    def span_count(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def dump(self) -> dict:
        """Spans and aggregates as plain JSON-ready data."""
        return {
            "spans": [
                {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
                 "self_s": s.self_s}
                for s in self.spans
            ],
            "calls": {
                name: {"calls": c.calls, "busy_s": c.busy_s, "self_s": c.self_s,
                       "histogram_buckets_per_octave": BUCKETS_PER_OCTAVE,
                       "histogram_log2_ns": {str(k): v for k, v in sorted(c.histogram.items())}}
                for name, c in self.calls.items()
            },
        }
