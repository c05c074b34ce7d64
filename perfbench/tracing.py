"""Recorders that a workload pass reports its calls into qcover to.

Every call goes through `recorder.span(name, circuit)`.  Spans named
`bench.*` wrap the benchmark's own work (collecting outputs for the checks)
and never count as qcover operations.

`OpTimer` is the recorder of the untraced passes: it keeps only each
operation's duration.  `Tracer` is the recorder of the traced passes: it
keeps spans, (name, start, end, parent index, circuit id), in memory until
the run ends.  A span's self time is its duration minus the time its child
spans cover; the layer of a span is the part of its name before the dot.
"""
from __future__ import annotations

import time

_clock = time.perf_counter


class _Timed:
    __slots__ = ("ops", "name", "circuit", "start")

    def __init__(self, ops: list | None, name: str, circuit):
        self.ops, self.name, self.circuit = ops, name, circuit

    def __enter__(self):
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        if self.ops is not None:
            self.ops.append((self.name, self.circuit, _clock() - self.start))
        return False


class OpTimer:
    """Durations of a pass's operations, in call order; no spans."""

    def __init__(self) -> None:
        self._ops: list[tuple[str, object, float]] = []

    def span(self, name: str, circuit=None) -> _Timed:
        return _Timed(None if name.startswith("bench.") else self._ops, name, circuit)

    def ops(self) -> list[tuple[str, object, float]]:
        return self._ops


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.record[1] = _clock()
        return self

    def __exit__(self, *exc):
        self.record[2] = _clock()
        self.tracer._open.pop()
        return False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, circuit=None) -> _Span:
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, circuit]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return _Span(self, record)

    def ops(self) -> list[tuple[str, object, float]]:
        """Outermost qcover spans as operations, like OpTimer reports them."""
        return [(name, circuit, end - start)
                for name, start, end, parent, circuit in self.spans
                if parent < 0 and not name.startswith("bench.")]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out
