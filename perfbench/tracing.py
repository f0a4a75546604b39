"""Spans recorded around calls into the library, kept in memory.

A span holds a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began, and an iteration id shared
by every span of one benchmark iteration.  Spans are recorded only while
the tracer is enabled; a disabled tracer costs one attribute test per call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: str


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.iteration = ""
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.iteration))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Everything runs on one thread, so the children of a span never
        overlap and the time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def iteration_view(self, iteration: str) -> "SpanView":
        selfs = self.self_times()
        return SpanView([(s, t) for s, t in zip(self.spans, selfs) if s.iteration == iteration])

    def to_json(self) -> list[dict]:
        return [dict(asdict(s), self=t) for s, t in zip(self.spans, self.self_times())]


class SpanView:
    """The spans of one iteration, queried by name."""

    def __init__(self, spans: list[tuple[Span, float]]):
        self._spans = spans

    def self_s(self, name: str) -> float:
        """Summed self time of every span called `name`."""
        return sum(t for s, t in self._spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s, _ in self._spans if s.name == name]
