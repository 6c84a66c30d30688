"""The benchmark's own span tracer.

Each span wraps one public call into a layer of the program and records its
name, start, end, parent span and run id (one run id per job).  Spans stay in
memory until the benchmark writes them out at exit.  Self times are computed
from these spans only: a span's duration minus the part of its interval that
its child spans cover.  The program's own ``repro.obs`` spans are copied into
the per-layer table as totals, never as self times.
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
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans while ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self, run_id: str) -> dict[str, float]:
        """Self time per span name, summed over the spans of one run."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.run_id == run_id and span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.run_id != run_id:
                continue
            covered = _covered(span, children.get(index, []))
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
        return totals

    def as_payload(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _covered(parent: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    covered = 0.0
    cursor = parent.start
    for child in sorted(children, key=lambda s: s.start):
        start = max(child.start, cursor)
        end = min(child.end, parent.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered
