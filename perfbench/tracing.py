"""In-memory spans recorded from the benchmark's own files.

A span wraps one call from the benchmark into a public function of an rvdlm
module. Spans are kept in memory and turned into per-layer numbers when the
run ends; nothing is written while measuring.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        sp = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(sp)

    def seconds(self, name: str) -> list[float]:
        return [sp.seconds for sp in self.spans if sp.name == name]

    def has(self, name: str) -> bool:
        return any(sp.name == name for sp in self.spans)

    def median(self, name: str) -> float:
        """Median seconds per call of the spans named `name`."""
        return statistics.median(self.seconds(name))
