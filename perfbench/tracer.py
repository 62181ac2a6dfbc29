"""In-memory spans around the benchmark's calls into each ffk layer.

A span records its name, start and end (``perf_counter`` seconds), the
index of the span that was open when it started, and the operation id it
belongs to.  Spans stay in a list until the run ends; ``write`` then
dumps them as JSON lines.  Counters (bytes, computed flops, maxima) are
kept beside the spans under the same layer names.

When a tracer is disabled, ``span`` and ``count`` do nothing, so the
same workload code serves the untraced and the traced run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_, op = self.spans[index]
            self.spans[index] = (name_, start, perf_counter(), parent_, op)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def record_max(self, name: str, value: float) -> None:
        if self.enabled:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time, and self time.

        Self time is a span's duration minus the time its direct
        children cover.  Spans come from one thread and nest, so
        children never overlap and their durations simply add up.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - covered
        return stats

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )
