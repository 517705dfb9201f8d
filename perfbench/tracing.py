"""Outside-in spans around the library's public calls.

Spans stay in memory and are written out when the run ends.  Each span
records its name, a trace id shared by every span of one query, the index
of its parent span, and its start and end on `time.perf_counter`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Collects spans; when disabled, `span` is a shared no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, trace_id, parent, start, end]
        self._open: list[int] = []
        self._null = nullcontext()

    def span(self, name: str, trace_id: int = 0):
        return self._record(name, trace_id) if self.enabled else self._null

    @contextmanager
    def _record(self, name: str, trace_id: int):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        entry = [name, trace_id, parent, time.perf_counter(), 0.0]
        self.spans.append(entry)
        self._open.append(idx)
        try:
            yield
        finally:
            entry[4] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name, in start order."""
        return [s[4] - s[3] for s in self.spans if s[0] == name]

    def by_trace(self, name: str) -> dict[int, float]:
        """Total duration of the spans with this name, per trace id."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s[0] == name:
                out[s[1]] = out.get(s[1], 0.0) + (s[4] - s[3])
        return out

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus what their children cover.

        Spans are recorded from one thread, so children never overlap.
        """
        total = 0.0
        ids = set()
        for idx, s in enumerate(self.spans):
            if s[0] == name:
                ids.add(idx)
                total += s[4] - s[3]
        return total - sum(s[4] - s[3] for s in self.spans if s[2] in ids)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, trace_id, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "trace": trace_id, "parent": parent,
                                     "start": start, "end": end}) + "\n")
