"""In-memory spans around the benchmark's calls into conceptds modules.

A span records its name, start, end, the span that caused it, and the op it
belongs to.  Spans stay in memory during the run and are written out once at
the end.  Because the benchmark is single-threaded, spans nest properly, so a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

ROOT = "op"

_NULL = nullcontext()


class NullTracer:
    """The untraced run: every hook does nothing."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, value: float) -> None:
        pass

    def maximum(self, name: str, value: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, op id, failed]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self.op_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except Exception:
            record[5] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self seconds, and failed calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": 0})
        for (name, start, end, _, _, failed), children in zip(self.spans,
                                                               child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - children
            entry["total_s"] += end - start
            entry["failed"] += int(failed)
        return dict(out)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "failed")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts), "maxima": self.maxima},
                      handle)
