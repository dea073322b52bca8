"""Spans recorded by the benchmark around its calls into library layers.

A span is (id, name, parent, job, start, end).  Spans stay in memory and
are written out when the run ends.  `NoSpans` is the untraced stand-in:
its `span` returns one shared no-op context, so the untraced path pays a
method call per layer call and nothing else.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Spans:
    traced = True

    def __init__(self):
        self.records: list[dict] = []
        self.job: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.records), "name": name,
               "parent": self._open[-1] if self._open else None,
               "job": self.job, "start": 0.0, "end": 0.0}
        self.records.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[tuple[str, float, float]]:
        """(name, duration, self time) per span; self time excludes the
        part of the interval covered by child spans."""
        covered = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None:
                covered[r["parent"]] += r["end"] - r["start"]
        return [(r["name"], r["end"] - r["start"], r["end"] - r["start"] - covered[r["id"]])
                for r in self.records]

    def write(self, fh, pass_label: str) -> None:
        for r in self.records:
            fh.write(json.dumps({**r, "pass": pass_label}) + "\n")


class NoSpans:
    traced = False
    job: str | None = None
    _noop = nullcontext()

    def span(self, name: str):
        return self._noop


def self_time_totals(spans: Spans) -> dict[str, float]:
    """Self time summed per span name."""
    out: dict[str, float] = {}
    for name, _, self_time in spans.self_times():
        out[name] = out.get(name, 0.0) + self_time
    return out
