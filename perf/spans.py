"""The benchmark's own span recorder.

A span is one timed call the benchmark made into one layer: ``name``
(the layer), ``op`` (which replayed operation it belongs to), ``start``
and ``end`` (``time.perf_counter`` seconds) and ``parent`` (the id of
the span of the enclosing layer for the same op).  Spans are kept in
memory and written out once, when the traced pass ends.

The traced pass replays each op through every layer in its own call —
the whole request over HTTP, then the service in-process, then the
executor, then the operator — so a child span is *not* inside its
parent's wall-clock interval.  Self time is therefore computed from
durations: a span's duration minus the durations of its children.  It
is not clipped at zero: a small negative self time says the layer's own
work is below the pass-to-pass noise, which is worth seeing.
"""

from __future__ import annotations

import contextlib
import json
import time


class SpanRecorder:
    """Records spans and derives per-span self times."""

    def __init__(self):
        self.spans = []
        self._latest = {}  # (name, op) -> id of the newest such span

    def add(self, name, op, start, end, parent=None):
        """Record a finished span; ``parent`` names the parent layer of
        the same op (its newest span), or is None for a root or a
        stand-alone probe.  Returns the span's record."""
        parent_id = None if parent is None else self._latest[(parent, op)]
        span = {"id": len(self.spans), "name": name, "op": op,
                "parent": parent_id, "start": start, "end": end}
        self.spans.append(span)
        self._latest[(name, op)] = span["id"]
        return span

    @contextlib.contextmanager
    def span(self, name, op, parent=None):
        """Time the body as one span (recorded even when it raises);
        yields a dict that holds the span's ``seconds`` afterwards."""
        timed = {}
        start = time.perf_counter()
        try:
            yield timed
        finally:
            end = time.perf_counter()
            self.add(name, op, start, end, parent)
            timed["seconds"] = end - start

    def self_times(self):
        """``{span id: self seconds}`` — duration minus children."""
        covered = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) \
                    + (span["end"] - span["start"])
        return {span["id"]: span["end"] - span["start"]
                - covered.get(span["id"], 0.0) for span in self.spans}

    def durations(self, name):
        """Durations (seconds) of every span called ``name``, by op order."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def self_durations(self, name):
        """Self times (seconds) of every span called ``name``."""
        selfs = self.self_times()
        return [selfs[s["id"]] for s in self.spans if s["name"] == name]

    def write(self, path, **extra):
        """Write every span (with its self time) as one JSON document."""
        selfs = self.self_times()
        spans = [dict(span, self=selfs[span["id"]]) for span in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(dict(extra, spans=spans), f)
