"""Query tracing: what M4-LSM did, span by span.

``M4LSMOperator.query_traced`` returns the result *plus* a
:class:`QueryTrace` recording, per span, whether round 1 of Algorithm 1
settled it from metadata, how many candidate iterations its later
rounds ran, and what the span cost in chunk loads and index probes —
the per-span breakdown of the counters behind the paper's latency
curves.  The rendered trace
is the operator's EXPLAIN output.
"""

from __future__ import annotations

import dataclasses

#: Span resolution modes.
EMPTY = "empty"     # no chunk overlapped the span
FUSED = "fused"     # settled by round 1 from metadata, zero iterations
SOLVER = "solver"   # went on to later rounds of Algorithm 1


@dataclasses.dataclass(frozen=True)
class SpanTrace:
    """Execution record of one span."""

    span_index: int
    start: int
    end: int
    mode: str
    n_chunks: int = 0
    fragments: int = 0   # members that are sweep-loaded chunk fragments
    iterations: int = 0
    chunk_loads: int = 0
    pages_decoded: int = 0
    index_lookups: int = 0

    def was_metadata_only(self):
        """True when the span was answered without reading chunk data —
        neither by its solver nor, for a fragment, by the sweep."""
        return self.fragments == 0 and self.chunk_loads == 0 \
            and self.pages_decoded == 0


@dataclasses.dataclass(frozen=True)
class QueryTrace:
    """Execution record of one M4-LSM query."""

    series: str
    t_qs: int
    t_qe: int
    w: int
    spans: tuple  # of SpanTrace
    # The chunk-major sweep that ran before the spans were solved.
    swept_chunks: int = 0         # split chunks opened (once each)
    sweep_chunk_loads: int = 0
    sweep_pages_decoded: int = 0

    def counts_by_mode(self):
        """``{mode: span count}``."""
        out = {EMPTY: 0, FUSED: 0, SOLVER: 0}
        for span in self.spans:
            out[span.mode] += 1
        return out

    def total(self, field):
        """Sum of one numeric SpanTrace field across spans."""
        return sum(getattr(span, field) for span in self.spans)

    def metadata_only_fraction(self):
        """Fraction of non-empty spans answered from metadata alone."""
        non_empty = [s for s in self.spans if s.mode != EMPTY]
        if not non_empty:
            return 1.0
        return sum(s.was_metadata_only() for s in non_empty) \
            / len(non_empty)

    def hottest_spans(self, limit=5):
        """The spans that decoded the most pages, descending."""
        ranked = sorted(self.spans, key=lambda s: s.pages_decoded,
                        reverse=True)
        return [s for s in ranked[:limit] if s.pages_decoded > 0]

    def render(self, max_rows=12):
        """A human-readable EXPLAIN report."""
        modes = self.counts_by_mode()
        lines = [
            "M4-LSM trace: %s in [%d, %d), w=%d"
            % (self.series, self.t_qs, self.t_qe, self.w),
            "  spans: %d fused / %d solver / %d empty"
            % (modes[FUSED], modes[SOLVER], modes[EMPTY]),
            "  totals: %d iterations, %d chunk loads, %d pages decoded, "
            "%d index lookups; sweep: %d chunks, %d fragments, "
            "%d chunk loads, %d pages decoded"
            % (self.total("iterations"), self.total("chunk_loads"),
               self.total("pages_decoded"), self.total("index_lookups"),
               self.swept_chunks, self.total("fragments"),
               self.sweep_chunk_loads,
               self.sweep_pages_decoded),
            "  metadata-only spans: %.1f%%"
            % (100.0 * self.metadata_only_fraction()),
        ]
        hottest = self.hottest_spans(max_rows)
        if hottest:
            lines.append("  hottest spans (pages decoded):")
            for span in hottest:
                lines.append(
                    "    span %-6d [%d, %d)  %s  iter=%d loads=%d "
                    "pages=%d probes=%d"
                    % (span.span_index, span.start, span.end, span.mode,
                       span.iterations, span.chunk_loads,
                       span.pages_decoded, span.index_lookups))
        return "\n".join(lines)
