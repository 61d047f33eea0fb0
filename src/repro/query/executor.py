"""Execution of parsed queries against a storage engine.

Every :meth:`Executor.execute` call is observed: latency lands in the
engine's ``query_seconds`` histogram (labelled by query kind and
operator), the ``queries_total`` counter ticks, and queries slower than
``StorageConfig.slow_query_seconds`` enter the engine's rolling
slow-query log.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..core.aggregation import aggregate_lsm, aggregate_udf
from ..core.m4 import M4UDFOperator
from ..core.m4lsm import M4LSMOperator
from ..core.tiles import m4_operator
from ..errors import QueryError
from ..obs import tracer_of
from .sql import ParsedQuery

_FIELD_NAMES = {
    ("FP", "t"): "FirstTime", ("FP", "v"): "FirstValue",
    ("LP", "t"): "LastTime", ("LP", "v"): "LastValue",
    ("BP", "t"): "BottomTime", ("BP", "v"): "BottomValue",
    ("TP", "t"): "TopTime", ("TP", "v"): "TopValue",
}
#: Row of each function in ``M4Result.times`` / ``M4Result.values``.
_FUNCTION_ROW = {"FP": 0, "LP": 1, "BP": 2, "TP": 3}
_RAW_NAMES = {"t": "time", "v": "value"}


def result_columns(parsed):
    """The column names of ``parsed``'s :class:`ResultTable`."""
    if parsed.kind == "m4":
        return ("span",) + tuple(_FIELD_NAMES[c] for c in parsed.columns)
    if parsed.kind == "agg":
        return ("span",) + tuple(name.upper() for name in parsed.columns)
    return tuple(_RAW_NAMES[c] for c in parsed.columns)


@dataclasses.dataclass(frozen=True)
class ResultTable:
    """A tabular query result: column names plus row tuples.

    ``meta`` carries out-of-band result annotations — currently the
    degraded-read flag and skipped time ranges — and never affects
    equality: two tables with the same rows are the same answer.
    """

    columns: tuple
    rows: tuple
    meta: dict = dataclasses.field(default_factory=dict, compare=False)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name):
        """All values of one named column."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise QueryError("no column %r (have %s)"
                             % (name, list(self.columns))) from None
        return [row[index] for row in self.rows]

    def pretty(self, max_rows=20):
        """A fixed-width text rendering for terminals."""
        header = [str(c) for c in self.columns]
        body = [[_fmt(cell) for cell in row] for row in self.rows[:max_rows]]
        widths = [max(len(header[i]), *(len(r[i]) for r in body))
                  if body else len(header[i]) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w)
                                   for cell, w in zip(row, widths)))
        if len(self.rows) > max_rows:
            lines.append("... (%d more rows)" % (len(self.rows) - max_rows))
        return "\n".join(lines)


def _fmt(cell):
    if isinstance(cell, float):
        return "%.6g" % cell
    return str(cell)


def _degraded_meta(skipped):
    """``ResultTable.meta`` for a degraded answer (empty when healthy)."""
    if not skipped:
        return {}
    return {"degraded": True,
            "skipped_ranges": [[int(s), int(e)] for s, e in skipped]}


class Executor:
    """Runs :class:`ParsedQuery` objects against one engine.

    ``degraded``: skip quarantined/corrupt chunks and annotate the
    result (``ResultTable.meta``) instead of raising; ``None`` follows
    ``engine.config.degraded_reads``; ``False`` is strict mode — any
    checksum failure surfaces as a :class:`CorruptFileError`.
    """

    def __init__(self, engine, degraded=None):
        self._engine = engine
        self._degraded = degraded

    def execute(self, parsed, statement=None, slow_info=None):
        """Dispatch on query kind; returns a :class:`ResultTable`.

        ``statement`` is the original SQL text, used verbatim in the
        slow-query log (a synthesized description is logged otherwise).
        ``slow_info`` is an optional dict of extra fields for the
        slow-query entry — the server passes its request id and
        endpoint through here.
        """
        if not isinstance(parsed, ParsedQuery):
            raise QueryError("execute() expects a ParsedQuery")
        tracer = tracer_of(self._engine)
        started = time.perf_counter()
        with tracer.span("query", kind=parsed.kind,
                         operator=parsed.operator, series=parsed.series):
            if parsed.kind == "raw":
                table = self._execute_raw(parsed)
            else:
                table = self._execute_spans(parsed)
        self._observe(parsed, statement, time.perf_counter() - started,
                      slow_info=slow_info)
        return table

    def _observe(self, parsed, statement, seconds, slow_info=None):
        metrics = getattr(self._engine, "metrics", None)
        if metrics is not None:
            metrics.counter("query_total", kind=parsed.kind,
                            operator=parsed.operator).inc()
            metrics.histogram("query_seconds", kind=parsed.kind).observe(
                seconds)
        slow_log = getattr(self._engine, "slow_log", None)
        if slow_log is not None:
            if statement is None:
                statement = "%s %s [%s, %s) w=%s" % (
                    parsed.kind, parsed.series, parsed.t_qs, parsed.t_qe,
                    parsed.w)
            slow_log.record(statement, seconds, kind=parsed.kind,
                            series=parsed.series,
                            operator=parsed.operator,
                            **(slow_info or {}))

    def _operator(self, name):
        if name == "m4udf":
            return M4UDFOperator(self._engine, degraded=self._degraded)
        return m4_operator(self._engine, self._degraded)

    def _resolve_range(self, parsed):
        t_qs, t_qe = parsed.t_qs, parsed.t_qe
        if t_qs is None or t_qe is None:
            chunks = self._engine.chunks_for(parsed.series)
            if not chunks:
                raise QueryError("series %r is empty and the query gave "
                                 "no WHERE range" % parsed.series)
            t_qs = min(c.start_time for c in chunks) if t_qs is None else t_qs
            t_qe = max(c.end_time for c in chunks) + 1 if t_qe is None \
                else t_qe
        return t_qs, t_qe

    def explain(self, parsed, statement=None):
        """Like :meth:`execute`, also returning the M4-LSM
        :class:`~repro.core.m4lsm.tracing.QueryTrace`.

        Returns ``(table, trace)``; ``trace`` is None for query kinds
        (raw scans, plain aggregates, M4-UDF) that have no per-span
        solver trace — the hierarchical span tree on
        ``engine.tracer.last_root`` still covers those.
        """
        if not isinstance(parsed, ParsedQuery):
            raise QueryError("explain() expects a ParsedQuery")
        if parsed.kind != "m4" or parsed.operator == "m4udf":
            return self.execute(parsed, statement=statement), None
        tracer = tracer_of(self._engine)
        started = time.perf_counter()
        with tracer.span("query", kind=parsed.kind,
                         operator=parsed.operator, series=parsed.series):
            t_qs, t_qe = self._resolve_range(parsed)
            operator = M4LSMOperator(self._engine, degraded=self._degraded)
            result, trace = operator.query_traced(
                parsed.series, t_qs, t_qe, parsed.w)
            table = self._span_table(parsed, result)
        self._observe(parsed, statement, time.perf_counter() - started)
        return table, trace

    def _execute_spans(self, parsed):
        t_qs, t_qe = self._resolve_range(parsed)
        if parsed.kind == "agg":
            runner = aggregate_udf if parsed.operator == "m4udf" \
                else aggregate_lsm
            result = runner(self._engine, parsed.series, t_qs, t_qe,
                            parsed.w, parsed.columns, degraded=self._degraded)
        else:
            result = self._operator(parsed.operator).query(
                parsed.series, t_qs, t_qe, parsed.w)
        return self._span_table(parsed, result)

    def _span_table(self, parsed, result):
        """One row per non-empty span of an :class:`M4Result` (or its
        :class:`AggregateResult` subclass), read from its columns."""
        index = np.flatnonzero(result.occupied)
        cells = [index.tolist()]
        for column in parsed.columns:
            if parsed.kind == "agg":
                array = result.array(column)
            else:
                function, field = column
                array = (result.times if field == "t"
                         else result.values)[_FUNCTION_ROW[function]]
            cells.append(array[index].tolist())
        return ResultTable(result_columns(parsed), tuple(zip(*cells)),
                           _degraded_meta(result.skipped))

    def _execute_raw(self, parsed):
        t_qs, t_qe = self._resolve_range(parsed)
        operator = M4UDFOperator(self._engine, degraded=self._degraded)
        skipped = []
        series = operator.merged_series(parsed.series, t_qs, t_qe,
                                        skipped=skipped)
        t = series.timestamps
        v = series.values
        data = {"t": t, "v": v}
        stacked = [data[c] for c in parsed.columns]
        rows = tuple(tuple(int(col[i]) if parsed.columns[j] == "t"
                           else float(col[i])
                           for j, col in enumerate(stacked))
                     for i in range(t.size))
        return ResultTable(result_columns(parsed), rows,
                           _degraded_meta(skipped))
