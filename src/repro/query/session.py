"""Session: the user-facing entry point, in the spirit of IoTDB's client.

A session wraps one :class:`StorageEngine` and offers writes, deletes,
SQL execution and direct M4 queries.

>>> # session = Session("/tmp/db")
>>> # session.create_series("root.sg.speed")
>>> # session.insert_batch("root.sg.speed", ts, vs)
>>> # table = session.execute(
>>> #     "SELECT M4(s) FROM root.sg.speed GROUP BY SPANS(1000)")
"""

from __future__ import annotations

from ..core.m4 import M4UDFOperator
from ..core.m4lsm import M4LSMOperator
from ..storage.config import DEFAULT_CONFIG
from ..storage.engine import StorageEngine


class Session:
    """A connection-like facade over one storage directory."""

    def __init__(self, data_dir, config=DEFAULT_CONFIG, engine=None):
        self._engine = engine if engine is not None \
            else StorageEngine(data_dir, config)

    @property
    def engine(self):
        """The underlying :class:`StorageEngine`."""
        return self._engine

    @property
    def metrics(self):
        """The engine's :class:`repro.obs.MetricsRegistry`."""
        return self._engine.metrics

    @property
    def tracer(self):
        """The engine's :class:`repro.obs.Tracer`."""
        return self._engine.tracer

    def slow_queries(self):
        """Entries of the engine's rolling slow-query log."""
        return self._engine.slow_log.entries()

    def stats_snapshot(self):
        """The engine's full observability snapshot (JSON-able dict)."""
        return self._engine.observability_snapshot()

    # -- writes --------------------------------------------------------------------

    def create_series(self, name):
        """Register a series (idempotent); returns its id."""
        return self._engine.create_series(name)

    def insert(self, series, t, v):
        """Insert one point."""
        self._engine.write(series, t, v)

    def insert_batch(self, series, timestamps, values):
        """Insert a batch of points in any time order."""
        self._engine.write_batch(series, timestamps, values)

    def delete(self, series, t_start, t_end):
        """Delete the closed time range ``[t_start, t_end]``."""
        return self._engine.delete(series, t_start, t_end)

    def flush(self):
        """Make all buffered writes query-visible."""
        self._engine.flush_all()

    # -- queries --------------------------------------------------------------------

    def execute(self, statement):
        """Parse and run a SQL statement; returns a ResultTable.

        Buffered writes are flushed first so queries always see the
        latest data (matching IoTDB's read-your-writes behaviour).
        """
        self._engine.flush_all()
        return self._engine.execute_sql(statement)

    def query_m4(self, series, t_qs, t_qe, w, operator="m4lsm"):
        """Direct M4 query; returns :class:`repro.core.result.M4Result`."""
        self._engine.flush_all()
        if operator == "m4udf":
            return M4UDFOperator(self._engine).query(series, t_qs, t_qe, w)
        return M4LSMOperator(self._engine).query(series, t_qs, t_qe, w)

    def explain_m4(self, series, t_qs, t_qe, w):
        """Run an M4-LSM query and return ``(result, trace)``.

        The trace is the operator's per-span EXPLAIN (see
        :class:`repro.core.m4lsm.tracing.QueryTrace`); ``trace.render()``
        prints how many spans were answered from metadata alone.
        """
        self._engine.flush_all()
        return M4LSMOperator(self._engine).query_traced(series, t_qs,
                                                        t_qe, w)

    def close(self):
        """Seal files and release readers."""
        self._engine.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
