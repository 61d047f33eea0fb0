"""Benchmark harness: engine preparation, timed queries, counters.

All the paper's experiments compare the latency of two operators under a
swept parameter.  :func:`prepare_engine` builds a storage directory for
one dataset/workload combination; :func:`timed_query` runs one operator
and returns wall-clock seconds together with the I/O counters accumulated
during the query (the substrate-independent cost signal).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time

from ..core.m4 import M4UDFOperator
from ..core.m4lsm import M4LSMOperator
from ..datasets.generators import PROFILES
from ..datasets.workloads import apply_delete_workload, load_with_overlap
from ..storage.config import StorageConfig
from ..storage.engine import StorageEngine

#: Default bench scale; override with the REPRO_BENCH_POINTS env var.
DEFAULT_POINTS = 400_000


def bench_points(explicit=None):
    """Point count for benches.

    An explicit count always wins; otherwise the ``REPRO_BENCH_POINTS``
    env var, otherwise :data:`DEFAULT_POINTS`.
    """
    if explicit is not None:
        return int(explicit)
    raw = os.environ.get("REPRO_BENCH_POINTS")
    return int(raw) if raw else DEFAULT_POINTS


@dataclasses.dataclass
class PreparedEngine:
    """A ready-to-query engine plus its workload description."""

    engine: StorageEngine
    series: str
    timestamps: object   # int64 array of the written points
    t_qs: int
    t_qe: int
    data_dir: str
    owns_dir: bool = False

    def close(self):
        """Release the engine (and temp dir, when owned)."""
        self.engine.close()
        if self.owns_dir:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def prepare_engine(dataset="MF03", n_points=None, chunk_points=1000,
                   overlap_pct=0, delete_pct=0, n_deletes=None,
                   delete_range=None, data_dir=None, seed=0,
                   points_per_page=None, tile_cache_bytes=0,
                   tile_cache_spans=64):
    """Build an engine loaded with one dataset under one workload.

    Args:
        dataset: one of the Table 2 profiles (BallSpeed/MF03/KOB/RcvTime).
        n_points: dataset size (defaults to :func:`bench_points`).
        chunk_points: points per chunk (Table 4's threshold).
        overlap_pct: target percentage of overlapping chunks (Fig. 12).
        delete_pct / n_deletes / delete_range: delete workload
            (Figs. 13/14).
        data_dir: reuse a directory; a temp dir is created otherwise.
        tile_cache_bytes / tile_cache_spans: M4 tile cache knobs (E15;
            0 bytes = off, matching every other experiment).
    """
    t, v = PROFILES[dataset].generate(bench_points(n_points), seed=seed)
    owns = data_dir is None
    if owns:
        data_dir = tempfile.mkdtemp(prefix="repro-bench-")
    config = StorageConfig(
        avg_series_point_number_threshold=chunk_points,
        points_per_page=points_per_page or chunk_points,
        tile_cache_bytes=tile_cache_bytes,
        tile_cache_spans=tile_cache_spans)
    engine = StorageEngine(data_dir, config)
    series = dataset.lower()
    load_with_overlap(engine, series, t, v, overlap_pct, seed=seed)
    if delete_pct or n_deletes:
        apply_delete_workload(engine, series, t, delete_pct=delete_pct,
                              n_deletes=n_deletes,
                              delete_range=delete_range, seed=seed)
    return PreparedEngine(engine=engine, series=series, timestamps=t,
                          t_qs=int(t[0]), t_qe=int(t[-1]) + 1,
                          data_dir=data_dir, owns_dir=owns)


def make_operator(prepared, kind, **kwargs):
    """An operator instance by kind: ``"m4lsm"``, ``"m4udf"`` or
    ``"m4lsm-tiles"`` (tile-cache-backed M4-LSM)."""
    if kind == "m4udf":
        return M4UDFOperator(prepared.engine, **kwargs)
    if kind == "m4lsm":
        return M4LSMOperator(prepared.engine, **kwargs)
    if kind == "m4lsm-tiles":
        from ..core.tiles import TiledM4Operator
        return TiledM4Operator(prepared.engine, **kwargs)
    raise ValueError("unknown operator kind %r" % kind)


@dataclasses.dataclass(frozen=True)
class QueryTiming:
    """One timed query: latency plus the I/O counters it accumulated.

    ``metrics`` is the engine's full metrics-registry snapshot taken
    right after the final run, so persisted bench rows carry the
    observability state (histogram quantiles included) alongside the
    wall-clock number.
    """

    seconds: float
    stats: object  # IoStats diff
    result: object  # M4Result
    metrics: object = None  # MetricsRegistry snapshot dict
    samples: tuple = ()  # every repeat's wall-clock, for noise floors

    def as_row(self):
        """A JSON-able row for BENCH_*.json result files."""
        return {
            "seconds": self.seconds,
            "stats": self.stats.as_dict() if self.stats is not None else {},
            "metrics": self.metrics,
        }


def timed_query(operator, prepared, w, t_qs=None, t_qe=None, repeats=1):
    """Run a query ``repeats`` times; keep the best latency.

    Counters are captured for the final run only (they are identical
    across runs: the decoded-page cache is per-query).
    """
    t_qs = prepared.t_qs if t_qs is None else t_qs
    t_qe = prepared.t_qe if t_qe is None else t_qe
    engine_stats = prepared.engine.stats
    samples = []
    result = None
    diff = None
    for _ in range(max(repeats, 1)):
        before = engine_stats.snapshot()
        started = time.perf_counter()
        result = operator.query(prepared.series, t_qs, t_qe, w)
        samples.append(time.perf_counter() - started)
        diff = engine_stats.diff(before)
    return QueryTiming(seconds=min(samples), stats=diff, result=result,
                       metrics=prepared.engine.metrics.snapshot(),
                       samples=tuple(samples))
