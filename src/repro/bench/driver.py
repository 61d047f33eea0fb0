"""Scenario-matrix benchmark driver (IoTDB-Benchmark style).

The paper sweeps one axis at a time; every TSMS benchmark suite sweeps
a *matrix*, because the axes interact (overlap changes what deletes
cost, ingest changes what the tile cache saves, cardinality changes
everything).  This driver owns that matrix:

* :func:`default_matrix` — the standing scenario grid: cardinality x
  overlap % x delete % x operator (m4udf/m4lsm/m4lsm-tiles) x
  tile-cache on/off x ingest rate, each cell flagged ``gate=True`` when
  the CI regression gate watches it;
* :func:`run_matrix` — runs cells through the existing
  :func:`~repro.bench.harness.prepare_engine` /
  :func:`~repro.bench.harness.timed_query` harness, **reusing one
  engine across all cells that share a store fingerprint**, and emits
  one schema-validated artifact (see :mod:`repro.bench.schema`) with
  per-cell wall-clock p50/p99 + samples, I/O counters, and an identity
  check against the M4-UDF reference answer;
* noise-floor helpers (:func:`median`, :func:`rel_spread`,
  :func:`noise_allowance`, :func:`within_factor`, :func:`wall_ratio`) —
  the *only* sanctioned way to assert on wall-clock numbers anywhere in
  the benchmark suite.  I/O counters are deterministic and are the
  authoritative signal; wall-clock is asserted with repeats and an
  absolute noise floor, never from a single cold run.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np

from ..datasets.generators import PROFILES
from ..datasets.workloads import load_with_overlap
from .harness import bench_points, make_operator, prepare_engine
from .schema import new_artifact

#: Wall-clock below this is indistinguishable from scheduler noise on
#: this substrate; ratio assertions clamp to it (see :func:`wall_ratio`).
WALL_NOISE_FLOOR_SECONDS = 5e-3

#: Tile-cache byte budget for ``tiles=True`` cells.
TILE_CACHE_BYTES = 32 * 1024 * 1024

#: Points per batch offered by the bench ingest pump.
INGEST_BATCH_POINTS = 500

#: Ingest queue budget during bench cells (~4 batches): small enough
#: that the overload cell visibly sheds, large enough that sustained
#: rates never do.
INGEST_QUEUE_BYTES = 32 * 1024

#: The pump runs at least this long even when the timed queries finish
#: faster, so ingest cells always measure queries *during* ingest.
INGEST_MIN_SECONDS = 0.25

#: The series the bench pump appends to.  Dedicated — never the queried
#: series — so the gated read-side I/O counters stay deterministic.
INGEST_SERIES = "ingest-feed"

#: Series-count ceiling applied to extra cardinality series data so a
#: high-cardinality cell stresses the catalog, not the generator.
_EXTRA_SEED_BASE = 1000


# --------------------------------------------------------------------
# noise-floor helpers


def median(values):
    """The p50 of a sequence (midpoint of the sorted values)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quantile(values, q):
    """Nearest-rank quantile (q in [0, 1]) of a sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of empty sequence")
    index = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[index]


def rel_spread(samples):
    """(max - min) / median of repeated wall-clock samples.

    The driver's noise estimate: when repeats of the *same* query vary
    by 30%, a 20% cross-run difference means nothing.
    """
    mid = median(samples)
    if mid <= 0:
        return 0.0
    return (max(samples) - min(samples)) / mid


def noise_allowance(base_samples, cur_samples, threshold):
    """The relative regression allowance for one wall-clock comparison.

    At least ``threshold``; widened to twice the worst observed
    relative spread when the repeated runs themselves were noisier than
    that (the repeat-and-median guard the fig-test assertions and the
    CI gate both ride on).
    """
    spread = max(rel_spread(base_samples), rel_spread(cur_samples))
    return max(threshold, 2.0 * spread)


def wall_ratio(value_seconds, baseline_seconds,
               floor=WALL_NOISE_FLOOR_SECONDS):
    """``value / baseline`` with both clamped up to the noise floor.

    Two sub-floor latencies compare as 1.0: there is no signal in
    microsecond differences on a shared-runner substrate.
    """
    return max(value_seconds, floor) / max(baseline_seconds, floor)


def within_factor(value_seconds, baseline_seconds, factor,
                  floor=WALL_NOISE_FLOOR_SECONDS):
    """Noise-floored upper-bound check for wall-clock assertions.

    True when ``value`` is at most ``factor`` times the baseline after
    clamping both to the noise floor — i.e. a sub-floor latency can
    never fail, and a sub-floor baseline doesn't make the bound
    impossibly tight.
    """
    return wall_ratio(value_seconds, baseline_seconds, floor) <= factor


def grew_by(value_seconds, baseline_seconds, factor,
            floor=WALL_NOISE_FLOOR_SECONDS):
    """Noise-floored lower-bound check (latency must have grown).

    True when ``value`` exceeds ``factor`` times the baseline after
    clamping to the noise floor, *or* when the comparison carries no
    signal because the larger value itself sits under the floor (a
    tiny-scale run cannot refute a growth claim).
    """
    if value_seconds <= floor:
        return True
    return wall_ratio(value_seconds, baseline_seconds, floor) > factor


# --------------------------------------------------------------------
# the scenario matrix


@dataclasses.dataclass(frozen=True)
class CellConfig:
    """One scenario cell: a store shape plus the operator queried."""

    dataset: str = "MF03"
    cardinality: int = 1
    overlap_pct: int = 0
    delete_pct: int = 0
    operator: str = "m4lsm"       # m4udf | m4lsm | m4lsm-tiles
    tiles: bool = False           # engine-level tile cache on/off
    w: int = 128
    seed: int = 0
    ingest_rate: int = 0          # points/s streamed while querying
    skew: str = "none"            # arrival order: none | late

    @property
    def cell_id(self):
        base = ("card=%d;ov=%d;del=%d;op=%s;tiles=%s"
                % (self.cardinality, self.overlap_pct, self.delete_pct,
                   self.operator, "on" if self.tiles else "off"))
        if self.ingest_rate:
            base += ";ingest=%d;skew=%s" % (self.ingest_rate, self.skew)
        return base

    def as_dict(self):
        return dataclasses.asdict(self)

    def store_fingerprint(self, points):
        """Everything that shapes the store (NOT the operator / w).

        Cells with equal fingerprints are served by one shared engine —
        the driver's engine-reuse key.  The ingest axes are part of the
        fingerprint because streaming cells *mutate* their store; an
        idle cell must never inherit a pumped-into engine.
        """
        return (self.dataset, points, self.cardinality, self.overlap_pct,
                self.delete_pct, self.tiles, self.seed,
                self.ingest_rate, self.skew)


@dataclasses.dataclass(frozen=True)
class Cell:
    """A matrix entry: the config plus whether CI gates on it."""

    config: CellConfig
    gate: bool = False


def default_matrix(dataset="MF03", w=128):
    """The standing scenario matrix (27 cells, 12 gated).

    * base grid: cardinality {1,8} x overlap {0,20}% x delete {0,20}%
      x operator {m4udf, m4lsm} — gated at cardinality 1;
    * tile-cache arm: same store with the engine cache on, plain
      M4-LSM vs the tiled operator — gated at overlap 20;
    * cardinality arm: a 32-series store, ungated (prep-heavy; run on
      full sweeps, not per-PR);
    * ingest arm: queries timed *while* a pump streams writes into a
      dedicated series — sustained in-order rate for plain and tiled
      M4-LSM (gated: dashboards-during-ingest is the live subsystem's
      contract), a late-arrival skew variant exercising the
      out-of-order invalidation fallback, and an ungated overload cell
      whose offered rate exceeds the queue budget so backpressure
      sheds are visible in the artifact.
    """
    cells = []
    for card in (1, 8):
        for ov in (0, 20):
            for dl in (0, 20):
                for op in ("m4udf", "m4lsm"):
                    cells.append(Cell(CellConfig(
                        dataset=dataset, cardinality=card, overlap_pct=ov,
                        delete_pct=dl, operator=op, w=w),
                        gate=(card == 1)))
    for ov in (0, 20):
        for op in ("m4lsm", "m4lsm-tiles"):
            cells.append(Cell(CellConfig(
                dataset=dataset, overlap_pct=ov, delete_pct=20,
                operator=op, tiles=True, w=w), gate=(ov == 20)))
    for op in ("m4udf", "m4lsm"):
        cells.append(Cell(CellConfig(
            dataset=dataset, cardinality=32, operator=op, w=w),
            gate=False))
    for op in ("m4lsm", "m4lsm-tiles"):
        for skew in ("none", "late"):
            cells.append(Cell(CellConfig(
                dataset=dataset, operator=op, tiles=True,
                ingest_rate=20_000, skew=skew, w=w),
                gate=(skew == "none")))
    cells.append(Cell(CellConfig(
        dataset=dataset, operator="m4lsm", tiles=True,
        ingest_rate=400_000, skew="none", w=w), gate=False))
    return cells


def select_cells(cells, pattern=None, gated_only=False):
    """Filter a cell list by ``--cells`` syntax.

    ``pattern`` is a comma-separated list of substrings matched against
    cell ids (a cell survives when *any* substring matches); the
    special token ``gated`` selects gated cells.
    """
    chosen = list(cells)
    if gated_only:
        chosen = [c for c in chosen if c.gate]
    if pattern:
        needles = [p.strip() for p in pattern.split(",") if p.strip()]
        if "gated" in needles:
            needles.remove("gated")
            chosen = [c for c in chosen if c.gate]
        if needles:
            chosen = [c for c in chosen
                      if any(n in c.config.cell_id for n in needles)]
    return chosen


# --------------------------------------------------------------------
# data generation + engine preparation


def generate_cell_data(config, points):
    """The deterministic per-series data of one cell's store.

    Returns ``[(series_name, timestamps, values), ...]`` — the primary
    series first, then the ``cardinality - 1`` extra series, each from
    its own derived seed.  Byte-identical across calls with equal
    arguments (asserted by the determinism suite).
    """
    profile = PROFILES[config.dataset]
    out = [(config.dataset.lower(),
            *profile.generate(points, seed=config.seed))]
    for i in range(config.cardinality - 1):
        out.append(("extra-%03d" % i,
                    *profile.generate(points,
                                      seed=config.seed
                                      + _EXTRA_SEED_BASE + i)))
    return out


def prepare_cell_engine(config, points):
    """A :class:`~repro.bench.harness.PreparedEngine` for one store
    fingerprint: the primary series via :func:`prepare_engine` (with
    the cell's overlap/delete workload), plus the extra cardinality
    series written with the same out-of-order overlap profile.
    """
    prepared = prepare_engine(
        dataset=config.dataset, n_points=points,
        overlap_pct=config.overlap_pct, delete_pct=config.delete_pct,
        seed=config.seed,
        tile_cache_bytes=TILE_CACHE_BYTES if config.tiles else 0)
    for name, t, v in generate_cell_data(config, points)[1:]:
        load_with_overlap(prepared.engine, name, t, v,
                          config.overlap_pct, seed=config.seed)
    return prepared


# --------------------------------------------------------------------
# the bench ingest pump


class _IngestPump:
    """Streams writes into :data:`INGEST_SERIES` while a cell is timed.

    Open-loop: batches fire on their offered schedule whether or not
    the last one was accepted, so an overloaded queue sheds (counted)
    instead of silently slowing the offered rate — the same contract
    as the loadgen pump, but in-process through
    :class:`repro.ingest.IngestController`.  ``skew="late"`` holds
    back every fourth batch and re-emits it two batches later, driving
    the engine's out-of-order invalidation fallback instead of the
    incremental tail path.

    The pump targets a dedicated series so the *queried* series' tiles
    and read-side I/O counters — the gated signal — stay untouched.
    """

    def __init__(self, engine, config):
        from ..ingest import IngestController
        self._controller = IngestController(
            engine, queue_bytes=INGEST_QUEUE_BYTES, retry_after_seconds=0)
        # Resume after the series' tail so skew="none" really is the
        # in-order append path, even when a previous cell's pump
        # already wrote into this shared engine.
        self._t_next = 0
        if INGEST_SERIES in engine.series_names():
            chunks = engine.chunks_for(INGEST_SERIES)
            if chunks:
                self._t_next = max(c.end_time for c in chunks) + 1
        self._rate = int(config.ingest_rate)
        self._skew = config.skew
        self._stop = threading.Event()
        self._started = None
        self.batches = 0
        self.points = 0
        self.sheds = 0
        self.late_batches = 0
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="bench-ingest-pump")

    def __enter__(self):
        self._started = time.monotonic()
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        # Hold the window open to the minimum so sub-millisecond query
        # cells still measure "during ingest", not "after one batch".
        remaining = self._started + INGEST_MIN_SECONDS - time.monotonic()
        if remaining > 0:
            time.sleep(remaining)
        self._stop.set()
        self._thread.join(timeout=30)
        self._controller.close()

    def summary(self):
        """The per-cell artifact row's ``ingest`` object."""
        return {"offered_rate": self._rate, "skew": self._skew,
                "batches": int(self.batches), "points": int(self.points),
                "sheds": int(self.sheds),
                "late_batches": int(self.late_batches)}

    def _submit(self, t, v, late=False):
        from ..errors import IngestBackpressureError
        try:
            self._controller.submit(INGEST_SERIES, t, v)
        except IngestBackpressureError:
            self.sheds += 1
            return
        self.batches += 1
        self.points += t.size
        if late:
            self.late_batches += 1

    def _run(self):
        batch = INGEST_BATCH_POINTS
        interval = batch / float(self._rate)
        begin = time.monotonic()
        held = None  # (t, v) stashed for late re-emission
        held_at = 0
        k = 0
        t_next = self._t_next
        while not self._stop.is_set():
            delay = begin + k * interval - time.monotonic()
            if delay > 0 and self._stop.wait(delay):
                return
            t = np.arange(t_next, t_next + batch, dtype=np.int64)
            v = np.sin(t * 1e-3)
            t_next += batch
            if self._skew == "late" and held is None and k % 4 == 0:
                held, held_at = (t, v), k
            else:
                self._submit(t, v)
                if held is not None and k >= held_at + 2:
                    self._submit(*held, late=True)
                    held = None
            k += 1
        if held is not None:
            self._submit(*held, late=True)


# --------------------------------------------------------------------
# running cells


def _timed_samples(operator, prepared, qs, qe, w, repeats):
    """``repeats`` timed runs: all wall samples + final-run counters.

    Unlike :func:`~repro.bench.harness.timed_query` (best-of-N, one
    scalar) this keeps every sample so artifacts can carry the noise
    floor with the number.  Counters come from the final run — for the
    tiled operator that is the *warmed* state, which is the state the
    cache exists to serve.
    """
    stats = prepared.engine.stats
    samples, result, diff = [], None, None
    for _ in range(max(repeats, 1)):
        before = stats.snapshot()
        started = time.perf_counter()
        result = operator.query(prepared.series, qs, qe, w)
        samples.append(time.perf_counter() - started)
        diff = stats.diff(before)
    return samples, result, diff


def _cell_viewport(config, prepared):
    """The query range of one cell.

    Plain cells query the full series extent like every paper
    experiment.  ``tiles=True`` cells query the *snapped* viewport
    (:func:`repro.core.tiles.snap_viewport`) instead — an unaligned
    range would bypass the cache entirely and measure nothing; snapping
    is exactly what a dashboard front end does before asking.
    """
    if not config.tiles:
        return prepared.t_qs, prepared.t_qe
    from ..core.tiles import snap_viewport
    return snap_viewport(prepared.t_qs, prepared.t_qe, config.w)


def _identity(config, result, reference):
    """The cell's identity check against the reference answer.

    * ``m4udf`` is the reference — nothing to check against;
    * ``m4lsm`` must be semantically equal to M4-UDF (the paper's
      exactness claim);
    * ``m4lsm-tiles`` must be *byte*-equal to plain M4-LSM over the
      same viewport (the cache is a memoization, never an
      approximation).
    """
    if config.operator == "m4lsm":
        return {"checked": True,
                "equal": bool(result.semantically_equal(reference))}
    if config.operator == "m4lsm-tiles":
        return {"checked": True, "equal": bool(result == reference)}
    return {"checked": False, "equal": True}


def run_matrix(cells=None, points=None, repeats=5, pattern=None,
               gated_only=False, progress=None):
    """Run the scenario matrix and return a validated artifact doc.

    Cells are grouped by store fingerprint so every group shares one
    prepared engine (closed before the next group opens); within a
    group the reference answers (M4-UDF, plain M4-LSM) are computed
    once and reused by every cell's identity check.
    """
    say = progress or (lambda *_: None)
    chosen = select_cells(cells if cells is not None else default_matrix(),
                          pattern=pattern, gated_only=gated_only)
    if not chosen:
        raise ValueError("cell selection matched nothing")
    points = bench_points(points)
    groups = {}
    for cell in chosen:
        groups.setdefault(cell.config.store_fingerprint(points),
                          []).append(cell)
    rows = []
    for i, (fingerprint, group) in enumerate(sorted(groups.items(),
                                                    key=lambda kv: kv[0])):
        config = group[0].config
        say("engine %d/%d: card=%d ov=%d del=%d tiles=%s (%d cells)"
            % (i + 1, len(groups), config.cardinality, config.overlap_pct,
               config.delete_pct, "on" if config.tiles else "off",
               len(group)))
        with prepare_cell_engine(config, points) as prepared:
            references = {}

            def reference(kind, qs, qe, w):
                # One reference query per (operator, viewport, w) per
                # engine, shared by every cell's identity check.
                key = (kind, qs, qe, w)
                if key not in references:
                    references[key] = make_operator(
                        prepared, kind).query(prepared.series, qs, qe, w)
                return references[key]

            for cell in sorted(group,
                               key=lambda c: c.config.operator):
                cfg = cell.config
                qs, qe = _cell_viewport(cfg, prepared)
                operator = make_operator(prepared, cfg.operator)
                ingest = None
                if cfg.ingest_rate:
                    with _IngestPump(prepared.engine, cfg) as pump:
                        samples, result, diff = _timed_samples(
                            operator, prepared, qs, qe, cfg.w, repeats)
                    ingest = pump.summary()
                else:
                    samples, result, diff = _timed_samples(
                        operator, prepared, qs, qe, cfg.w, repeats)
                ref_kind = ("m4lsm" if cfg.operator == "m4lsm-tiles"
                            else "m4udf")
                identity = _identity(
                    cfg, result,
                    reference(ref_kind, qs, qe, cfg.w)
                    if cfg.operator != "m4udf" else None)
                rows.append({
                    "id": cfg.cell_id,
                    "config": cfg.as_dict(),
                    "gate": cell.gate,
                    "repeats": int(repeats),
                    "wall": {
                        "p50_seconds": median(samples),
                        "p99_seconds": quantile(samples, 0.99),
                        "samples": samples,
                    },
                    "io": diff.as_dict(),
                    "identity": identity,
                })
                if ingest is not None:
                    rows[-1]["ingest"] = ingest
                say("  %s  p50=%.4fs  chunk_loads=%d  identity=%s%s"
                    % (cfg.cell_id, median(samples), diff.chunk_loads,
                       "ok" if identity["equal"] else "MISMATCH",
                       "  ingest=%dpts sheds=%d" % (ingest["points"],
                                                    ingest["sheds"])
                       if ingest else ""))
    return new_artifact("matrix", rows, points, repeats=int(repeats))
