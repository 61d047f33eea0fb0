"""Storage engine configuration, mirroring the paper's Table 4 settings.

The defaults correspond to the experimental setup of the paper: large
TsFiles, 1000 points per chunk, one page per chunk unless configured
smaller, and no background compaction (Table 4's NO_COMPACTION: it runs
only on an explicit ``repro compact``).
"""

from __future__ import annotations

import dataclasses

from .encoding import Compression, Encoding

#: Marks a sharded store root (written by ``repro.shard.placement``);
#: a single engine refuses to open a directory that holds it.
TOPOLOGY_FILE = "shards.json"


@dataclasses.dataclass
class StorageConfig:
    """Tunable knobs of :class:`repro.storage.engine.StorageEngine`.

    ``avg_series_point_number_threshold`` plays the role of IoTDB's
    parameter of the same name: the memtable flushes into a new chunk once
    a series accumulates this many points.
    """

    avg_series_point_number_threshold: int = 1000
    points_per_page: int = 1000
    chunks_per_tsfile: int = 64
    time_encoding: Encoding = Encoding.TS_2DIFF
    value_encoding: Encoding = Encoding.PLAIN
    compression: Compression = Compression.NONE
    metrics_enabled: bool = True      # repro.obs registry + span tracer
    slow_query_seconds: float = 1.0   # slow-query log threshold
    degraded_reads: bool = True       # skip+flag quarantined chunks (False: raise)
    tile_cache_bytes: int = 0         # M4 tile LRU budget (0 = off)
    tile_cache_spans: int = 64        # spans (grid cells) per tile

    def __post_init__(self):
        if self.avg_series_point_number_threshold <= 0:
            raise ValueError("flush threshold must be positive")
        if self.points_per_page <= 0:
            raise ValueError("points_per_page must be positive")
        if self.points_per_page > self.avg_series_point_number_threshold:
            # A chunk never holds fewer points than one page.
            self.points_per_page = self.avg_series_point_number_threshold
        if self.chunks_per_tsfile <= 0:
            raise ValueError("chunks_per_tsfile must be positive")
        if self.tile_cache_bytes < 0:
            raise ValueError("tile_cache_bytes must be >= 0")
        if self.tile_cache_spans < 1:
            raise ValueError("tile_cache_spans must be >= 1")


DEFAULT_CONFIG = StorageConfig()
