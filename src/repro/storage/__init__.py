"""LSM-based time series storage, modelled on Apache IoTDB's TsFile layer.

Public surface: the engine, its configuration, the reader trio, deletes,
chunk/page metadata and the merge function.
"""

from .catalog import CatalogFile
from .chunk import ChunkMetadata, write_chunk
from .compaction import compact_all, compact_series
from .config import DEFAULT_CONFIG, StorageConfig
from .deletes import TIME_MAX, TIME_MIN, Delete, DeleteList
from .encoding import Compression, Encoding
from .engine import StorageEngine
from .faultfs import FaultInjector, FaultRule, retry_io
from .fsck import FsckReport, fsck_store
from .iostats import IoStats
from .locks import RWLock
from .memtable import MemTable
from .merge import merge_arrays, merge_reference, merge_to_series
from .mods import ModsFile
from .page import PageMetadata, split_rows
from .quarantine import QuarantineRegistry
from .readers import DataReader, MergeReader, MetadataReader
from .statistics import Statistics
from .recovery import list_tsfiles, recover_engine_state
from .tsfile import TsFileReader, TsFileWriter
from .versions import VERSION_INFINITY, VersionAllocator
from .wal import WalManager, WriteAheadLog

__all__ = [
    "CatalogFile",
    "ChunkMetadata",
    "Compression",
    "DEFAULT_CONFIG",
    "DataReader",
    "Delete",
    "DeleteList",
    "Encoding",
    "FaultInjector",
    "FaultRule",
    "FsckReport",
    "IoStats",
    "MemTable",
    "MergeReader",
    "MetadataReader",
    "ModsFile",
    "PageMetadata",
    "QuarantineRegistry",
    "RWLock",
    "Statistics",
    "StorageConfig",
    "StorageEngine",
    "TIME_MAX",
    "TIME_MIN",
    "TsFileReader",
    "TsFileWriter",
    "VERSION_INFINITY",
    "VersionAllocator",
    "WalManager",
    "WriteAheadLog",
    "compact_all",
    "compact_series",
    "fsck_store",
    "list_tsfiles",
    "retry_io",
    "merge_arrays",
    "merge_reference",
    "merge_to_series",
    "recover_engine_state",
    "split_rows",
    "write_chunk",
]
