"""Full-pipeline integration across the encoding/compression matrix.

The benches default to TS_2DIFF + PLAIN uncompressed; this module drives
the whole write -> flush -> M4-LSM-query -> recovery path under every
other codec combination to confirm the operator stack is agnostic to the
on-disk format.
"""

import numpy as np
import pytest

from repro.core import M4LSMOperator, M4UDFOperator
from repro.storage import Compression, Encoding, StorageConfig, StorageEngine

VALUE_ENCODINGS = (Encoding.PLAIN,)
TIME_ENCODINGS = (Encoding.TS_2DIFF, Encoding.PLAIN)
COMPRESSIONS = (Compression.NONE, Compression.ZLIB)


def workload():
    rng = np.random.default_rng(21)
    t = np.cumsum(rng.integers(1, 5, 3000)).astype(np.int64)
    v = np.round(np.cumsum(rng.normal(0, 0.5, 3000)), 3)
    return t, v


@pytest.mark.parametrize("compression", COMPRESSIONS)
@pytest.mark.parametrize("time_encoding", TIME_ENCODINGS)
@pytest.mark.parametrize("value_encoding", VALUE_ENCODINGS)
def test_full_pipeline(tmp_path, time_encoding, value_encoding,
                       compression):
    t, v = workload()
    config = StorageConfig(avg_series_point_number_threshold=250,
                           points_per_page=125,
                           time_encoding=time_encoding,
                           value_encoding=value_encoding,
                           compression=compression)
    db = tmp_path / "db"
    with StorageEngine(db, config) as engine:
        engine.create_series("s")
        engine.write_batch("s", t, v)
        engine.write_batch("s", t[500:700], v[500:700] + 1)  # overwrite
        engine.delete("s", int(t[1000]), int(t[1100]))
        engine.flush_all()
        udf = M4UDFOperator(engine).query("s", int(t[0]),
                                          int(t[-1]) + 1, 17)
        lsm = M4LSMOperator(engine).query("s", int(t[0]),
                                          int(t[-1]) + 1, 17)
        assert udf.semantically_equal(lsm)
    # Reopen: the sealed files must decode identically after recovery.
    with StorageEngine(db, config) as reopened:
        again = M4LSMOperator(reopened).query("s", int(t[0]),
                                              int(t[-1]) + 1, 17)
        assert udf.semantically_equal(again)


def test_zlib_actually_shrinks_files(tmp_path):
    t, v = workload()
    sizes = {}
    for name, compression in (("raw", Compression.NONE),
                              ("zlib", Compression.ZLIB)):
        config = StorageConfig(avg_series_point_number_threshold=500,
                               time_encoding=Encoding.PLAIN,
                               value_encoding=Encoding.PLAIN,
                               compression=compression)
        with StorageEngine(tmp_path / name, config) as engine:
            engine.create_series("s")
            engine.write_batch("s", t, np.round(v, 1))
            engine.flush_all()
            sizes[name] = sum(
                meta.data_length for meta in engine.chunks_for("s"))
    assert sizes["zlib"] < sizes["raw"]
