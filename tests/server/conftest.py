"""Fixtures for the server suite: loaded engines behind live servers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.server import ReproClient, ServerConfig, start_server
from repro.storage import StorageConfig, StorageEngine


@dataclasses.dataclass
class Served:
    """A running server plus handles to everything behind it."""

    engine: object
    handle: object
    client: object
    data_dir: object
    series: str = "ball"


def load_ball(engine, n=6000, series="ball"):
    """A deterministic sine-ish series, flushed and query-ready."""
    rng = np.random.default_rng(7)
    t = np.arange(n, dtype=np.int64) * 7
    v = np.sin(t / 211.0) * 10 + rng.normal(0, 0.5, n)
    engine.create_series(series)
    engine.write_batch(series, t, v)
    engine.flush_all()
    return t


@pytest.fixture
def make_served(tmp_path):
    """Factory: boot a server over a fresh loaded store.

    All servers start on an ephemeral port with debug hooks on (the
    tests drive timeouts/shedding with artificial ``sleep_ms`` work).
    Everything is drained and closed at teardown.
    """
    alive = []

    def build(n=6000, storage_kwargs=None, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        config_kwargs.setdefault("quiet", True)
        config_kwargs.setdefault("debug_hooks", True)
        data_dir = tmp_path / ("db%d" % len(alive))
        engine = StorageEngine(
            data_dir,
            StorageConfig(avg_series_point_number_threshold=200,
                          **(storage_kwargs or {})))
        load_ball(engine, n=n)
        handle = start_server(engine, ServerConfig(**config_kwargs))
        served = Served(engine=engine, handle=handle,
                        client=ReproClient(handle.url), data_dir=data_dir)
        alive.append(served)
        return served

    yield build
    for served in alive:
        served.handle.stop()
        served.engine.close()


@pytest.fixture
def served(make_served):
    """One default server (4 workers, queue of 16)."""
    return make_served()
