"""Tests for IoStats arithmetic: diff, add, snapshot, reset.

The counters are the substrate-independent cost signal everything in
the repo reports (benchmarks, span traces, ``repro stats``), so the
arithmetic has to be exact and must pick up new fields automatically.
"""

import dataclasses

from repro.storage.iostats import IoStats

FIELDS = [f.name for f in dataclasses.fields(IoStats)]


class TestArithmetic:
    def test_diff_covers_every_field(self):
        stats = IoStats()
        snap = stats.snapshot()
        for i, name in enumerate(FIELDS):
            setattr(stats, name, getattr(stats, name) + i + 1)
        diff = stats.diff(snap)
        for i, name in enumerate(FIELDS):
            assert getattr(diff, name) == i + 1

    def test_diff_does_not_mutate_operands(self):
        stats = IoStats(chunk_loads=5)
        snap = IoStats(chunk_loads=2)
        stats.diff(snap)
        assert stats.chunk_loads == 5 and snap.chunk_loads == 2

    def test_add_covers_every_field(self):
        a = IoStats(**{name: 1 for name in FIELDS})
        b = IoStats(**{name: 2 for name in FIELDS})
        total = a + b
        assert all(getattr(total, name) == 3 for name in FIELDS)
        # Addition builds a fresh object.
        assert all(getattr(a, name) == 1 for name in FIELDS)

    def test_add_then_diff_round_trips(self):
        a = IoStats(pages_decoded=7, index_lookups=3)
        b = IoStats(pages_decoded=2, bytes_read=10)
        assert (a + b).diff(b).as_dict() == a.as_dict()

    def test_snapshot_is_independent_both_ways(self):
        stats = IoStats(metadata_reads=4)
        snap = stats.snapshot()
        stats.metadata_reads = 9
        snap.points_merged = 5
        assert snap.metadata_reads == 4
        assert stats.points_merged == 0

    def test_reset_zeroes_every_field(self):
        stats = IoStats(**{name: 7 for name in FIELDS})
        stats.reset()
        assert all(getattr(stats, name) == 0 for name in FIELDS)

    def test_as_dict_matches_fields(self):
        assert set(IoStats().as_dict()) == set(FIELDS)
        assert IoStats(index_lookups=2).as_dict()["index_lookups"] == 2

