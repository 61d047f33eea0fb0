"""Unit tests for deletes and delete lists (Definition 2.5)."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import TIME_MAX, TIME_MIN, Delete, DeleteList
from repro.storage.versions import VERSION_INFINITY


class TestDelete:
    def test_covers_closed_range(self):
        delete = Delete(10, 20, 1)
        assert delete.covers(10) and delete.covers(20) and delete.covers(15)
        assert not delete.covers(9) and not delete.covers(21)

    def test_empty_range_rejected(self):
        with pytest.raises(StorageError):
            Delete(5, 4, 1)

    def test_point_range_allowed(self):
        assert Delete(5, 5, 1).covers(5)

    def test_real_delete_not_virtual(self):
        assert not Delete(0, 1, 7).is_virtual()


class TestDeleteList:
    @pytest.fixture
    def deletes(self):
        return DeleteList([Delete(10, 20, 2), Delete(50, 60, 5)])

    def test_covers_respects_min_version(self, deletes):
        assert deletes.covers(15)
        assert deletes.covers(15, min_version=1)
        assert not deletes.covers(15, min_version=2)  # delete v2 not newer
        assert deletes.covers(55, min_version=2)

    def test_versions_must_increase(self, deletes):
        with pytest.raises(StorageError):
            deletes.add(Delete(0, 1, 3))

    def test_virtual_appends_regardless_of_version(self, deletes):
        deletes.add(Delete(TIME_MIN, 4, VERSION_INFINITY))
        deletes.add(Delete(100, TIME_MAX, VERSION_INFINITY))
        assert len(deletes) == 4

    def test_after_version(self, deletes):
        assert len(deletes.after_version(2)) == 1
        assert len(deletes.after_version(0)) == 2

    def test_overlapping(self, deletes):
        hits = deletes.overlapping(15, 55)
        assert len(hits) == 2
        assert deletes.overlapping(21, 49) == []
        assert len(deletes.overlapping(20, 20)) == 1

    def test_keep_mask_vectorized(self, deletes):
        t = np.array([5, 10, 20, 30, 55, 61], dtype=np.int64)
        mask = deletes.keep_mask(t, chunk_version=1)
        assert mask.tolist() == [True, False, False, True, False, True]

    def test_keep_mask_skips_older_deletes(self, deletes):
        t = np.array([15, 55], dtype=np.int64)
        mask = deletes.keep_mask(t, chunk_version=3)  # only v5 applies
        assert mask.tolist() == [True, False]

    def test_apply_no_copy_when_nothing_deleted(self, deletes):
        t = np.array([1, 2], dtype=np.int64)
        v = np.array([1.0, 2.0])
        out_t, out_v = deletes.apply(t, v, chunk_version=1)
        assert out_t is t and out_v is v


class TestFullyDeletes:
    def test_single_covering_delete(self):
        deletes = DeleteList([Delete(0, 100, 2)])
        assert deletes.fully_deletes(10, 50, chunk_version=1)
        assert not deletes.fully_deletes(10, 50, chunk_version=3)

    def test_stitched_coverage(self):
        deletes = DeleteList([Delete(0, 49, 2), Delete(50, 100, 3)])
        assert deletes.fully_deletes(10, 90, 1)

    def test_gap_breaks_coverage(self):
        deletes = DeleteList([Delete(0, 40, 2), Delete(42, 100, 3)])
        assert not deletes.fully_deletes(10, 90, 1)

    def test_adjacent_integer_ranges_stitch(self):
        # [0,40] and [41,100] cover every integer timestamp in [10,90].
        deletes = DeleteList([Delete(0, 40, 2), Delete(41, 100, 3)])
        assert deletes.fully_deletes(10, 90, 1)

    def test_partial_coverage(self):
        deletes = DeleteList([Delete(0, 40, 2)])
        assert not deletes.fully_deletes(10, 90, 1)
        assert deletes.fully_deletes(10, 40, 1)
