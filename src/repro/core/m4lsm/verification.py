"""Candidate verification (Sections 3.3 and 3.4).

FP/LP candidates need only the delete check of Proposition 3.1 — a
candidate at the extreme time with the largest version can never be
overwritten.  BP/TP candidates additionally need the overwrite check of
Proposition 3.3 against chunks with larger versions: first the free
interval test on chunk metadata, and only where the interval covers the
candidate's time, a point-existence check — one binary search on a view
whose data is already loaded (every fragment of a split chunk is), else
an index probe (``exists``, read type (a) of Table 1) that decodes just
the page containing the probed timestamp.
"""

from __future__ import annotations

import dataclasses

#: Verification verdicts.
LATEST = "latest"
DELETED = "deleted"
OVERWRITTEN = "overwritten"


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Outcome of verifying one candidate point."""

    status: str        # LATEST / DELETED / OVERWRITTEN
    delete: object = None    # the killing Delete, when DELETED
    by_view: object = None   # the overwriting ChunkView, when OVERWRITTEN

    def is_latest(self):
        """True when the candidate survived every check."""
        return self.status == LATEST


def covering_delete(point, version, deletes):
    """The first delete newer than ``version`` covering ``point.t``.

    ``deletes`` includes the span's virtual deletes, so an out-of-span
    candidate is reported exactly like a deleted one.
    """
    for delete in deletes:
        if delete.version > version and delete.covers(point.t):
            return delete
    return None


def verify_fp_lp(point, view, deletes):
    """Proposition 3.1: FP/LP candidates die only by deletes."""
    delete = covering_delete(point, view.version, deletes)
    if delete is not None:
        return Verdict(DELETED, delete=delete)
    return Verdict(LATEST)


def verify_bp_tp(point, view, all_views, deletes, data_reader,
                 use_regression=True):
    """Proposition 3.3: BP/TP candidates die by deletes *or* overwrites.

    The overwrite check follows Section 3.4's three cases: newer chunks
    whose metadata interval does not cover the candidate's time are
    dismissed for free; covering ones are searched in their loaded data
    or probed through their chunk index (one page decode at most per
    probe).
    """
    delete = covering_delete(point, view.version, deletes)
    if delete is not None:
        return Verdict(DELETED, delete=delete)
    for other in all_views:
        if other.version <= view.version:
            continue
        if not other.interval_covers(point.t):
            continue  # case (1): free prune on metadata interval
        if other.has_time(point.t, data_reader, use_regression):
            return Verdict(OVERWRITTEN, by_view=other)
    return Verdict(LATEST)
