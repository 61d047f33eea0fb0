"""Converter for pre-schema ``BENCH_*.json`` artifacts.

Early artifacts were hand-rolled ``{"rows": [...]}`` files, each with its
own field set.  This module lifts those three shapes into the versioned
schema (:mod:`repro.bench.schema`) so `scripts/generate_experiments.py`
and the gate only ever consume validated artifacts.  The rows
themselves are preserved verbatim — only the envelope (schema version,
kind, substrate meta) is added, with ``meta.converted = true`` and
unknown substrate fields marked ``"unknown"`` because the original
runs never recorded them.

Run as a script to convert files in place (already-valid artifacts are
left untouched)::

    PYTHONPATH=src python -m repro.bench.convert benchmarks/BENCH_*.json
"""

from __future__ import annotations

import json
import os
import sys

from .schema import (
    SCHEMA_VERSION,
    SchemaError,
    validate_artifact,
    write_artifact,
)

#: Row fields that uniquely identify each legacy artifact kind.
_KIND_SIGNATURES = (
    ("durability", "verify_on_seconds"),
    ("tiles", "p50_speedup"),
    ("server", "shed_rate"),
)


def detect_kind(rows):
    """The artifact kind implied by a legacy row's field names."""
    if not rows or not isinstance(rows[0], dict):
        raise SchemaError("cannot detect artifact kind: no rows")
    for kind, signature in _KIND_SIGNATURES:
        if signature in rows[0]:
            return kind
    raise SchemaError("cannot detect artifact kind from row fields %s"
                      % sorted(rows[0]))


def convert_legacy(doc, created_unix=0.0):
    """Wrap a legacy ``{"rows": [...]}`` document in the schema.

    Substrate meta is unknowable after the fact, so every field the
    original run didn't record is ``"unknown"`` / ``0`` — which also
    makes the gate treat wall-clock comparisons against converted
    artifacts as advisory (mismatched machine ids).
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise SchemaError("legacy artifact must be an object with a "
                          "'rows' list")
    rows = doc["rows"]
    return validate_artifact({
        "schema": SCHEMA_VERSION,
        "kind": detect_kind(rows),
        "meta": {
            "git_sha": "unknown",
            "python": "unknown",
            "platform": "unknown",
            "machine": "unknown",
            "cpu_count": 0,
            "machine_id": "unknown",
            "points": 0,
            "created_unix": float(created_unix),
            "converted": True,
        },
        "rows": rows,
    })


def convert_file(path):
    """Convert one file in place; returns ``"converted"``, ``"ok"``
    (already schema-valid) — or raises :class:`SchemaError`."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict) and doc.get("schema") == SCHEMA_VERSION:
        validate_artifact(doc, path=path)
        return "ok"
    converted = convert_legacy(doc, created_unix=os.path.getmtime(path))
    write_artifact(path, converted)
    return "converted"


def main(argv=None):
    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m repro.bench.convert BENCH_*.json",
              file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            print("%s: %s" % (path, convert_file(path)))
        except (SchemaError, OSError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
