"""Versioned schema for the ``benchmarks/BENCH_*.json`` artifacts.

Every persisted benchmark result is one JSON document::

    {
      "schema": "repro-bench/1",
      "kind": "matrix" | "tiles",
      "meta":  { git_sha, python, platform, machine, cpu_count,
                 machine_id, points, repeats, created_unix, ... },
      "rows":  [ {...}, ... ]          # kind-specific row fields
    }

The schema exists so that artifacts written by different PRs stay
comparable: :func:`load_artifact` refuses anything it cannot gate on
with a one-line error (the contract ``repro bench --check`` and the
EXPERIMENTS.md generator rely on), and :func:`write_artifact` makes it
impossible to persist an invalid document in the first place.

Validation is deliberately hand-rolled (stdlib only, no ``jsonschema``
dependency): a table of required per-kind row fields plus type checks,
raising :class:`SchemaError` whose message always fits on one line.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time

from ..errors import ReproError

#: Current artifact schema version.  Bumping it orphans every
#: checked-in artifact, so rewrite them in the same change.
SCHEMA_VERSION = "repro-bench/1"

_NUM = (int, float)

#: Required meta fields and their types.
META_FIELDS = {
    "git_sha": str,
    "python": str,
    "platform": str,
    "machine": str,
    "cpu_count": int,
    "machine_id": str,
    "points": int,
    "created_unix": _NUM,
}

#: Required row fields per artifact kind.
ROW_FIELDS = {
    "matrix": {
        "id": str,
        "config": dict,
        "gate": bool,
        "repeats": int,
        "wall": dict,
        "io": dict,
        "identity": dict,
    },
    "tiles": {
        "experiment": str,
        "pass": str,
        "viewports": int,
        "p50_seconds": _NUM,
        "total_seconds": _NUM,
        "p50_speedup": _NUM,
        "tile_hits": int,
        "tile_misses": int,
        "identical": bool,
    },
}

#: Required fields inside a matrix row's ``wall`` object.
WALL_FIELDS = {"p50_seconds": _NUM, "p99_seconds": _NUM, "samples": list}

#: Required fields inside a matrix row's ``identity`` object.
IDENTITY_FIELDS = {"checked": bool, "equal": bool}


class SchemaError(ReproError):
    """An artifact that cannot be trusted by the gate (one-line msg)."""


def _fail(path, message):
    prefix = "%s: " % path if path else ""
    raise SchemaError("%sinvalid bench artifact: %s" % (prefix, message))


def _check_fields(obj, spec, where, path):
    for name, types in spec.items():
        if name not in obj:
            _fail(path, "%s is missing required field %r" % (where, name))
        value = obj[name]
        # bool is an int subclass; never accept it where a number is due.
        if types is int and isinstance(value, bool):
            _fail(path, "%s field %r must be int, got bool" % (where, name))
        if types is _NUM and isinstance(value, bool):
            _fail(path, "%s field %r must be a number, got bool"
                  % (where, name))
        if not isinstance(value, types):
            _fail(path, "%s field %r must be %s, got %s"
                  % (where, name,
                     getattr(types, "__name__", "a number"),
                     type(value).__name__))


def validate_artifact(doc, path=None):
    """Raise :class:`SchemaError` unless ``doc`` is a valid artifact.

    ``path`` only decorates the error message.  Returns ``doc`` so the
    call composes: ``rows = validate_artifact(doc)["rows"]``.
    """
    if not isinstance(doc, dict):
        _fail(path, "top level must be a JSON object")
    if "schema" not in doc:
        _fail(path, "missing 'schema' (a pre-schema artifact; re-run "
                    "the bench that wrote it)")
    if doc["schema"] != SCHEMA_VERSION:
        _fail(path, "schema %r is not %r" % (doc["schema"], SCHEMA_VERSION))
    kind = doc.get("kind")
    if kind not in ROW_FIELDS:
        _fail(path, "kind %r is not one of %s"
              % (kind, "/".join(sorted(ROW_FIELDS))))
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        _fail(path, "'meta' must be an object")
    _check_fields(meta, META_FIELDS, "meta", path)
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        _fail(path, "'rows' must be a non-empty list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            _fail(path, "rows[%d] must be an object" % i)
        _check_fields(row, ROW_FIELDS[kind], "rows[%d]" % i, path)
        if kind == "matrix":
            _check_fields(row["wall"], WALL_FIELDS,
                          "rows[%d].wall" % i, path)
            _check_fields(row["identity"], IDENTITY_FIELDS,
                          "rows[%d].identity" % i, path)
            if not row["wall"]["samples"]:
                _fail(path, "rows[%d].wall.samples must be non-empty" % i)
    if kind == "matrix":
        ids = [row["id"] for row in rows]
        if len(set(ids)) != len(ids):
            _fail(path, "duplicate matrix cell ids")
    return doc


def git_sha(cwd=None):
    """The repo's short commit sha, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_id():
    """A coarse machine fingerprint for wall-clock comparability.

    Two artifacts with different ids were measured on substrates whose
    wall clocks cannot be compared; the gate then trusts I/O counters
    only (see :mod:`repro.bench.compare`).
    """
    return "%s/py%s/%dcpu" % (platform.machine(),
                              ".".join(platform.python_version_tuple()[:2]),
                              os.cpu_count() or 1)


def artifact_meta(points, **extra):
    """A fresh ``meta`` object describing this run's substrate."""
    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "machine_id": machine_id(),
        "points": int(points),
        "created_unix": time.time(),
    }
    meta.update(extra)
    return meta


def new_artifact(kind, rows, points, **meta_extra):
    """Assemble and validate a fresh artifact document."""
    return validate_artifact({
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "meta": artifact_meta(points, **meta_extra),
        "rows": list(rows),
    })


def load_artifact(path, kind=None):
    """Read + validate an artifact; one-line errors on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise SchemaError("cannot read bench artifact %s: %s"
                          % (path, exc)) from exc
    except ValueError as exc:
        raise SchemaError("%s: invalid bench artifact: not JSON (%s)"
                          % (path, exc)) from exc
    validate_artifact(doc, path=path)
    if kind is not None and doc["kind"] != kind:
        raise SchemaError("%s: invalid bench artifact: kind %r, "
                          "expected %r" % (path, doc["kind"], kind))
    return doc


def write_artifact(path, doc):
    """Validate then persist ``doc`` as stable, diff-friendly JSON."""
    validate_artifact(doc, path=path)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
