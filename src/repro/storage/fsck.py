"""``repro fsck``: walk a store and verify every checksum.

Opens no engine — fsck operates on the files directly, so it works on a
store too damaged to recover, and never mutates anything unless asked
to ``quarantine`` the chunks it finds damaged.

Classification follows the storage layer's failure policy:

* **warnings** — recoverable damage: torn tails on the WAL/mods/catalog,
  unsealed TsFiles readable through their inline headers, empty file
  stubs, unreadable best-effort JSON (obs, quarantine registry);
* **errors** — data-affecting corruption: checksum mismatches, bad
  magic, undecodable pages, chunks referencing unknown series.

The CLI exits non-zero iff any *error* was found.
"""

from __future__ import annotations

import dataclasses
import json
import os

from ..errors import CorruptFileError, EncodingError, StorageError
from .catalog import CatalogFile
from .config import TOPOLOGY_FILE
from .mods import ModsFile
from .quarantine import FILENAME as QUARANTINE_FILENAME
from .quarantine import QuarantineRegistry
from .recovery import is_torn_stub, list_tsfiles
from .tsfile import TsFileReader
from .wal import WalManager, WriteAheadLog

OBS_FILENAME = "obs.json"


@dataclasses.dataclass
class FsckReport:
    """Everything one fsck pass found."""

    data_dir: str
    issues: list = dataclasses.field(default_factory=list)
    files_checked: int = 0
    chunks_checked: int = 0
    chunks_damaged: int = 0
    quarantined: int = 0

    def add(self, severity, path, issue, **details):
        """Record one finding."""
        entry = {"severity": severity,
                 "file": os.path.basename(os.fspath(path)),
                 "issue": issue}
        entry.update(details)
        self.issues.append(entry)

    def absorb(self, shard_report):
        """Fold one shard's report into this store-root report; its
        issues keep their file name under a ``shard-NN/`` prefix."""
        prefix = os.path.basename(shard_report.data_dir)
        self.issues.extend(dict(issue, file="%s/%s" % (prefix,
                                                       issue["file"]))
                           for issue in shard_report.issues)
        for field in ("files_checked", "chunks_checked",
                      "chunks_damaged", "quarantined"):
            setattr(self, field, getattr(self, field)
                    + getattr(shard_report, field))

    @property
    def errors(self):
        """Data-affecting findings (non-zero exit)."""
        return [i for i in self.issues if i["severity"] == "error"]

    @property
    def warnings(self):
        """Recoverable findings (tearing, best-effort files)."""
        return [i for i in self.issues if i["severity"] == "warning"]

    @property
    def clean(self):
        """True when no error-severity issue was found."""
        return not self.errors

    def as_dict(self):
        """JSON-able summary (the ``--json`` CLI output)."""
        return {
            "data_dir": self.data_dir,
            "clean": self.clean,
            "files_checked": self.files_checked,
            "chunks_checked": self.chunks_checked,
            "chunks_damaged": self.chunks_damaged,
            "quarantined": self.quarantined,
            "errors": self.errors,
            "warnings": self.warnings,
        }

    def render(self):
        """Human-readable report text."""
        lines = ["fsck %s: %d file(s), %d chunk(s) checked"
                 % (self.data_dir, self.files_checked,
                    self.chunks_checked)]
        for issue in self.issues:
            detail = {k: v for k, v in issue.items()
                      if k not in ("severity", "file", "issue")}
            suffix = (" (%s)" % ", ".join("%s=%s" % kv
                                          for kv in sorted(detail.items()))
                      if detail else "")
            lines.append("  [%s] %s: %s%s" % (issue["severity"],
                                              issue["file"],
                                              issue["issue"], suffix))
        if self.clean:
            lines.append("clean: every checksum verified")
        else:
            lines.append("DAMAGED: %d error(s), %d warning(s)"
                         % (len(self.errors), len(self.warnings)))
        return "\n".join(lines)


def _check_log(report, path, read_records):
    """Drain one record log, folding its issues into the report."""
    report.files_checked += 1

    def on_issue(entry):
        report.add(entry.get("severity", "warning"), entry["file"],
                   entry["issue"], torn_bytes=entry.get("torn_bytes"))

    try:
        return list(read_records(on_issue))
    except CorruptFileError as exc:
        report.add("error", path, str(exc))
        return None


def _check_json(report, path, label):
    if not os.path.exists(path):
        return
    report.files_checked += 1
    try:
        with open(path, "rb") as f:
            json.loads(f.read().decode("utf-8"))
    except (OSError, ValueError) as exc:
        report.add("warning", path, "unreadable %s: %s" % (label, exc))


def _check_tsfile(report, path, known_series, verify_pages, registry):
    report.files_checked += 1
    if is_torn_stub(path):
        report.add("warning", path, "empty torn TsFile stub")
        return
    try:
        reader = TsFileReader(path)
    except StorageError as exc:
        report.add("error", path, str(exc))
        return
    with reader:
        try:
            metadata = reader.read_metadata()
        except EncodingError as exc:    # a retired or unknown codec tag
            report.add("error", path, str(exc))
            return
        except CorruptFileError as exc:
            if reader.format_version < 2:
                report.add("error", path, str(exc))
                return
            try:
                metadata = reader.salvage_metadata()
            except CorruptFileError as salvage_exc:
                report.add("error", path, str(salvage_exc))
                return
            report.add("warning", path,
                       "no usable footer; %d chunk(s) salvaged from "
                       "inline headers" % len(metadata))
        for meta in metadata:
            report.chunks_checked += 1
            if known_series is not None \
                    and meta.series_id not in known_series:
                report.add("error", path,
                           "chunk for unknown series id %d"
                           % meta.series_id,
                           data_offset=meta.data_offset)
                continue
            if not verify_pages:
                continue
            try:
                reader.read_chunk_arrays(meta)
            except StorageError as exc:
                report.chunks_damaged += 1
                report.add("error", path, str(exc),
                           data_offset=meta.data_offset,
                           series_id=meta.series_id,
                           start_time=int(meta.start_time),
                           end_time=int(meta.end_time))
                if registry is not None:
                    if registry.add_meta(meta, reason=str(exc)):
                        report.quarantined += 1


def fsck_store(data_dir, quarantine=False, verify_pages=True):
    """Verify every checksum in a store; returns an :class:`FsckReport`.

    ``quarantine``: record damaged chunks in the store's quarantine
    registry so subsequent degraded reads skip them.  ``verify_pages``:
    read and CRC-check every page payload (the expensive part; without
    it only magics, metadata sections and record logs are verified).

    A sharded root (one holding ``shards.json``) has no engine files of
    its own: every ``shard-NN/`` below it is a complete store, checked
    in turn and folded into one report.
    """
    data_dir = os.fspath(data_dir)
    if not os.path.isdir(data_dir):
        raise StorageError("no such data directory: %s" % data_dir)
    report = FsckReport(data_dir=data_dir)
    if os.path.exists(os.path.join(data_dir, TOPOLOGY_FILE)):
        for name in sorted(os.listdir(data_dir)):
            path = os.path.join(data_dir, name)
            if name.startswith("shard-") and os.path.isdir(path):
                report.absorb(fsck_store(path, quarantine, verify_pages))
        return report

    # 1. Catalog: collect series ids for referential checks.
    known_series = None
    catalog_path = os.path.join(data_dir, "catalog.meta")
    if os.path.exists(catalog_path):
        catalog = CatalogFile(catalog_path)
        records = _check_log(
            report, catalog_path,
            lambda cb: catalog.read_all(repair=False, report=cb))
        if records is not None:
            known_series = {series_id for series_id, _name in records}

    # 2. Mods log.
    mods_path = os.path.join(data_dir, "deletes.mods")
    if os.path.exists(mods_path):
        mods = ModsFile(mods_path)
        records = _check_log(
            report, mods_path,
            lambda cb: mods.read_all(repair=False, report=cb))
        if records is not None and known_series is not None:
            for series_id, _delete in records:
                if series_id not in known_series:
                    report.add("error", mods_path,
                               "delete for unknown series id %d"
                               % series_id)

    # 3. WAL segments.
    for series_id, path in WalManager(data_dir).segment_paths():
        wal = WriteAheadLog(path)
        try:
            records = _check_log(
                report, path,
                lambda cb, w=wal: w.replay(repair=False, report=cb))
        finally:
            wal.close()
        if records is not None and known_series is not None \
                and any(sid not in known_series for sid, _t, _v in records):
            report.add("error", path,
                       "WAL references unknown series id")

    # 4. TsFiles (chunk metadata + every page payload).
    registry = QuarantineRegistry(data_dir) if quarantine else None
    for _seq, path in list_tsfiles(data_dir):
        _check_tsfile(report, path, known_series, verify_pages, registry)

    # 5. Best-effort JSON sidecars.
    _check_json(report, os.path.join(data_dir, OBS_FILENAME),
                "observability snapshot")
    _check_json(report, os.path.join(data_dir, QUARANTINE_FILENAME),
                "quarantine registry")

    return report
