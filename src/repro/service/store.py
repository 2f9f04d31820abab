"""Content-addressed result cache keyed by spec/shard fingerprints.

The :class:`ResultStore` promotes the checkpoint machinery from PR 2 —
fingerprinted, JSON-able shard outputs — from crash recovery into a
serving layer.  Two tiers share one directory:

``results/<spec-fingerprint>.json``
    The finished outcome of one exact :class:`~repro.core.spec.ExperimentSpec`
    (key: :meth:`ExperimentSpec.fingerprint`).  An exact resubmission is
    served from here in O(1) — and bit-identically, because cache hits
    return the stored *bytes*, not a re-serialization.

``shards/<unit-fingerprint>.json``
    One work unit's output under its grid-independent content key
    (:attr:`~repro.core.spec.ExperimentPlan.unit_fingerprints`).  Specs
    that overlap partially — the same grid cells inside different
    supersets, the same trajectory inside a different method panel —
    resume from every shard they share instead of recomputing it.

Writes go through :func:`repro.io.save_result` with ``atomic=True``
(unique temp file + rename) under a sidecar :class:`repro.io.FileLock`,
so any number of concurrent writers — server worker threads or whole
other processes — leave each key either absent or holding one complete,
valid payload (last writer wins; every version is intact).

**Eviction.**  The store no longer grows without bound: ``max_bytes``
and ``max_age`` (seconds) define an LRU budget enforced by :meth:`gc` —
explicitly, via the ``repro store gc`` CLI, or automatically after any
put that pushes the tracked total over budget.  Recency is the data
file's mtime (reads touch it).  Byte totals live in ``index.json``
plus an append-only ``index.log``: every put (and every forget)
appends one ``<size|-> <relpath>`` line under the ``index.lock`` file
lock — O(1) whatever the store's size, and safe with several processes
on one root.  :meth:`total_bytes` folds the log into ``index.json``
(atomic rewrite, then the log is removed) and :meth:`gc` replaces both
with its scan.  A missing or corrupt ``index.json``, or an unreadable
log line, is rebuilt from a directory scan, which supersedes the log.
Corrupt entries found by readers or by :meth:`gc` move to a
``quarantine/`` directory — inspectable, never re-read, never
re-warned.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.executor import ShardCheckpoint
from repro.io import FileLock, load_result, save_result

__all__ = ["ResultStore"]


class ResultStore:
    """Filesystem-backed content-addressed cache of experiment outputs.

    ``max_bytes``/``max_age`` bound the store (see module docstring);
    ``None`` (the default) keeps the corresponding dimension unbounded,
    preserving the PR 7 behaviour.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
    ):
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.shards_dir = self.root / "shards"
        self.quarantine_dir = self.root / "quarantine"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.max_age = None if max_age is None else float(max_age)
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if self.max_age is not None and self.max_age <= 0:
            raise ValueError("max_age must be positive when set")
        self._index_path = self.root / "index.json"
        self._log_path = self.root / "index.log"

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _check_key(fingerprint: str) -> str:
        if not fingerprint or not all(
            c.isalnum() or c in "-_" for c in fingerprint
        ):
            raise ValueError(
                f"invalid store fingerprint {fingerprint!r}; expected a "
                f"non-empty alphanumeric digest"
            )
        return fingerprint

    def result_path(self, fingerprint: str) -> Path:
        return self.results_dir / f"{self._check_key(fingerprint)}.json"

    def shard_path(self, fingerprint: str) -> Path:
        return self.shards_dir / f"{self._check_key(fingerprint)}.json"

    def _lock(self, target: Path) -> FileLock:
        return FileLock(target.with_suffix(".lock"))

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh mtime so LRU eviction sees the entry as recently used."""
        try:
            os.utime(path)
        except OSError:
            pass  # entry evicted or moved underneath us: harmless

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside so it is never re-read or re-warned."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / f"{path.parent.name}-{path.name}"
        try:
            os.replace(path, target)
        except OSError:
            return  # already moved/removed by a concurrent reader
        warnings.warn(
            f"quarantined corrupt store entry {path.parent.name}/{path.name} "
            f"({reason}); moved to {target}",
            RuntimeWarning,
            stacklevel=3,
        )
        self._index_forget(self._relpath(path))

    # -- whole-result tier -------------------------------------------------

    def has_result(self, fingerprint: str) -> bool:
        return self.result_path(fingerprint).is_file()

    def read_result_text(self, fingerprint: str) -> Optional[str]:
        """The stored payload *bytes* (as text) for an exact spec match.

        Serving the stored text — instead of reloading and re-dumping —
        makes repeated cache hits byte-identical by construction.
        """
        path = self.result_path(fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        self._touch(path)
        return text

    def load_outcome(self, fingerprint: str) -> Any:
        """Deserialize a cached outcome back into its result class."""
        return load_result(self.result_path(fingerprint))

    def put_result(self, fingerprint: str, outcome: Any) -> Path:
        """Persist a finished outcome under the spec's fingerprint."""
        target = self.result_path(fingerprint)
        with self._lock(target):
            save_result(outcome, target, atomic=True)
        self._index_record(target)
        self._maybe_gc()
        return target

    # -- shard tier --------------------------------------------------------

    def has_shard(self, fingerprint: str) -> bool:
        return self.shard_path(fingerprint).is_file()

    def get_shard(self, fingerprint: str) -> Tuple[bool, Any]:
        """``(hit, data)`` for one content-addressed shard output.

        A corrupt file counts as a miss and is quarantined (one warning,
        then the entry is out of the read path for good): the unit simply
        recomputes, mirroring executor checkpoint semantics.
        """
        path = self.shard_path(fingerprint)
        if not path.is_file():
            return False, None
        try:
            checkpoint = load_result(path)
        except (ValueError, OSError, KeyError, TypeError) as error:
            self._quarantine(path, f"{type(error).__name__}: {error}")
            return False, None
        if (
            not isinstance(checkpoint, ShardCheckpoint)
            or checkpoint.fingerprint != fingerprint
        ):
            return False, None
        self._touch(path)
        return True, checkpoint.data

    def put_shard(self, fingerprint: str, unit_id: str, data: Any) -> Path:
        """Persist one work unit's output under its content fingerprint."""
        target = self.shard_path(fingerprint)
        with self._lock(target):
            save_result(
                ShardCheckpoint(
                    unit_id=unit_id, fingerprint=fingerprint, data=data
                ),
                target,
                atomic=True,
            )
        self._index_record(target)
        self._maybe_gc()
        return target

    # -- byte-total index --------------------------------------------------

    def _relpath(self, path: Path) -> str:
        return f"{path.parent.name}/{path.name}"

    def _index_lock(self) -> FileLock:
        return FileLock(self.root / "index.lock")

    def _read_index_unlocked(self) -> Optional[Dict[str, int]]:
        try:
            payload = json.loads(self._index_path.read_text(encoding="utf-8"))
            entries = payload["entries"]
            if not isinstance(entries, dict):
                return None
            return {str(key): int(size) for key, size in entries.items()}
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _scan_entries(self) -> Dict[str, int]:
        entries: Dict[str, int] = {}
        for directory in (self.results_dir, self.shards_dir):
            for path in directory.glob("*.json"):
                try:
                    entries[self._relpath(path)] = path.stat().st_size
                except OSError:
                    continue
        return entries

    def _write_index_unlocked(self, entries: Dict[str, int]) -> None:
        tmp = self._index_path.with_name(
            f"{self._index_path.name}.{os.getpid()}.tmp"
        )
        tmp.write_text(
            json.dumps({"entries": entries}, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, self._index_path)

    def _index_append(self, relpath: str, size: Optional[int]) -> None:
        """Log one entry's size (``None``: forget it) for the next fold."""
        line = f"{'-' if size is None else size} {relpath}\n"
        with self._index_lock():
            with open(self._log_path, "a", encoding="utf-8") as log:
                log.write(line)

    def _index_record(self, path: Path) -> None:
        """Record (or refresh) one entry's size in the index log."""
        try:
            size = path.stat().st_size
        except OSError:
            return
        self._index_append(self._relpath(path), size)

    def _index_forget(self, relpath: str) -> None:
        self._index_append(relpath, None)

    def _fold_index_unlocked(self) -> Dict[str, int]:
        """Replay the log onto ``index.json``, rewrite it, drop the log.

        Replaying is idempotent (each line sets or removes one key), so
        a crash between the rewrite and the unlink loses nothing.
        """
        try:
            lines = self._log_path.read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = []
        entries = self._read_index_unlocked()
        dirty = bool(lines)
        try:
            if entries is None:
                raise ValueError("index.json missing or corrupt")
            for line in lines:
                size, relpath = line.split(" ", 1)
                if size == "-":
                    entries.pop(relpath, None)
                else:
                    entries[relpath] = int(size)
        except ValueError:
            entries = self._scan_entries()  # self-heal; supersedes the log
            dirty = True
        if dirty:
            self._write_index_unlocked(entries)
            self._drop_log_unlocked()
        return entries

    def _drop_log_unlocked(self) -> None:
        try:
            self._log_path.unlink()
        except OSError:
            pass

    def total_bytes(self) -> int:
        """Tracked payload bytes (index-backed; rebuilt by scan if needed)."""
        with self._index_lock():
            entries = self._fold_index_unlocked()
        return sum(entries.values())

    # -- eviction ----------------------------------------------------------

    def _maybe_gc(self) -> None:
        """Run GC after a put only when a budget exists and is exceeded."""
        if self.max_bytes is None and self.max_age is None:
            return
        if self.max_bytes is not None and self.total_bytes() <= self.max_bytes:
            if self.max_age is None:
                return
        self.gc()

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
    ) -> dict:
        """Evict least-recently-used entries until within budget.

        ``max_bytes``/``max_age`` override the store's own limits for
        this call.  Entries older than ``max_age`` go first; then the
        oldest-read entries go until the byte total fits ``max_bytes``.
        Unreadable entries are quarantined rather than deleted.  Returns
        a summary dict (``evicted``, ``freed_bytes``, ``total_bytes``,
        ``quarantined``).
        """
        byte_limit = self.max_bytes if max_bytes is None else int(max_bytes)
        age_limit = self.max_age if max_age is None else float(max_age)
        now = time.time()
        # The filesystem is the source of truth for GC: a scan self-heals
        # whatever drift the incremental index accumulated.
        survivors: Dict[str, int] = {}
        candidates = []  # (mtime, path, size)
        quarantined = 0
        for directory in (self.results_dir, self.shards_dir):
            for path in directory.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                try:
                    load_result(path)
                except (ValueError, OSError, KeyError, TypeError) as error:
                    self._quarantine(path, f"{type(error).__name__}: {error}")
                    quarantined += 1
                    continue
                candidates.append((stat.st_mtime, path, stat.st_size))
        candidates.sort(key=lambda item: (item[0], str(item[1])))
        total = sum(size for _, _, size in candidates)
        evicted = 0
        freed = 0
        for mtime, path, size in candidates:
            expired = age_limit is not None and now - mtime >= age_limit
            over_budget = byte_limit is not None and total > byte_limit
            if not (expired or over_budget):
                survivors[self._relpath(path)] = size
                continue
            with self._lock(path):
                try:
                    path.unlink()
                except OSError:
                    survivors[self._relpath(path)] = size
                    continue
            total -= size
            freed += size
            evicted += 1
        with self._index_lock():
            self._write_index_unlocked(survivors)
            self._drop_log_unlocked()
        return {
            "evicted": evicted,
            "freed_bytes": freed,
            "total_bytes": total,
            "quarantined": quarantined,
        }

    # -- diagnostics -------------------------------------------------------

    def stats(self) -> dict:
        quarantine_count = (
            sum(1 for _ in self.quarantine_dir.glob("*.json"))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "results": sum(1 for _ in self.results_dir.glob("*.json")),
            "shards": sum(1 for _ in self.shards_dir.glob("*.json")),
            "total_bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
            "max_age": self.max_age,
            "quarantined": quarantine_count,
        }
