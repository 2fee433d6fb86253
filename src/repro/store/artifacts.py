"""Content-addressed, SQLite-indexed artifact store.

Layout of a store root directory::

    <root>/index.db            SQLite index: stage key -> blob address + meta
    <root>/objects/ab/abcdef…  blobs, named by the sha-256 of their bytes
    <root>/store.lock          advisory writer lock (fcntl.flock)

Design points:

* **Content addressing.**  A blob's filename *is* the sha-256 of its
  bytes, so identical payloads dedup to one file and every read can be
  integrity-checked by rehashing -- a flipped bit on disk is detected on
  the next ``get`` and surfaces as :class:`ArtifactCorrupt` instead of a
  silently wrong campaign result.
* **Atomic writes.**  Blobs are written to a temp file in the objects
  tree and ``os.replace``-d into place; the index row is inserted only
  after the blob is durable.  A crash mid-publish leaves either nothing
  or an unreferenced blob (cleaned by :meth:`ArtifactStore.gc`), never a
  dangling index row.
* **Concurrent readers, single writer.**  Point reads never lock.  All
  writes (publish, gc, corruption quarantine) serialize on an advisory
  exclusive ``flock`` over ``store.lock``; a second writer either waits
  up to ``lock_timeout`` seconds or fails fast with
  :class:`StoreLockError`.
* **Whole-pass maintenance locks.**  :meth:`ArtifactStore.gc` holds the
  exclusive lock for its *entire* mark-and-sweep pass and
  :meth:`ArtifactStore.verify` holds a *shared* flock for its entire
  scan, so an in-flight publish can never interleave with either: a
  publish's freshly written blob cannot be swept as an orphan between
  the blob write and the index insert, and a verify can never flag a
  half-published artifact as a missing blob.
* **Self-healing layout.**  Every write first recreates the root, the
  blob tree and the index schema, so a store wiped mid-run (deleted
  root or ``index.db``) fills up again instead of crashing the
  campaign.  Every entry is recomputable from the netlist and seeds.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from .fingerprint import canonical_json

try:  # advisory file locking; POSIX-only, degraded no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)

#: default seconds a writer waits for the store lock before giving up
DEFAULT_LOCK_TIMEOUT = 10.0

#: the ``actual`` hash :class:`ArtifactCorrupt` reports for a missing blob
MISSING = "<missing>"

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS artifacts (
    key        TEXT PRIMARY KEY,
    kind       TEXT NOT NULL,
    design     TEXT NOT NULL,
    blob_sha   TEXT NOT NULL,
    size_bytes INTEGER NOT NULL,
    created_at REAL NOT NULL,
    wall_s     REAL NOT NULL DEFAULT 0.0,
    meta       TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_artifacts_kind_design
    ON artifacts (kind, design);
"""


class StoreError(RuntimeError):
    """Base class for artifact-store failures."""


class StoreLockError(StoreError):
    """The single-writer lock could not be acquired in time."""


class ArtifactCorrupt(StoreError):
    """A blob's bytes no longer hash to their content address."""

    def __init__(self, key: str, path: Path, expected: str, actual: str):
        self.key = key
        self.path = path
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"artifact {key} blob {path} fails its content hash "
            f"(expected {expected[:12]}…, got {actual[:12]}…)"
        )


@dataclass
class ArtifactRow:
    """One index entry (without its payload)."""

    key: str
    kind: str
    design: str
    blob_sha: str
    size_bytes: int
    created_at: float
    wall_s: float
    meta: dict


class ArtifactStore:
    """Content-addressed artifact store rooted at one directory."""

    def __init__(self, root: str | os.PathLike, lock_timeout: float = DEFAULT_LOCK_TIMEOUT):
        self.root = Path(root)
        self.lock_timeout = lock_timeout
        self._db_path = self.root / "index.db"
        self._ensure_layout()

    # -------------------------------------------------------------- plumbing
    def _connect(self) -> sqlite3.Connection:
        con = sqlite3.connect(self._db_path, timeout=self.lock_timeout)
        con.row_factory = sqlite3.Row
        return con

    def _blob_path(self, sha: str) -> Path:
        return self.root / "objects" / sha[:2] / sha

    def _write_blob(self, data: bytes) -> tuple[str, int]:
        """Write ``data`` content-addressed and atomically; return (sha, size)."""
        sha = hashlib.sha256(data).hexdigest()
        final = self._blob_path(sha)
        if final.exists():  # content-addressed dedup
            return sha, len(data)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.parent / f".tmp-{os.getpid()}-{sha[:12]}"
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
        return sha, len(data)

    def _ensure_layout(self) -> None:
        """(Re)create the root, the blob tree and the index schema."""
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        with self._connect() as con:
            con.executescript(_SCHEMA_SQL)

    # ------------------------------------------------------------ write lock
    def writer(self, timeout: float | None = None) -> "_FileLock":
        """Context manager acquiring the store's exclusive writer lock."""
        limit = self.lock_timeout if timeout is None else timeout
        return _FileLock(self.root / "store.lock", limit, shared=False)

    def reader(self, timeout: float | None = None) -> "_FileLock":
        """Context manager acquiring a *shared* lock on the store.

        Shared holders (verify passes) coexist with each other and
        with lock-free point reads, but exclude writers for the whole
        pass -- the fix for the gc/verify-vs-publish race: a publish
        that has written its blob but not yet inserted its index row can
        never be observed (and its fresh blob never swept) by a
        maintenance pass that started before it.
        """
        limit = self.lock_timeout if timeout is None else timeout
        return _FileLock(self.root / "store.lock", limit, shared=True)

    # --------------------------------------------------------------- publish
    def put(
        self,
        kind: str,
        key: str,
        payload: Any,
        design: str = "",
        meta: dict | None = None,
        wall_s: float = 0.0,
        lock_timeout: float | None = None,
    ) -> str:
        """Store one stage payload under ``key``; returns the blob sha.

        The payload is serialized canonically, so bit-identical results
        always produce (and dedup to) the same blob.  Raises
        :class:`StoreLockError` if another writer holds the lock past
        the timeout.
        """
        data = canonical_json(payload).encode("utf-8")
        self._ensure_layout()
        with self.writer(lock_timeout):
            sha, size = self._write_blob(data)
            with self._connect() as con:
                con.execute(
                    "INSERT OR REPLACE INTO artifacts "
                    "(key, kind, design, blob_sha, size_bytes, created_at, wall_s, meta) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        key,
                        kind,
                        design,
                        sha,
                        size,
                        time.time(),
                        wall_s,
                        canonical_json(meta or {}),
                    ),
                )
        return sha

    def put_many(
        self,
        rows: list[tuple],
        wall_s: float = 0.0,
        lock_timeout: float | None = None,
    ) -> int:
        """Store many ``(kind, key, payload, design, meta)`` rows at once.

        One writer lock and one SQLite transaction for the whole batch
        (the incremental manifest and its netlist payload land together).
        Identical payloads still dedup to a single blob.  Returns the
        number of index rows written.
        """
        if not rows:
            return 0
        now = time.time()
        self._ensure_layout()
        with self.writer(lock_timeout):
            inserts = []
            for kind, key, payload, design, meta in rows:
                sha, size = self._write_blob(canonical_json(payload).encode("utf-8"))
                inserts.append(
                    (key, kind, design or "", sha, size, now, wall_s,
                     canonical_json(meta or {}))
                )
            with self._connect() as con:
                con.executemany(
                    "INSERT OR REPLACE INTO artifacts "
                    "(key, kind, design, blob_sha, size_bytes, created_at, wall_s, meta) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    inserts,
                )
        return len(inserts)

    # ---------------------------------------------------------------- lookup
    @staticmethod
    def _from_sql(r: sqlite3.Row) -> ArtifactRow:
        return ArtifactRow(
            key=r["key"],
            kind=r["kind"],
            design=r["design"],
            blob_sha=r["blob_sha"],
            size_bytes=r["size_bytes"],
            created_at=r["created_at"],
            wall_s=r["wall_s"],
            meta=json.loads(r["meta"]),
        )

    def row(self, key: str) -> ArtifactRow | None:
        with self._connect() as con:
            r = con.execute("SELECT * FROM artifacts WHERE key = ?", (key,)).fetchone()
        return None if r is None else self._from_sql(r)

    def read(self, row: ArtifactRow, quarantine: bool = True) -> bytes:
        """Read ``row``'s blob and check it against its content address.

        A missing or corrupted blob raises :class:`ArtifactCorrupt`
        (``actual`` is :data:`MISSING` for a missing one).  Unless
        ``quarantine`` is False the entry is first quarantined (best
        effort -- skipped if another writer holds the lock) so the next
        run recomputes instead of crashing again.
        """
        path = self._blob_path(row.blob_sha)
        try:
            data = path.read_bytes()
        except OSError:
            actual = MISSING
        else:
            actual = hashlib.sha256(data).hexdigest()
            if actual == row.blob_sha:
                return data
        if quarantine:
            self._quarantine(row.key, path)
        raise ArtifactCorrupt(row.key, path, row.blob_sha, actual)

    def get_bytes(self, key: str) -> tuple[bytes, ArtifactRow] | None:
        """Fetch and integrity-verify one payload's raw bytes.

        Returns None on a clean miss; a missing or corrupted blob is
        quarantined and raises :class:`ArtifactCorrupt` (see :meth:`read`).
        """
        row = self.row(key)
        if row is None:
            return None
        return self.read(row), row

    def get(self, key: str) -> Any | None:
        """Fetch and decode one payload (None on a clean miss)."""
        found = self.get_bytes(key)
        if found is None:
            return None
        data, _ = found
        return json.loads(data)

    def _quarantine(self, key: str, blob_path: Path) -> None:
        """Drop a corrupted entry so future runs recompute it."""
        try:
            with self.writer(timeout=0.5):
                with self._connect() as con:
                    con.execute("DELETE FROM artifacts WHERE key = ?", (key,))
                blob_path.unlink(missing_ok=True)
        except (StoreLockError, OSError):  # pragma: no cover - contended path
            logger.warning("could not quarantine corrupt artifact %s", key)

    # ----------------------------------------------------------- maintenance
    def rows(
        self,
        kind: str | None = None,
        design: str | None = None,
        newest_first: bool = False,
    ) -> Iterator[ArtifactRow]:
        """Index rows, oldest first (newest first with ``newest_first``);
        rows created in the same instant keep ascending key order."""
        sql = "SELECT * FROM artifacts"
        clauses, args = [], []
        if kind is not None:
            clauses.append("kind = ?")
            args.append(kind)
        if design is not None:
            clauses.append("design = ?")
            args.append(design)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at" + (" DESC" if newest_first else "") + ", key"
        # fetched whole: a caller may quarantine (write) between rows
        with self._connect() as con:
            found = con.execute(sql, args).fetchall()
        for r in found:
            yield self._from_sql(r)

    def stats(self) -> dict:
        """Index and blob-tree statistics (the ``repro store stats`` view)."""
        with self._connect() as con:
            by_kind = {
                r["kind"]: {"artifacts": r["n"], "bytes": r["total"]}
                for r in con.execute(
                    "SELECT kind, COUNT(*) AS n, SUM(size_bytes) AS total "
                    "FROM artifacts GROUP BY kind ORDER BY kind"
                )
            }
            n_artifacts, indexed_bytes = con.execute(
                "SELECT COUNT(*), COALESCE(SUM(size_bytes), 0) FROM artifacts"
            ).fetchone()
            referenced = {
                r["blob_sha"] for r in con.execute("SELECT blob_sha FROM artifacts")
            }
        blobs = [p for p in (self.root / "objects").glob("*/*") if p.is_file()]
        return {
            "root": str(self.root),
            "artifacts": n_artifacts,
            "indexed_bytes": int(indexed_bytes),
            "by_kind": by_kind,
            "blobs": len(blobs),
            "blob_bytes": sum(p.stat().st_size for p in blobs),
            "orphan_blobs": sum(1 for p in blobs if p.name not in referenced),
        }

    def gc(self) -> dict:
        """Delete unreferenced blobs; referenced artifacts are never touched.

        The exclusive lock is held for the whole mark-and-sweep pass: a
        concurrent publish waits, so a blob written moments before its
        index row lands can never be collected as an orphan.
        """
        removed = freed = 0
        with self.writer():
            with self._connect() as con:
                referenced = {
                    r["blob_sha"] for r in con.execute("SELECT blob_sha FROM artifacts")
                }
            for path in (self.root / "objects").glob("*/*"):
                if path.is_file() and path.name not in referenced:
                    freed += path.stat().st_size
                    path.unlink()
                    removed += 1
        return {"removed_blobs": removed, "freed_bytes": freed}

    def verify(self) -> list[dict]:
        """Integrity-check every indexed artifact; returns found defects.

        Holds the shared lock for the whole scan: concurrent verifies
        and point reads proceed, but a publish waits until the pass
        ends, so a half-published artifact is never flagged.
        """
        defects = []
        with self.reader():
            for row in self.rows():
                try:
                    self.read(row, quarantine=False)
                except ArtifactCorrupt as exc:
                    defect = "missing-blob" if exc.actual == MISSING else "hash-mismatch"
                    defects.append({"key": row.key, "kind": row.kind, "defect": defect})
        return defects


class _FileLock:
    """Advisory flock over the store's lock file (exclusive or shared)."""

    def __init__(self, path: Path, timeout: float, shared: bool = False):
        self.path = path
        self.timeout = timeout
        self.shared = shared
        self._fd: int | None = None

    def __enter__(self) -> "_FileLock":
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return self
        mode = fcntl.LOCK_SH if self.shared else fcntl.LOCK_EX
        deadline = time.monotonic() + max(0.0, self.timeout)
        while True:
            try:
                fcntl.flock(self._fd, mode | fcntl.LOCK_NB)
                return self
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(self._fd)
                    self._fd = None
                    holder = "writer" if self.shared else "writer or verifier"
                    raise StoreLockError(
                        f"another {holder} holds {self.path} "
                        f"(waited {self.timeout:.1f}s)"
                    ) from None
                time.sleep(0.02)

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None
