"""The persistent run store: one SQLite file per service instance.

Durability model (DESIGN.md §10): every submitted job is written to the
``jobs`` table *before* it executes — request JSON, canonical fingerprint
(:func:`~repro.api.requests.request_fingerprint`), status, timestamps.
While a grid runs, the job manager streams each crossed θ checkpoint into
``checkpoints`` and each finished per-request response into ``responses``;
the final wrapped result lands in ``results``.  A process that dies
mid-run therefore leaves behind exactly the state needed to continue:
jobs still in ``queued``/``running`` are re-enqueued on startup, served
from their persisted responses/checkpoints, and only the missing suffix
of work is re-executed.

The fingerprint column powers dedup: re-submitting a semantically
identical request finds the finished job and is answered from ``results``
with zero new work.

``init_db(reset=True)`` archives the current database into a rolling
``backups/`` window (latest 3 kept) before re-creating the schema — the
operational reset behind ``POST /admin/init``.

SQLite serves concurrent readers/writers from multiple threads: the store
opens one connection with ``check_same_thread=False`` in WAL mode and
serializes its own writes behind an ``RLock`` (the HTTP handler threads
and the job worker thread share the instance).
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["JOB_STATUSES", "RunStore"]

#: Job lifecycle states: ``queued`` → ``running`` → one of
#: ``done`` / ``error`` / ``cancelled``.
JOB_STATUSES: Tuple[str, ...] = ("queued", "running", "done", "error",
                                 "cancelled")

#: Number of database backups kept by ``init_db(reset=True)``.
BACKUP_KEEP = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id           TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    fingerprint  TEXT NOT NULL,
    request_json TEXT NOT NULL,
    num_requests INTEGER NOT NULL,
    status       TEXT NOT NULL,
    error        TEXT,
    created_at   REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL
);
CREATE INDEX IF NOT EXISTS jobs_fingerprint ON jobs (fingerprint, created_at);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status);

CREATE TABLE IF NOT EXISTS checkpoints (
    job_id          TEXT NOT NULL,
    request_index   INTEGER NOT NULL,
    theta           REAL NOT NULL,
    checkpoint_json TEXT NOT NULL,
    created_at      REAL NOT NULL,
    PRIMARY KEY (job_id, request_index)
);

CREATE TABLE IF NOT EXISTS responses (
    job_id        TEXT NOT NULL,
    request_index INTEGER NOT NULL,
    response_json TEXT NOT NULL,
    created_at    REAL NOT NULL,
    PRIMARY KEY (job_id, request_index)
);

CREATE TABLE IF NOT EXISTS results (
    job_id        TEXT PRIMARY KEY,
    response_json TEXT NOT NULL,
    created_at    REAL NOT NULL
);
"""


class RunStore:
    """Thread-safe persistence for service jobs in one SQLite file."""

    def __init__(self, db_path: str) -> None:
        self._db_path = os.fspath(db_path)
        self._lock = threading.RLock()
        directory = os.path.dirname(os.path.abspath(self._db_path))
        os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(self._db_path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    @property
    def db_path(self) -> str:
        """Path of the backing SQLite file."""
        return self._db_path

    def close(self) -> None:
        """Close the underlying connection."""
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # schema init / reset
    # ------------------------------------------------------------------
    def init_db(self, reset: bool = False) -> Dict[str, Any]:
        """(Re-)initialize the schema, optionally archiving the old file.

        With ``reset=True`` the current database file is copied into
        ``<db dir>/backups/`` (rolling window of :data:`BACKUP_KEEP`, the
        oldest dropped) and the live database is emptied.  Returns a
        summary dict: ``ok``, ``db_path``, ``existed_before``,
        ``did_reset``, ``backups`` (surviving archive names, newest
        first), and ``stats`` (per-table row counts after the init).
        """
        with self._lock:
            existed = os.path.exists(self._db_path) and \
                self._count("jobs") is not None
            backups: List[str] = []
            did_reset = False
            if reset:
                backups = self._backup()
                for table in ("jobs", "checkpoints", "responses", "results"):
                    self._conn.execute(f"DELETE FROM {table}")
                did_reset = True
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
            return {
                "ok": True,
                "db_path": self._db_path,
                "existed_before": existed,
                "did_reset": did_reset,
                "backups": backups,
                "stats": {table: self._count(table) or 0
                          for table in ("jobs", "checkpoints",
                                        "responses", "results")},
            }

    def _count(self, table: str) -> Optional[int]:
        try:
            row = self._conn.execute(f"SELECT COUNT(*) AS n FROM {table}"
                                     ).fetchone()
        except sqlite3.OperationalError:
            return None
        return int(row["n"])

    def _backup(self) -> List[str]:
        """Archive the live DB under ``backups/``; return surviving names."""
        directory = os.path.dirname(os.path.abspath(self._db_path))
        backup_dir = os.path.join(directory, "backups")
        os.makedirs(backup_dir, exist_ok=True)
        base = os.path.basename(self._db_path)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        name = f"{base}.{stamp}"
        target = os.path.join(backup_dir, name)
        seq = 0
        while os.path.exists(target):  # same-second resets stay distinct
            seq += 1
            target = os.path.join(backup_dir, f"{name}.{seq}")
        # A plain copy would tear a database with live WAL pages; the
        # sqlite backup API snapshots a consistent image.
        archive = sqlite3.connect(target)
        try:
            self._conn.backup(archive)
        finally:
            archive.close()
        survivors = sorted(
            (entry for entry in os.listdir(backup_dir)
             if entry.startswith(base + ".")),
            key=lambda entry: (os.path.getmtime(os.path.join(backup_dir,
                                                             entry)), entry),
            reverse=True)
        for stale in survivors[BACKUP_KEEP:]:
            os.remove(os.path.join(backup_dir, stale))
        return survivors[:BACKUP_KEEP]

    # ------------------------------------------------------------------
    # jobs
    # ------------------------------------------------------------------
    def create_job(self, kind: str, fingerprint: str, request_json: str,
                   num_requests: int) -> str:
        """Insert a new ``queued`` job; returns its generated id."""
        job_id = uuid.uuid4().hex[:12]
        with self._lock:
            self._conn.execute(
                "INSERT INTO jobs (id, kind, fingerprint, request_json,"
                " num_requests, status, created_at)"
                " VALUES (?, ?, ?, ?, ?, 'queued', ?)",
                (job_id, kind, fingerprint, request_json, num_requests,
                 time.time()))
            self._conn.commit()
        return job_id

    def get_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job row as a plain dict, or ``None``."""
        with self._lock:
            row = self._conn.execute("SELECT * FROM jobs WHERE id = ?",
                                     (job_id,)).fetchone()
        return dict(row) if row is not None else None

    def list_jobs(self) -> List[Dict[str, Any]]:
        """All job rows, newest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY created_at DESC, id").fetchall()
        return [dict(row) for row in rows]

    def find_job(self, fingerprint: str,
                 statuses: Sequence[str]) -> Optional[Dict[str, Any]]:
        """Newest job with this fingerprint in one of ``statuses``."""
        if not statuses:
            return None
        marks = ",".join("?" for _ in statuses)
        with self._lock:
            row = self._conn.execute(
                f"SELECT * FROM jobs WHERE fingerprint = ? AND status IN"
                f" ({marks}) ORDER BY created_at DESC, id LIMIT 1",
                (fingerprint, *statuses)).fetchone()
        return dict(row) if row is not None else None

    def set_status(self, job_id: str, status: str,
                   error: Optional[str] = None) -> None:
        """Advance a job's lifecycle state (stamps started/finished)."""
        if status not in JOB_STATUSES:
            raise ConfigurationError(
                f"unknown job status {status!r}; known: {JOB_STATUSES}")
        now = time.time()
        sets = ["status = ?", "error = ?"]
        values: List[Any] = [status, error]
        if status == "running":
            sets.append("started_at = ?")
            values.append(now)
        if status in ("done", "error", "cancelled"):
            sets.append("finished_at = ?")
            values.append(now)
        values.append(job_id)
        with self._lock:
            self._conn.execute(
                f"UPDATE jobs SET {', '.join(sets)} WHERE id = ?", values)
            self._conn.commit()

    def interrupted_jobs(self) -> List[Dict[str, Any]]:
        """Jobs a dead process left in flight, oldest first (resume order)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE status IN ('queued', 'running')"
                " ORDER BY created_at, id").fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def record_checkpoint(self, job_id: str, request_index: int, theta: float,
                          checkpoint_json: str) -> None:
        """Persist the crossed-θ checkpoint of one request of a job."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO checkpoints"
                " (job_id, request_index, theta, checkpoint_json, created_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (job_id, request_index, theta, checkpoint_json, time.time()))
            self._conn.commit()

    def checkpoints(self, job_id: str) -> Dict[int, str]:
        """All persisted checkpoints of a job: ``{request_index: json}``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT request_index, checkpoint_json FROM checkpoints"
                " WHERE job_id = ?", (job_id,)).fetchall()
        return {int(row["request_index"]): row["checkpoint_json"]
                for row in rows}

    def latest_checkpoint(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Summary of the most recently persisted checkpoint, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT request_index, theta, checkpoint_json, created_at"
                " FROM checkpoints WHERE job_id = ?"
                " ORDER BY created_at DESC, request_index DESC LIMIT 1",
                (job_id,)).fetchone()
        if row is None:
            return None
        payload = json.loads(row["checkpoint_json"])
        return {
            "request_index": int(row["request_index"]),
            "theta": float(row["theta"]),
            "num_steps": len(payload.get("steps", ())),
            "max_opacity": payload.get("max_opacity"),
            "created_at": float(row["created_at"]),
        }

    def num_checkpoints(self, job_id: str) -> int:
        """How many per-θ checkpoints the job has persisted."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM checkpoints WHERE job_id = ?",
                (job_id,)).fetchone()
        return int(row["n"])

    # ------------------------------------------------------------------
    # per-request responses and final results
    # ------------------------------------------------------------------
    def record_response(self, job_id: str, request_index: int,
                        response_json: str) -> None:
        """Persist the finished response of one request of a job."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO responses"
                " (job_id, request_index, response_json, created_at)"
                " VALUES (?, ?, ?, ?)",
                (job_id, request_index, response_json, time.time()))
            self._conn.commit()

    def responses(self, job_id: str) -> Dict[int, str]:
        """All persisted responses of a job: ``{request_index: json}``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT request_index, response_json FROM responses"
                " WHERE job_id = ?", (job_id,)).fetchall()
        return {int(row["request_index"]): row["response_json"]
                for row in rows}

    def num_responses(self, job_id: str) -> int:
        """How many per-request responses the job has persisted."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM responses WHERE job_id = ?",
                (job_id,)).fetchone()
        return int(row["n"])

    def record_result(self, job_id: str, response_json: str) -> None:
        """Persist a job's final wrapped result."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results"
                " (job_id, response_json, created_at) VALUES (?, ?, ?)",
                (job_id, response_json, time.time()))
            self._conn.commit()

    def get_result(self, job_id: str) -> Optional[str]:
        """A job's final result JSON, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT response_json FROM results WHERE job_id = ?",
                (job_id,)).fetchone()
        return row["response_json"] if row is not None else None
