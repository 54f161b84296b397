"""Anonymization-as-a-service: HTTP job layer over a persistent run store.

The batch/grid engine (:mod:`repro.api`) executes work in-process and
forgets it on exit.  This package is the durable front door (DESIGN.md
§10):

* :mod:`repro.service.store` — :class:`RunStore`, one SQLite file holding
  jobs (request JSON + canonical fingerprint + status), streamed per-θ
  checkpoints, per-request responses, and final results; identical
  resubmissions are answered from the store.
* :mod:`repro.service.jobs` — :class:`JobManager`, a background worker
  executing submitted jobs on the existing engine, persisting checkpoints
  as they stream, and resuming interrupted grids from their last persisted
  checkpoint on startup.
* :mod:`repro.service.http` — the stdlib ``ThreadingHTTPServer`` layer
  (``POST /jobs``, ``GET /jobs``, ``GET /jobs/{id}``,
  ``GET /jobs/{id}/result``, ``DELETE /jobs/{id}``, ``POST /admin/init``),
  started by ``repro-lopacity serve``.
* :mod:`repro.service.client` — :class:`ServiceClient`, a thin urllib
  client used by tests and scripts.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import create_server, make_handler
from repro.service.jobs import JOB_KINDS, JobManager, parse_request
from repro.service.store import RunStore

__all__ = [
    "JOB_KINDS",
    "JobManager",
    "RunStore",
    "ServiceClient",
    "ServiceError",
    "create_server",
    "make_handler",
    "parse_request",
]
