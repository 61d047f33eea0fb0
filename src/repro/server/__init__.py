"""repro.server — the network query service over the storage engine.

Four pieces, stdlib-only (``http.server`` + ``urllib`` + the engine):

* :mod:`repro.server.admission` — the bounded admission queue and
  worker pool: load shedding (503 + ``Retry-After``) when the queue is
  full, per-request deadlines enforced while queued *and* while
  executing (cooperative cancellation between chunk loads and spans);
* :mod:`repro.server.service` — transport-independent request
  execution: SQL queries, M4 chart renders, the observability
  snapshot, health; every response carries a request id and lands in
  the per-endpoint latency histograms;
* :mod:`repro.server.http` — the ``ThreadingHTTPServer`` front end
  (``POST /query``, ``GET /render``, ``GET /series``, ``GET /stats``,
  ``GET /healthz``) with graceful drain-then-close shutdown;
* :mod:`repro.server.client` / :mod:`repro.server.workload` — the
  urllib client and the seeded pan/zoom session load generator
  (closed- and open-loop).

See README.md § Serving and DESIGN.md § 8 for the design.
"""

from .admission import AdmissionController, Job
from .client import ClientResponse, ReproClient
from .http import ReproServer, ServerHandle, start_server
from .service import QueryService, Response, ServerConfig
from .workload import (
    SessionWorkload,
    WorkloadReport,
    zoom_pan_session,
)

__all__ = [
    "AdmissionController",
    "ClientResponse",
    "Job",
    "QueryService",
    "ReproClient",
    "ReproServer",
    "Response",
    "ServerConfig",
    "ServerHandle",
    "SessionWorkload",
    "WorkloadReport",
    "start_server",
    "zoom_pan_session",
]
