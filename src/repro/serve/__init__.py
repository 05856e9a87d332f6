"""Simulation-as-a-service: the ``repro serve`` async job server.

- :mod:`repro.serve.jobs`   — job model, submission validation, store
- :mod:`repro.serve.server` — routes, jobs on the fleet broker, metrics,
  the run loop

The HTTP layer is the fleet's (:mod:`repro.fleet.http`). See
``docs/serving.md`` for the API and deployment guide.
"""

from repro.serve.jobs import Job, JobStore, parse_job_request
from repro.serve.server import (
    QuotaExceeded, ServeApp, ServerMetrics, run_server,
)

__all__ = [
    "Job", "JobStore", "parse_job_request",
    "ServerMetrics", "QuotaExceeded",
    "ServeApp", "run_server",
]
