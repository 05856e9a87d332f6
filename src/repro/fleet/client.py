"""Client-side fleet access: submit specs, wait, fetch ordered results.

:class:`FleetClient` talks to a :class:`~repro.fleet.broker.BrokerApp`
over HTTP. :class:`LocalExecutor` runs the identical specs through the
in-process :class:`~repro.exec.runner.SweepRunner` instead — both expose
the same ``run(specs) -> List[JobResult]`` surface, which is what lets
the campaign driver (and tests, and the smoke's bit-identity check)
switch between one process pool and a fleet of hosts without changing
anything above the executor.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exec.cache import ResultCache
from repro.exec.runner import JobResult, SweepRunner
from repro.fleet.protocol import TaskSpec, result_from_wire

__all__ = ["FleetClient", "FleetError", "LocalExecutor",
           "FLEET_BENCH_FILENAME"]

#: Default output file for fleet benchmark records (cf. BENCH_sweep.json).
FLEET_BENCH_FILENAME = "BENCH_fleet.json"


class FleetError(RuntimeError):
    """A broker request failed (HTTP error or unreachable)."""


class FleetClient:
    """Synchronous HTTP client for one fleet broker."""

    def __init__(self, broker_url: str, timeout_s: float = 30.0):
        self.broker_url = broker_url.rstrip("/")
        host = self.broker_url.split("://", 1)[-1]
        self.host, _, port = host.partition(":")
        self.port = int(port or 80)
        self.timeout_s = timeout_s
        #: Trace id the broker stamped on the last :meth:`submit`.
        self.last_trace_id: Optional[str] = None

    # -- transport -------------------------------------------------------------
    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One JSON exchange; :class:`FleetError` on any failure."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"}
                         if payload else {})
            resp = conn.getresponse()
            data = resp.read()
        except OSError as e:
            raise FleetError(
                f"broker unreachable at {self.broker_url}: {e}") from None
        finally:
            conn.close()
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            raise FleetError(f"{path}: non-JSON response "
                             f"({data[:200]!r})") from None
        if resp.status >= 400:
            raise FleetError(f"{method} {path} -> {resp.status}: "
                             f"{decoded.get('error', '?')}")
        return decoded

    # -- API -------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def submit(self, specs: Sequence[TaskSpec]) -> List[int]:
        out = self.request("POST", "/tasks",
                           {"specs": [s.to_dict() for s in specs]})
        self.last_trace_id = out.get("trace_id")
        return [int(i) for i in out["ids"]]

    def tasks(self) -> Dict[str, Any]:
        return self.request("GET", "/tasks")

    def drain(self) -> None:
        self.request("POST", "/drain", {})

    def wait(self, task_ids: Sequence[int], timeout_s: float = 600.0,
             poll_s: float = 0.2,
             progress: Optional[Callable[[int, int], None]] = None) -> None:
        """Poll until every task id settles (done or failed)."""
        wanted = set(task_ids)
        deadline = time.monotonic() + timeout_s
        last_done = -1
        while True:
            status = self.tasks()
            done = sum(1 for t in status["tasks"]
                       if t["id"] in wanted and t["state"] in ("done", "failed"))
            if progress and done != last_done:
                progress(done, len(wanted))
                last_done = done
            if done == len(wanted):
                return
            if time.monotonic() > deadline:
                pending = [t["id"] for t in status["tasks"]
                           if t["id"] in wanted
                           and t["state"] not in ("done", "failed")]
                raise FleetError(f"{len(pending)} task(s) still unsettled "
                                 f"after {timeout_s}s: {pending[:10]}")
            time.sleep(poll_s)

    def results(self, task_ids: Sequence[int]) -> List[JobResult]:
        """Ordered :class:`JobResult`\\ s for settled tasks."""
        ids = ",".join(str(i) for i in sorted(task_ids))
        out = self.request("GET", f"/results?ids={ids}")
        results = []
        for ent in out["results"]:
            spec = TaskSpec.from_dict(ent["spec"])
            results.append(result_from_wire(spec.build_job(), ent))
        return results

    def run(self, specs: Sequence[TaskSpec], timeout_s: float = 600.0,
            progress: Optional[Callable[[int, int], None]] = None,
            ) -> List[JobResult]:
        """Submit, wait, fetch — the fleet twin of ``SweepRunner.run``."""
        ids = self.submit(specs)
        self.wait(ids, timeout_s=timeout_s, progress=progress)
        return self.results(ids)


class LocalExecutor:
    """Run fleet specs through the in-process sweep runner.

    The single-pool reference the fleet is measured against: same specs,
    same materialization path, same result type.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 job_timeout_s: Optional[float] = None, retries: int = 1):
        self.runner = SweepRunner(workers=workers, cache=cache,
                                  job_timeout_s=job_timeout_s,
                                  retries=retries)

    def run(self, specs: Sequence[TaskSpec],
            timeout_s: float = 600.0,
            progress: Optional[Callable[[int, int], None]] = None,
            ) -> List[JobResult]:
        del timeout_s                    # bounded by the runner's own deadline
        if progress:
            self.runner.progress = (
                lambda done, total, jr: progress(done, total))
        return self.runner.run([s.build_job() for s in specs])
