"""The ``repro serve`` application: routes, jobs on the broker, the run loop.

Endpoints (all JSON unless noted)::

    GET    /healthz            liveness + queue/active summary
    GET    /metrics            Prometheus text exposition (scrape me)
    POST   /jobs               submit a sweep job; 202 with the job summary
    GET    /jobs               all known jobs (newest last)
    GET    /jobs/{id}          one job's status summary
    GET    /jobs/{id}/result   full per-task results (409 until terminal)
    GET    /jobs/{id}/events   JSONL progress stream (chunked; replays the
                               event log, then tails until the job ends)
    DELETE /jobs/{id}          cancel a queued job (409 if running)

Submission body: ``{"configs": [...], "workloads": [...], "ops": N,
"seeds": [...], "priority": P, "tenant": "...", "validate": ...,
"kernel": ...}`` — the same vocabulary as ``repro sweep`` flags. The
tenant may also ride in an ``X-Tenant`` header; an explicit body field
wins.

Every job runs as tasks on one in-process
:class:`~repro.fleet.broker.FleetBroker` — submit -> broker tasks ->
lease -> simulate -> settle, the path a remote fleet's tasks take —
leased by ``max_active`` local slots; see ``docs/serving.md``,
"Architecture". The broker calls back on the event loop after every task
state change, and a job's events, counters and terminal state follow from
those callbacks, so all job-state mutation is single-threaded.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import math
import time
from typing import Any, AsyncIterator, Dict, List, Optional

from repro.exec.attempts import AttemptPool, run_lanes
from repro.exec.cache import ResultCache, open_cache
from repro.exec.runner import JobResult, _simulate_job
from repro.fleet.broker import TERMINAL, BrokerMetrics, FleetBroker, Task
from repro.fleet.http import (
    HttpApp, HttpError, Request, Response, run_until_signalled,
)
from repro.fleet.protocol import result_to_wire
from repro.obs.registry import MetricRegistry
from repro.serve.jobs import (
    TERMINAL_STATES, BadRequest, Job, JobStore, parse_job_request,
)

__all__ = ["QuotaExceeded", "ServeApp", "ServerMetrics", "run_server"]


class QuotaExceeded(Exception):
    """Submission refused by a quota (maps to HTTP 429)."""


class ServerMetrics(BrokerMetrics):
    """The broker's metrics in the ``repro_serve`` namespace, plus jobs'.

    The broker inside the server counts its tasks into this registry, so
    one scrape covers jobs and tasks and no count is kept twice.
    """

    namespace = "repro_serve"
    queued_tasks_name = "queued_tasks"

    def __init__(self, registry: Optional[MetricRegistry] = None):
        super().__init__(registry)
        r = self.registry
        self.jobs_accepted = r.counter("repro_serve_jobs_accepted_total")
        self.jobs_rejected = r.counter("repro_serve_jobs_rejected_total")
        self.jobs_completed = r.counter("repro_serve_jobs_completed_total")
        self.jobs_failed = r.counter("repro_serve_jobs_failed_total")
        self.jobs_timed_out = r.counter("repro_serve_jobs_timed_out_total")
        self.jobs_cancelled = r.counter("repro_serve_jobs_cancelled_total")
        self.queue_depth = r.gauge("repro_serve_queue_depth")
        self.active_jobs = r.gauge("repro_serve_active_jobs")
        self.job_wall = r.histogram("repro_serve_job_wall_seconds")

    def observe_http(self, status: int) -> None:
        """Per-status-class HTTP request counter (2xx/4xx/5xx...)."""
        self.registry.counter("repro_serve_http_requests_total",
                              labels={"code": f"{status // 100}xx"}).inc()


class ServeApp(HttpApp):
    """One server instance: job store + broker + local slots behind a router.

    Parameters
    ----------
    pool_workers:
        Process-pool size of each slot, and its lanes: the attempts it
        keeps in flight (``1`` = inline on a daemon thread, no subprocesses).
    job_timeout_s:
        The lease: a per-attempt deadline measured from the lease
        (``None``: no deadline).
    retries:
        The broker's extra attempts per failed or timed-out task.
    max_active:
        Local slots. Each owns a pool, so total worker processes are about
        ``max_active * pool_workers``.
    max_queue:
        Queued-job cap across all tenants.
    tenant_max_jobs:
        Per-tenant cap on jobs that are queued or running.
    cache:
        Shared on-disk result cache (``None``: no dedupe).
    """

    def __init__(self, pool_workers: int = 2,
                 job_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 max_active: int = 1,
                 max_queue: int = 256,
                 tenant_max_jobs: int = 8,
                 cache: Optional[ResultCache] = None):
        super().__init__()
        self.store = JobStore()
        self.metrics = ServerMetrics()
        self.cache = cache
        self.pool_workers = pool_workers
        self.job_timeout_s = job_timeout_s
        self.max_active = max_active
        self.max_queue = max_queue
        self.tenant_max_jobs = tenant_max_jobs
        self.broker = FleetBroker(
            cache=cache, retries=retries, metrics=self.metrics,
            lease_s=math.inf if job_timeout_s is None else job_timeout_s)
        self._accepting = True
        self._queued = 0                 # jobs, not tasks
        self._running = 0
        self._loops: List[asyncio.Task] = []
        r = self.router
        r.add("GET", "/healthz", self.handle_health)
        r.add("GET", "/metrics", self.handle_metrics)
        r.add("POST", "/jobs", self.handle_submit)
        r.add("GET", "/jobs", self.handle_list)
        r.add("GET", "/jobs/{job_id}", self.handle_status)
        r.add("GET", "/jobs/{job_id}/result", self.handle_result)
        r.add("GET", "/jobs/{job_id}/events", self.handle_events)
        r.add("DELETE", "/jobs/{job_id}", self.handle_cancel)

    # -- lifecycle -------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.base_events.Server:
        """Start the slots and bind the listening socket.

        No expiry loop runs: each lane expires its own attempt's lease.
        """
        loop = asyncio.get_running_loop()
        for i in range(self.max_active):
            # A slot: one pool, one lane per pool worker.
            pool = AttemptPool(_simulate_job, self.pool_workers,
                               name=f"repro-serve-slot-{i}")
            self._loops.append(loop.create_task(
                run_lanes(pool, functools.partial(self._lane, f"slot-{i}"))))
        return await self.listen(host, port)

    async def shutdown(self, drain_s: float = 30.0) -> Dict[str, int]:
        """Stop accepting, cancel queued jobs, wait for running ones.

        Running jobs get up to ``drain_s`` seconds (``<= 0``: no limit);
        past that they are marked failed and their attempts are stopped.
        """
        await self.close()
        self._accepting = False
        queued = [j for j in self.store.jobs() if j.state == "queued"]
        for job in queued:
            self._drop(job, "cancelled", "server shutting down")
        loop = asyncio.get_running_loop()
        end = loop.time() + drain_s if drain_s > 0 else math.inf
        while self._running and loop.time() < end:
            try:
                await asyncio.wait_for(
                    self.broker.changed_event().wait(),
                    None if end == math.inf else end - loop.time())
            except asyncio.TimeoutError:
                pass
        abandoned = [j for j in self.store.jobs() if j.state == "running"]
        for job in abandoned:
            self._drop(job, "failed", "abandoned at server shutdown")
        for task in self._loops:
            task.cancel()
        await asyncio.gather(*self._loops, return_exceptions=True)
        return {"cancelled": len(queued), "abandoned": len(abandoned)}

    # -- jobs ------------------------------------------------------------------
    def submit(self, parsed: Dict[str, Any]) -> Job:
        """Queue one validated submission (see ``parse_job_request``)."""
        if not self._accepting:
            raise QuotaExceeded("server is shutting down")
        if self._queued >= self.max_queue:
            raise QuotaExceeded(
                f"queue is full ({self.max_queue} jobs); retry later")
        tenant = parsed["tenant"]
        live = self.store.tenant_live(tenant)
        if live >= self.tenant_max_jobs:
            raise QuotaExceeded(
                f"tenant {tenant!r} already has {live} queued/running "
                f"job(s); the quota is {self.tenant_max_jobs}")
        job = self.store.create(parsed)
        self._queued += 1
        self.metrics.jobs_accepted.inc()
        job.add_event("queued", tenant=tenant, priority=job.priority,
                      total_tasks=job.total_tasks)
        job.task_ids = self.broker.submit(
            job.tasks, priority=job.priority,
            on_change=functools.partial(self._task_changed, job))
        job.tasks = [self.broker.task(t).spec for t in job.task_ids]
        job.trace_id = job.tasks[0].trace_id
        if job.done_tasks == job.total_tasks:
            self._finish(job)                 # every task was a cache hit
        self._gauges()
        return job

    def cancel(self, job: Job) -> bool:
        """Cancel a queued job (running jobs are not interruptible)."""
        if job.state != "queued":
            return False
        self._drop(job, "cancelled", "cancelled by client")
        return True

    def _drop(self, job: Job, state: str, reason: str) -> None:
        """End ``job`` before its tasks finish; its broker tasks go too."""
        self.broker.forget(job.task_ids)
        (self.metrics.jobs_cancelled if state == "cancelled"
         else self.metrics.jobs_failed).inc()
        self._seal(job, state, reason)

    def _task_changed(self, job: Job, task: Task) -> None:
        """Broker callback: advance ``job`` after one of its tasks moved."""
        if job.state in TERMINAL_STATES:
            return
        if job.state == "queued" and task.state != "queued":
            job.state = "running"
            job.started_at = time.time()
            self._queued -= 1
            self._running += 1
            self._gauges()
            job.add_event("started", workers=self.pool_workers)
        if task.state not in TERMINAL:
            return
        jr = task.result
        job.done_tasks += 1
        if jr.cached:
            job.cached_tasks += 1
        if task.state == "failed":
            if task.timed_out:
                job.timed_out_tasks += 1
            else:
                job.failed_tasks += 1
        job.add_event("task", done=job.done_tasks, total=job.total_tasks,
                      label=jr.job.label(), cached=jr.cached,
                      wall_s=jr.wall_s, attempts=jr.attempts,
                      ok=jr.result is not None, error=jr.error)
        if job.task_ids and job.done_tasks == job.total_tasks:
            self._finish(job)

    def _finish(self, job: Job) -> None:
        job.results = self.broker.results(job.task_ids)
        m = self.metrics
        if job.timed_out_tasks:
            m.jobs_timed_out.inc()
            self._seal(job, "timed_out",
                       f"{job.timed_out_tasks}/{job.total_tasks} task(s) "
                       f"exceeded the {self.job_timeout_s}s deadline")
        elif job.failed_tasks:
            first = next(r for r in job.results if r.result is None)
            m.jobs_failed.inc()
            self._seal(job, "failed", f"{job.failed_tasks} task(s) failed; "
                                      f"first: {first.error}")
        else:
            m.jobs_completed.inc()
            self._seal(job, "done")

    def _seal(self, job: Job, state: str, error: Optional[str] = None) -> None:
        if job.state == "running":
            self._running -= 1
        else:
            self._queued -= 1
        job.state = state
        job.error = error
        job.finished_at = time.time()
        if job.started_at is not None:
            self.metrics.job_wall.record(job.finished_at - job.started_at)
        self._gauges()
        job.add_event("finished", state=job.state,
                      done=job.done_tasks, cached=job.cached_tasks,
                      failed=job.failed_tasks, timed_out=job.timed_out_tasks,
                      error=job.error)
        for old in self.store.seal(job):
            self.broker.forget(old.task_ids)

    def _gauges(self) -> None:
        self.metrics.queue_depth.set(self._queued)
        self.metrics.active_jobs.set(self._running)

    # -- local slots -----------------------------------------------------------
    async def _lane(self, worker: str, runs: AttemptPool) -> None:
        """One lane of slot ``worker``: lease a task, run it on the slot's
        pool, settle it — forever (cancelled at shutdown).

        The lease is the attempt's deadline. An attempt still running then
        is stopped, and the broker fails or requeues its task.
        """
        while True:
            granted = self.broker.lease(worker)
            if not granted:
                await self.broker.changed_event().wait()
                continue
            task = granted[0]
            try:
                fut = await runs.attempt(
                    task.job, self.broker.lease_s,
                    restart=lambda: self.broker.renew(worker, [task.id]) > 0)
                if fut.cancelled() or not fut.done():     # past its lease
                    self.broker.expire()
                    runs.stop(fut)
                    continue
                result, wall, events = fut.result()
                self.broker.settle(worker, task.id, payload=result_to_wire(
                    JobResult(job=task.job, result=result, wall_s=wall,
                              events=events, attempts=task.attempts)))
            except Exception as e:
                # A failure of the run, the cache write or the pool settles
                # this task alone as an error (KeyError: its job was dropped).
                with contextlib.suppress(KeyError):
                    self.broker.settle(worker, task.id,
                                       error=f"{type(e).__name__}: {e}")

    def on_request(self, req: Request, resp: Response) -> None:
        self.metrics.observe_http(resp.status)

    # -- handlers --------------------------------------------------------------
    async def handle_health(self, req: Request) -> Response:
        return Response.json({
            "status": "ok",
            "uptime_s": time.time() - self.metrics.started_at,
            "queued": self._queued,
            "active": self._running,
            "jobs_known": len(self.store.jobs()),
        })

    async def handle_metrics(self, req: Request) -> Response:
        return Response.prometheus(self.metrics.render(self.cache))

    async def handle_submit(self, req: Request) -> Response:
        try:
            parsed = parse_job_request(
                req.json(), default_tenant=req.headers.get("x-tenant",
                                                           "default"))
        except BadRequest as e:
            self.metrics.jobs_rejected.inc()
            raise HttpError(400, str(e)) from None
        try:
            job = self.submit(parsed)
        except QuotaExceeded as e:
            self.metrics.jobs_rejected.inc()
            raise HttpError(429, str(e)) from None
        return Response.json({"job": job.summary()}, status=202)

    async def handle_list(self, req: Request) -> Response:
        state = req.first("state")
        jobs = [j.summary() for j in self.store.jobs()
                if state is None or j.state == state]
        return Response.json({"jobs": jobs})

    def _job(self, req: Request) -> Job:
        job = self.store.get(req.params["job_id"])
        if job is None:
            raise HttpError(404, f"unknown job {req.params['job_id']!r}")
        return job

    async def handle_status(self, req: Request) -> Response:
        return Response.json({"job": self._job(req).summary()})

    async def handle_result(self, req: Request) -> Response:
        job = self._job(req)
        if job.state not in TERMINAL_STATES:
            raise HttpError(409, f"job {job.id} is {job.state}; results are "
                                 f"available once it finishes")
        return Response.json({"job": job.result_payload()})

    async def handle_events(self, req: Request) -> Response:
        job = self._job(req)
        return Response(stream=self._event_stream(job),
                        content_type="application/x-ndjson")

    async def _event_stream(self, job: Job) -> AsyncIterator[bytes]:
        cursor = 0
        while True:
            # Capture before draining: everything here runs on the loop
            # thread, so an event appended while a chunk is being written
            # either extends the drain or sets this captured Event.
            changed = job.changed
            while cursor < len(job.events):
                yield (json.dumps(job.events[cursor], sort_keys=True)
                       + "\n").encode("utf-8")
                cursor += 1
            if job.state in TERMINAL_STATES:
                return
            await changed.wait()

    async def handle_cancel(self, req: Request) -> Response:
        job = self._job(req)
        if job.state in TERMINAL_STATES:
            return Response.json({"job": job.summary(), "cancelled": False})
        if not self.cancel(job):
            raise HttpError(409, f"job {job.id} is {job.state}; only queued "
                                 f"jobs can be cancelled")
        return Response.json({"job": job.summary(), "cancelled": True})


def run_server(host: str, port: int, pool_workers: int,
               job_timeout_s: Optional[float], retries: int,
               max_active: int, max_queue: int, tenant_max_jobs: int,
               no_cache: bool = False, cache_dir: Optional[str] = None,
               drain_s: float = 30.0) -> int:
    """Blocking entry point for ``repro serve`` (returns an exit code)."""
    cache = open_cache(cache_dir, no_cache)
    app = ServeApp(pool_workers=pool_workers, job_timeout_s=job_timeout_s,
                   retries=retries, max_active=max_active,
                   max_queue=max_queue, tenant_max_jobs=tenant_max_jobs,
                   cache=cache)

    async def stop() -> None:
        print("repro serve: shutting down ...", flush=True)
        stats = await app.shutdown(drain_s)
        print(f"repro serve: drained (cancelled {stats['cancelled']} queued, "
              f"abandoned {stats['abandoned']} active)", flush=True)

    return run_until_signalled(
        app, host, port, stop=stop,
        banner=lambda bound: (
            f"repro serve: listening on http://{host}:{bound} "
            f"(pool_workers={pool_workers}, max_active={max_active}, "
            f"job_timeout={job_timeout_s}, "
            f"cache={cache.root if cache else 'off'})"))
