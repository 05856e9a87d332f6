"""The fleet broker: a work-queue that leases tasks to workers.

:class:`FleetBroker` is the pure state machine — no sockets — so every
failure path is unit-testable with an injected clock. It is the one job
plane of the repo: ``repro fleet broker`` puts it behind HTTP for remote
workers, and ``repro serve`` runs every job as broker tasks leased by
in-process slots. Tasks are queued by ``(-priority, enqueue order)`` and
*leased* (not handed over): a lease carries a deadline, and a task whose
lease expires without a settle is requeued and offered to the next worker
that asks — which is what makes the fleet work-stealing: a dead, hung, or
slow worker's tasks migrate to its peers automatically. Each lease is one
attempt, and a task is failed once ``1 + retries`` attempts are exhausted.

Settlement is idempotent and commutative. Results are content-identical
no matter which worker produced them (simulation is deterministic and
results round-trip through the content-addressed cache serialization), so
the first settle wins, any later duplicate — a worker that missed its
deadline but finished anyway, or two workers racing after a requeue — is
counted and dropped, and :meth:`FleetBroker.results` always returns
results in task order regardless of lease or settle interleaving.

Per-state counts are incremental and the queue and lease deadlines are
lazy-deletion heaps, so no operation scans the tasks retained; a caller
drops tasks it no longer needs with :meth:`FleetBroker.forget`.

:class:`BrokerApp` is the HTTP facade over one broker, built on the
:mod:`repro.fleet.http` layer the job server uses too; ``run_broker`` is
the blocking ``repro fleet broker`` entry point.
"""

from __future__ import annotations

import asyncio
import dataclasses
import heapq
import math
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.cache import ResultCache, open_cache
from repro.exec.runner import JobResult, SweepJob
from repro.fleet.http import HttpApp, HttpError, Response, run_until_signalled
from repro.fleet.protocol import TaskSpec, result_from_wire, result_to_wire
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricRegistry

__all__ = ["BrokerApp", "BrokerMetrics", "FleetBroker", "Task", "run_broker",
           "TASK_STATES", "TERMINAL"]

#: Task lifecycle. ``queued -> leased -> done|failed``; an expired or
#: error-settled lease moves the task back to ``queued`` while attempts
#: remain.
TASK_STATES = ("queued", "leased", "done", "failed")
TERMINAL = ("done", "failed")


class BrokerMetrics:
    """Task metrics of one broker, named ``<namespace>_<metric>``.

    ``repro serve`` subclasses this in its own namespace (see
    :class:`~repro.serve.server.ServerMetrics`), so its broker counts into
    the server's registry. Cache totals are lifted from the shared
    :class:`ResultCache` at scrape time rather than counted per settle.
    """

    namespace = "repro_fleet"
    #: Name of the queued-task gauge. The fleet's queue holds tasks; the
    #: server keeps ``queue_depth`` for queued *jobs* and renames this.
    queued_tasks_name = "queue_depth"

    def __init__(self, registry: Optional[MetricRegistry] = None):
        self.registry = registry if registry is not None else MetricRegistry()
        r, ns = self.registry, self.namespace
        self.started_at = time.time()
        self.tasks_submitted = r.counter(f"{ns}_tasks_submitted_total")
        self.tasks_leased = r.counter(f"{ns}_tasks_leased_total")
        self.tasks_settled = r.counter(f"{ns}_tasks_settled_total")
        self.tasks_cached = r.counter(f"{ns}_tasks_cached_total")
        self.tasks_requeued = r.counter(f"{ns}_tasks_requeued_total")
        self.tasks_failed = r.counter(f"{ns}_tasks_failed_total")
        self.duplicate_settles = r.counter(f"{ns}_duplicate_settles_total")
        self.queued_tasks = r.gauge(f"{ns}_{self.queued_tasks_name}")
        self.leased = r.gauge(f"{ns}_leased_tasks")
        self.workers_seen = r.gauge(f"{ns}_workers_seen")
        self.task_wall = r.histogram(f"{ns}_task_wall_seconds")
        self._cache_hits = r.counter(f"{ns}_cache_hits_total")
        self._cache_misses = r.counter(f"{ns}_cache_misses_total")
        self._cache_stores = r.counter(f"{ns}_cache_stores_total")
        self._uptime = r.gauge(f"{ns}_uptime_seconds")

    def render(self, cache: Optional[ResultCache] = None) -> str:
        """The ``/metrics`` body: refresh derived values, then export."""
        self._uptime.set(time.time() - self.started_at)
        if cache is not None:
            counts = cache.counters()
            self._cache_hits.set_total(counts["hits"])
            self._cache_misses.set_total(counts["misses"])
            self._cache_stores.set_total(counts["stores"])
        return prometheus_text({"metrics": self.registry.snapshot()})


@dataclass(eq=False)
class Task:
    """One unit of fleet work and its full lifecycle state."""

    id: int
    spec: TaskSpec
    job: SweepJob                       # materialized once, at submission
    priority: int = 0
    state: str = "queued"
    attempts: int = 0                   # leases granted (cf. PoolRunner)
    worker: Optional[str] = None        # current/last lease holder
    lease_deadline: Optional[float] = None
    requeues: int = 0
    settles: int = 0                    # settle messages received (any kind)
    result: Optional[JobResult] = None
    error: Optional[str] = None
    #: Failed because its last lease expired unsettled. ``repro serve``
    #: does not renew a running attempt's lease, so there this means the
    #: task ran past its deadline.
    timed_out: bool = False
    #: Called with the task after each of its state changes (the submit
    #: caller's hook; ``repro serve`` advances its jobs from it).
    on_change: Optional[Callable[["Task"], None]] = None

    def summary(self) -> Dict[str, Any]:
        return {"id": self.id, "label": self.spec.label(), "state": self.state,
                "attempts": self.attempts, "worker": self.worker,
                "requeues": self.requeues, "settles": self.settles,
                "cached": bool(self.result.cached) if self.result else False,
                "error": self.error}


class FleetBroker:
    """Lease-based work queue with expiry, requeue, and idempotent settle.

    Parameters
    ----------
    cache:
        Optional shared :class:`ResultCache`. Submitted tasks already in
        the cache settle immediately without ever being leased, and
        uploaded results are written back so a later resubmission (or a
        worker sharing the directory) inherits them — the same dedupe and
        crash-recovery semantics the single-host sweep runner has.
    lease_s:
        Lease duration granted per task. Workers renew mid-task; a lease
        that expires unrenewed is presumed dead and requeued.
        ``math.inf`` grants leases that never expire.
    retries:
        Extra attempts after the first lease (expiry and error settles
        both consume attempts).
    now_fn:
        Monotonic clock, injectable for deterministic expiry tests.
    metrics:
        Where to count (default: a fresh :class:`BrokerMetrics`).
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 lease_s: float = 60.0, retries: int = 2,
                 now_fn: Callable[[], float] = time.monotonic,
                 metrics: Optional[BrokerMetrics] = None):
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        self.cache = cache
        self.lease_s = lease_s
        self.retries = max(0, retries)
        self.now_fn = now_fn
        self.metrics = metrics if metrics is not None else BrokerMetrics()
        self.closing = False
        self._tasks: Dict[int, Task] = {}
        self._counts = dict.fromkeys(TASK_STATES, 0)
        #: ``(-priority, enqueue seq, task id)``; entries of tasks that left
        #: the queue some other way (settled, forgotten) are skipped on pop.
        self._queue: List[Tuple[int, int, int]] = []
        self._seq = 0
        #: ``(deadline, task id)``; entries whose task was settled, renewed
        #: or forgotten are skipped on pop.
        self._deadlines: List[Tuple[float, int]] = []
        self._next_id = 1
        self._workers: Set[str] = set()
        self._changed: Optional[asyncio.Event] = None

    # -- state transitions -----------------------------------------------------
    def _move(self, task: Task, state: str) -> None:
        """The one place a task changes state: counts, gauges, hook."""
        self._counts[task.state] -= 1
        self._counts[state] += 1
        task.state = state
        self.metrics.queued_tasks.set(self._counts["queued"])
        self.metrics.leased.set(self._counts["leased"])
        if task.on_change is not None:
            task.on_change(task)

    def _enqueue(self, task: Task) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (-task.priority, self._seq, task.id))

    def _requeue(self, task: Task) -> None:
        task.lease_deadline = None
        task.requeues += 1
        self.metrics.tasks_requeued.inc()
        self._enqueue(task)
        self._move(task, "queued")

    # -- submission ------------------------------------------------------------
    def submit(self, specs: Sequence[TaskSpec], priority: int = 0,
               on_change: Optional[Callable[[Task], None]] = None,
               ) -> List[int]:
        """Queue tasks; cache hits settle instantly without a lease.

        This is where trace ids are minted: one per call, stamped onto
        every spec that carries none. ``priority`` orders the queue
        (higher first, FIFO within a priority); ``on_change`` is called
        after every state change of the submitted tasks, including the
        cache-hit settles inside this call.
        """
        trace_id = uuid.uuid4().hex
        ids: List[int] = []
        for spec in specs:
            if spec.trace_id is None:
                spec = dataclasses.replace(spec, trace_id=trace_id)
            task = Task(id=self._next_id, spec=spec, job=spec.build_job(),
                        priority=priority, on_change=on_change)
            self._next_id += 1
            self._tasks[task.id] = task
            self._counts["queued"] += 1
            ids.append(task.id)
            self.metrics.tasks_submitted.inc()
            hit = None
            if self.cache is not None:
                job = task.job
                hit = self.cache.get(job.config, job.workload, job.ops,
                                     job.seed)
            if hit is not None:
                task.result = JobResult(
                    job=task.job, result=hit, cached=True,
                    events=int(hit.extras.get("events_fired", 0)))
                self.metrics.tasks_settled.inc()
                self.metrics.tasks_cached.inc()
                self._move(task, "done")
            else:
                self._enqueue(task)
        self.metrics.queued_tasks.set(self._counts["queued"])
        self._notify()
        return ids

    # -- leasing ---------------------------------------------------------------
    def lease(self, worker: str, max_tasks: int = 1) -> List[Task]:
        """Grant up to ``max_tasks`` leases to ``worker`` (queue order)."""
        self.expire()
        if worker not in self._workers:
            self._workers.add(worker)
            self.metrics.workers_seen.set(len(self._workers))
        granted: List[Task] = []
        while self._queue and len(granted) < max(1, max_tasks):
            task = self._tasks.get(heapq.heappop(self._queue)[2])
            if task is None or task.state != "queued":
                continue                 # settled or forgotten while queued
            task.worker = worker
            task.attempts += 1
            self._set_deadline(task, self.now_fn() + self.lease_s)
            self.metrics.tasks_leased.inc()
            granted.append(task)
            self._move(task, "leased")
        return granted

    def _set_deadline(self, task: Task, deadline: float) -> None:
        task.lease_deadline = deadline
        if deadline != math.inf:         # an endless lease never expires
            heapq.heappush(self._deadlines, (deadline, task.id))

    def renew(self, worker: str, task_ids: Sequence[int]) -> int:
        """Extend the lease deadline of tasks still held by ``worker``."""
        renewed = 0
        now = self.now_fn()
        for tid in task_ids:
            task = self._tasks.get(tid)
            if (task is not None and task.state == "leased"
                    and task.worker == worker):
                self._set_deadline(task, now + self.lease_s)
                renewed += 1
        return renewed

    def expire(self) -> List[int]:
        """Requeue (or fail) every task whose lease deadline has passed."""
        now = self.now_fn()
        moved: List[int] = []
        while self._deadlines and self._deadlines[0][0] <= now:
            deadline, tid = heapq.heappop(self._deadlines)
            task = self._tasks.get(tid)
            if (task is None or task.state != "leased"
                    or task.lease_deadline != deadline):
                continue                 # settled, renewed or forgotten
            moved.append(tid)
            if task.attempts >= 1 + self.retries:
                task.timed_out = True
                self._fail(task, f"lease expired after {task.attempts} "
                                 f"attempt(s) ({self.lease_s}s each)")
            else:
                self._requeue(task)
        if moved:
            self._notify()
        return moved

    async def expire_forever(self) -> None:
        """Requeue expired leases even while no worker is calling in."""
        tick = max(0.05, min(1.0, self.lease_s / 4.0))
        while True:
            nearest = self._deadlines[0][0] if self._deadlines else math.inf
            await asyncio.sleep(max(0.0, min(tick, nearest - self.now_fn())))
            self.expire()

    # -- settlement ------------------------------------------------------------
    def settle(self, worker: str, task_id: int,
               payload: Optional[Dict[str, Any]] = None,
               error: Optional[str] = None) -> str:
        """Record one task outcome; returns the disposition.

        ``"ok"``    — first successful settle; the task is done.
        ``"duplicate"`` — the task was already done (late or racing
        settle); the message is counted and dropped.
        ``"requeued"`` / ``"failed"`` — an error settle consumed an
        attempt and the task was requeued or exhausted.
        """
        task = self.task(task_id)
        task.settles += 1
        if task.state in TERMINAL:
            self.metrics.duplicate_settles.inc()
            return "duplicate"
        if error is not None:
            # An error settle consumes the attempt its lease granted — but
            # only from the current lease holder. A stale holder (its lease
            # expired and the task was requeued or re-leased) must not
            # charge the task a second attempt for the same lease.
            if task.state != "leased" or task.worker != worker:
                self.metrics.duplicate_settles.inc()
                return "stale"
            disposition = self._settle_error(task, error)
        else:
            if payload is None:
                raise ValueError("settle needs a result payload or an error")
            disposition = self._settle_ok(task, worker, payload)
        self._notify()
        return disposition

    def _settle_ok(self, task: Task, worker: str,
                   payload: Dict[str, Any]) -> str:
        # A settle that raced a requeue is still a completion: first wins
        # (its queue entry is skipped when popped).
        jr = result_from_wire(task.job, payload)
        # Store first: if the write raises, the task is untouched, so the
        # caller can settle it as an error (or let its lease expire).
        if (self.cache is not None and jr.result is not None
                and not payload.get("stored", False)):
            self.cache.put(task.job.config, task.job.workload, task.job.ops,
                           task.job.seed, jr.result)
        task.worker = worker
        task.lease_deadline = None
        task.result = jr
        self.metrics.tasks_settled.inc()
        if jr.cached:
            self.metrics.tasks_cached.inc()
        if jr.wall_s > 0:
            self.metrics.task_wall.record(jr.wall_s)
        self._move(task, "done")
        return "ok"

    def _settle_error(self, task: Task, error: str) -> str:
        if task.attempts >= 1 + self.retries:
            self._fail(task, error)
            return "failed"
        self._requeue(task)
        return "requeued"

    def _fail(self, task: Task, error: str) -> None:
        task.lease_deadline = None
        task.error = error
        task.result = JobResult(job=task.job, result=None,
                                attempts=task.attempts, error=error)
        self.metrics.tasks_failed.inc()
        self._move(task, "failed")

    def forget(self, task_ids: Sequence[int]) -> None:
        """Drop tasks (any state) and their results; unknown ids are ignored.

        A forgotten queued task is never leased, and a settle for a
        forgotten task raises ``KeyError`` like any unknown id.
        """
        for tid in task_ids:
            task = self._tasks.pop(tid, None)
            if task is not None:
                self._counts[task.state] -= 1
        self.metrics.queued_tasks.set(self._counts["queued"])
        self.metrics.leased.set(self._counts["leased"])

    # -- inspection ------------------------------------------------------------
    def task(self, task_id: int) -> Task:
        task = self._tasks.get(task_id)
        if task is None:
            raise KeyError(f"unknown task {task_id}")
        return task

    def tasks(self) -> List[Task]:
        """Every retained task, in submission order."""
        return list(self._tasks.values())

    def counts(self) -> Dict[str, int]:
        return {"total": len(self._tasks), "workers": len(self._workers),
                **self._counts}

    def done(self, task_ids: Optional[Sequence[int]] = None) -> bool:
        """Whether every named task (default: all) reached a terminal state."""
        if task_ids is None:
            return self._counts["queued"] + self._counts["leased"] == 0
        return all(self.task(t).state in TERMINAL for t in task_ids)

    def results(self, task_ids: Optional[Sequence[int]] = None) -> List[JobResult]:
        """Ordered results (task order == submission order, always).

        Only meaningful once :meth:`done`; raises if a named task is still
        in flight so a caller can never silently read a partial fleet.
        """
        ids = sorted(task_ids) if task_ids is not None else sorted(self._tasks)
        out: List[JobResult] = []
        for tid in ids:
            task = self.task(tid)
            if task.result is None:
                raise RuntimeError(f"task {tid} is {task.state}; results are "
                                   f"available once every task settles")
            out.append(task.result)
        return out

    def drain(self) -> None:
        """Tell workers (via lease responses) to exit once the queue is dry."""
        self.closing = True
        self._notify()

    # -- change signalling (HTTP facade wait endpoints) ------------------------
    def _notify(self) -> None:
        if self._changed is not None:
            self._changed.set()
            self._changed = None

    def changed_event(self) -> asyncio.Event:
        """An event set on the next state change (loop-thread callers only)."""
        if self._changed is None:
            self._changed = asyncio.Event()
        return self._changed


# -- the HTTP facade -----------------------------------------------------------

class BrokerApp(HttpApp):
    """HTTP front of one :class:`FleetBroker` (see ``docs/fleet.md``).

    Endpoints (all JSON)::

        GET  /healthz      liveness + task/worker counts
        GET  /metrics      Prometheus text exposition
        POST /tasks        {"specs": [...]} -> {"ids": [...]}
        GET  /tasks        every task's lifecycle summary
        POST /lease        {"worker", "max"} -> {"tasks", "lease_s", "closing"}
        POST /renew        {"worker", "ids"} -> {"renewed"}
        POST /settle       {"worker", "id", "payload"| "error"} -> {"status"}
        GET  /results?ids= full wire results (409 until the ids settle)
        POST /drain        flag workers to exit once the queue is dry
    """

    def __init__(self, broker: Optional[FleetBroker] = None, **broker_kwargs):
        super().__init__()
        self.broker = broker if broker is not None else FleetBroker(**broker_kwargs)
        r = self.router
        r.add("GET", "/healthz", self.handle_health)
        r.add("GET", "/metrics", self.handle_metrics)
        r.add("POST", "/tasks", self.handle_submit)
        r.add("GET", "/tasks", self.handle_tasks)
        r.add("POST", "/lease", self.handle_lease)
        r.add("POST", "/renew", self.handle_renew)
        r.add("POST", "/settle", self.handle_settle)
        r.add("GET", "/results", self.handle_results)
        r.add("POST", "/drain", self.handle_drain)
        self._expiry_task: Optional[asyncio.Task] = None

    # -- lifecycle -------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.base_events.Server:
        self._expiry_task = asyncio.get_running_loop().create_task(
            self.broker.expire_forever(), name="repro-fleet-expiry")
        return await self.listen(host, port)

    async def shutdown(self) -> None:
        if self._expiry_task is not None:
            self._expiry_task.cancel()
            try:
                await self._expiry_task
            except asyncio.CancelledError:
                pass
        await self.close()

    # -- handlers --------------------------------------------------------------
    async def handle_health(self, req):
        return Response.json({"status": "ok", "closing": self.broker.closing,
                              **self.broker.counts()})

    async def handle_metrics(self, req):
        return Response.prometheus(
            self.broker.metrics.render(self.broker.cache))

    async def handle_submit(self, req):
        body = req.json()
        raw = body.get("specs")
        if not isinstance(raw, list) or not raw:
            raise HttpError(400, "'specs' must be a non-empty list")
        try:
            specs = [TaskSpec.from_dict(d) for d in raw]
            jobs = [s.build_job() for s in specs]     # validates eagerly
        except (KeyError, ValueError, TypeError) as e:
            raise HttpError(400, f"invalid task spec: {e}") from None
        del jobs
        ids = self.broker.submit(specs)
        return Response.json({"ids": ids,
                              "trace_id": self.broker.task(ids[0]).spec.trace_id},
                             status=202)

    async def handle_tasks(self, req):
        tasks = [t.summary() for t in self.broker.tasks()]
        return Response.json({"tasks": tasks, **self.broker.counts()})

    async def handle_lease(self, req):
        body = req.json()
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker.strip():
            raise HttpError(400, "'worker' must be a non-empty string")
        max_tasks = body.get("max", 1)
        if not isinstance(max_tasks, int) or max_tasks < 1:
            raise HttpError(400, "'max' must be a positive integer")
        granted = self.broker.lease(worker.strip(), max_tasks)
        return Response.json({
            "tasks": [{"id": t.id, "spec": t.spec.to_dict(),
                       "attempt": t.attempts} for t in granted],
            "lease_s": self.broker.lease_s,
            "closing": self.broker.closing and not granted,
        })

    async def handle_renew(self, req):
        body = req.json()
        worker = body.get("worker", "")
        ids = body.get("ids")
        if not isinstance(ids, list) or not all(isinstance(i, int) for i in ids):
            raise HttpError(400, "'ids' must be a list of integers")
        return Response.json({"renewed": self.broker.renew(worker, ids)})

    async def handle_settle(self, req):
        body = req.json()
        worker = body.get("worker", "")
        task_id = body.get("id")
        if not isinstance(task_id, int):
            raise HttpError(400, "'id' must be an integer task id")
        payload = body.get("payload")
        error = body.get("error")
        try:
            status = self.broker.settle(worker, task_id, payload=payload,
                                        error=error)
        except KeyError as e:
            raise HttpError(404, str(e).strip("'\"")) from None
        except (ValueError, TypeError) as e:
            raise HttpError(400, str(e)) from None
        return Response.json({"status": status})

    async def handle_results(self, req):
        raw = req.first("ids")
        ids = None
        if raw:
            try:
                ids = [int(x) for x in raw.split(",") if x.strip()]
            except ValueError:
                raise HttpError(
                    400, "'ids' must be comma-separated integers") from None
        try:
            results = self.broker.results(ids)
        except KeyError as e:
            raise HttpError(404, str(e).strip("'\"")) from None
        except RuntimeError as e:
            raise HttpError(409, str(e)) from None
        out = []
        for tid, jr in zip(sorted(ids) if ids is not None
                           else [t.id for t in self.broker.tasks()], results):
            out.append({"id": tid, "spec": self.broker.task(tid).spec.to_dict(),
                        **result_to_wire(jr)})
        return Response.json({"results": out})

    async def handle_drain(self, req):
        self.broker.drain()
        return Response.json({"closing": True})


def run_broker(host: str, port: int, lease_s: float, retries: int,
               no_cache: bool = False, cache_dir: Optional[str] = None) -> int:
    """Blocking entry point for ``repro fleet broker`` (returns exit code)."""
    cache = open_cache(cache_dir, no_cache)
    app = BrokerApp(cache=cache, lease_s=lease_s, retries=retries)

    async def stop() -> None:
        counts = app.broker.counts()
        print(f"repro fleet broker: shutting down ({counts['done']} done, "
              f"{counts['failed']} failed, {counts['queued']} queued)",
              flush=True)
        await app.shutdown()

    return run_until_signalled(
        app, host, port, stop=stop,
        banner=lambda bound: (
            f"repro fleet broker: listening on http://{host}:{bound} "
            f"(lease={lease_s}s, retries={retries}, "
            f"cache={cache.root if cache else 'off'})"))
