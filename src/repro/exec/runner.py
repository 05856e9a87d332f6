"""Process-pool execution: a generic task fan-out plus the sweep runner.

:class:`PoolRunner` is the generic layer: a list of picklable items is
fanned across process-pool workers through one module-level
worker function. Results come back in item order regardless of completion
order, each attempt gets a deadline measured from its own start plus
bounded retries (a hung worker is killed and replaced, never left occupying
a pool slot), and ``workers=1`` runs everything inline (no pool, no
pickling — monkeypatches apply, which the fuzzer's mutation tests rely on).
The pool path runs on :class:`~repro.exec.attempts.AttemptPool`, which
``repro serve``'s slots use too.

:class:`SweepRunner` specializes it for simulation sweeps — ``(SystemConfig,
workload, ops, seed)`` jobs — adding the on-disk
:class:`~repro.exec.cache.ResultCache` pass that short-circuits jobs already
simulated by *any* previous process. The fuzz harness
(:mod:`repro.fuzz.harness`) drives :class:`PoolRunner` directly.

Workers receive the config by value (dataclasses pickle cleanly) and the
workload by catalog name, so nothing process-local leaks into a job and a
job simulated in a worker is bit-identical to the same job simulated
in-process (see ``tests/test_exec_determinism.py``).
"""

from __future__ import annotations

import math
import os
import sys
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import ResultCache
from repro.system.config import ALL_CONFIGS, SystemConfig
from repro.system.stats import SimResult

#: Environment variable setting the default worker count.
ENV_JOBS = "REPRO_JOBS"


def default_workers() -> int:
    """Worker count: ``$REPRO_JOBS`` if set, else the host's CPU count."""
    env = os.environ.get(ENV_JOBS)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"{ENV_JOBS} must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError(f"{ENV_JOBS} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepJob:
    """One point of a sweep grid."""

    config: SystemConfig
    workload: str
    ops: Optional[int] = None
    seed: int = 1
    #: Invariant-audit mode forwarded to ``simulate(validate=...)``:
    #: None (env default) / "off" / "on" / "strict". Not part of the cache
    #: key — validation observes a run, it does not change its results.
    validate: Optional[str] = None
    #: Observability mode forwarded to ``simulate(obs=...)``: None (env
    #: default) / "off" / "on" / "profile". Like ``validate`` it is not
    #: part of the cache key — observation never changes results — so a
    #: cache hit returns the stored result as-is (without an
    #: ``extras["obs"]`` payload if it was stored without one).
    obs: Optional[str] = None
    #: Dispatch-loop mode forwarded to ``simulate(kernel=...)``: None
    #: (simulate's default) or one of
    #: :data:`repro.engine.kernel.KERNEL_MODES`. Not part of the cache key
    #: — every kernel produces a bit-identical result — so perf
    #: measurement of a specific kernel must bypass the cache
    #: (``--no-cache``), or the "run" may be a replayed stored result.
    kernel: Optional[str] = None
    #: Span-tracing mode forwarded to ``simulate(tracing=...)``: None (env
    #: default) / "off" / "on" / "kernel". Like ``obs`` it is not part of
    #: the cache key — tracing observes a run without changing it — so a
    #: cache hit returns the stored result as-is (without an
    #: ``extras["trace"]`` payload if it was stored without one).
    tracing: Optional[str] = None
    #: Distributed trace id (minted at ``repro serve`` submit and threaded
    #: through fleet TaskSpecs). Stamped into the freshly simulated
    #: result's ``extras["trace"]["trace_id"]``; purely an identity tag,
    #: never part of the cache key.
    trace_id: Optional[str] = None

    def label(self) -> str:
        tag = f"/kernel={self.kernel}" if self.kernel else ""
        return (f"{self.config.name}/{self.workload}/ops={self.ops}"
                f"/seed={self.seed}{tag}")


@dataclass
class JobResult:
    """Outcome of one job: the result plus execution telemetry."""

    job: SweepJob
    result: Optional[SimResult]          # None iff the job ultimately failed
    wall_s: float = 0.0                  # simulate() wall time in the worker
    events: int = 0                      # kernel events fired by the run
    cached: bool = False                 # served from the on-disk cache
    attempts: int = 0                    # 0 for cache hits
    error: Optional[str] = None

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def _simulate_job(job: SweepJob) -> Tuple[SimResult, float, int]:
    """Worker entry point: run one job, timing it (module-level: picklable)."""
    from repro.system.sim import simulate
    from repro.workloads.catalog import get_workload

    t0 = _time.perf_counter()
    result = simulate(job.config, get_workload(job.workload),
                      ops_per_core=job.ops, seed=job.seed,
                      validate=job.validate, obs=job.obs, kernel=job.kernel,
                      tracing=job.tracing)
    wall = _time.perf_counter() - t0
    if job.trace_id is not None:
        trace = result.extras.get("trace")
        if isinstance(trace, dict):
            trace["trace_id"] = job.trace_id
    events = int(result.extras.get("events_fired", 0))
    return result, wall, events


def expand_grid(configs: Sequence[str], workloads: Sequence[str],
                ops: Optional[int] = None,
                seeds: Sequence[int] = (1,),
                validate: Optional[str] = None,
                obs: Optional[str] = None,
                kernel: Optional[str] = None,
                tracing: Optional[str] = None,
                trace_id: Optional[str] = None,
                overrides: Optional[Dict[str, Any]] = None) -> List[SweepJob]:
    """Build the (config x workload x seed) job list from config names.

    ``overrides`` (SystemConfig field -> value) is applied to every named
    config — how the CLI's ``--tiering``/``--device-profile``/
    ``--cxl-backend`` flags modify a whole sweep grid at once.
    """
    jobs = []
    for c in configs:
        if c not in ALL_CONFIGS:
            raise KeyError(f"unknown config {c!r}; valid: {list(ALL_CONFIGS)}")
        cfg = ALL_CONFIGS[c]()
        if overrides:
            cfg = cfg.replace(**overrides)
        for w in workloads:
            for s in seeds:
                jobs.append(SweepJob(cfg, w, ops, s, validate=validate,
                                     obs=obs, kernel=kernel, tracing=tracing,
                                     trace_id=trace_id))
    return jobs


@dataclass
class TaskOutcome:
    """Outcome of one generic pool task.

    ``value`` is whatever the worker function returned (``None`` iff every
    attempt failed — workers that can legitimately return ``None`` should
    wrap their result).
    """

    index: int
    item: Any
    value: Any = None
    wall_s: float = 0.0                  # wall time of the successful attempt
    attempts: int = 0
    error: Optional[str] = None


class PoolRunner:
    """Fan picklable items across a process pool, one worker function each.

    Results are returned in item order regardless of completion order.

    Parameters
    ----------
    worker_fn:
        Module-level function ``(item) -> value`` (must pickle). Called
        inline when ``workers == 1``.
    workers:
        Pool size (default: :func:`default_workers`). ``1`` runs items
        inline in this process — no pool, no pickling.
    job_timeout_s:
        Per-attempt deadline in seconds, measured from the attempt's start
        (each pool worker takes the next item when it frees up, so no item
        waits in a queue on its deadline). A timed-out attempt counts as a
        failure; a retry gets a fresh deadline. If it was still running,
        the pool is killed and rebuilt (see
        :meth:`~repro.exec.attempts.AttemptPool.stop`) and the attempts it
        took down start over without being charged, so hung workers can
        neither occupy a slot nor wedge pool shutdown. Inline runs
        (``workers == 1``) are not timed out.
    retries:
        Extra attempts after the first failure/timeout.
    progress:
        Callback ``(done, total, outcome)`` invoked as each item settles.
    """

    def __init__(self, worker_fn: Callable[[Any], Any],
                 workers: Optional[int] = None,
                 job_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 progress: Optional[Callable[[int, int, TaskOutcome], None]] = None):
        self.worker_fn = worker_fn
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.job_timeout_s = job_timeout_s
        self.retries = max(0, retries)
        self.progress = progress

    def run(self, items: Sequence[Any]) -> List[TaskOutcome]:
        """Run every item; the returned list is ordered like ``items``."""
        results: List[Optional[TaskOutcome]] = [None] * len(items)
        if self.workers == 1:
            self._run_inline(items, results)
        else:
            self._run_pool(items, results)
        out = [r for r in results if r is not None]
        assert len(out) == len(items)
        return out

    def _settle(self, out: TaskOutcome, results: List[Optional[TaskOutcome]],
                done: int, total: int) -> int:
        results[out.index] = out
        done += 1
        if self.progress:
            self.progress(done, total, out)
        return done

    def _run_inline(self, items: Sequence[Any],
                    results: List[Optional[TaskOutcome]]) -> None:
        done = 0
        for i, item in enumerate(items):
            out = TaskOutcome(index=i, item=item)
            for attempt in range(1 + self.retries):
                out.attempts = attempt + 1
                t0 = _time.perf_counter()
                try:
                    out.value = self.worker_fn(item)
                    out.wall_s = _time.perf_counter() - t0
                    out.error = None
                    break
                except Exception as e:
                    out.error = f"{type(e).__name__}: {e}"
            done = self._settle(out, results, done, len(items))

    def _run_pool(self, items: Sequence[Any],
                  results: List[Optional[TaskOutcome]]) -> None:
        # Imported here so the event loop and the pool machinery load only
        # when a pool runs, not with every ``import repro.exec``.
        import asyncio

        from repro.exec.attempts import AttemptPool, run_lanes

        todo = iter(enumerate(items))
        timeout = (math.inf if self.job_timeout_s is None
                   else self.job_timeout_s)
        done = 0

        async def lane(pool: AttemptPool) -> None:
            nonlocal done
            for i, item in todo:
                out = TaskOutcome(index=i, item=item)
                while out.attempts <= self.retries:
                    out.attempts += 1
                    t0 = _time.perf_counter()
                    fut = await pool.attempt(item, timeout)
                    if fut.cancelled() or not fut.done():
                        pool.stop(fut)
                        out.error = f"timeout after {self.job_timeout_s}s"
                    elif fut.exception() is not None:
                        err = fut.exception()
                        out.error = f"{type(err).__name__}: {err}"
                    else:
                        out.value = fut.result()
                        out.wall_s = _time.perf_counter() - t0
                        out.error = None
                        break
                done = self._settle(out, results, done, len(items))

        asyncio.run(run_lanes(AttemptPool(self.worker_fn, self.workers), lane))


class SweepRunner:
    """Fan jobs across a process pool with caching, timeout, and retries.

    A thin simulation-specific layer over :class:`PoolRunner`: an on-disk
    cache pass settles hits without touching the pool, then uncached jobs
    run through the generic fan-out and the results are written back.

    Parameters
    ----------
    workers:
        Pool size (default: :func:`default_workers`). ``1`` runs jobs
        inline in this process — no pool, no pickling.
    cache:
        Optional :class:`ResultCache` consulted before any job is
        submitted and updated as results arrive.
    job_timeout_s:
        Per-attempt deadline in seconds, measured from the job's own
        submission (see :class:`PoolRunner`). A timed-out attempt is
        resubmitted with a fresh deadline; a hung worker is killed and
        replaced rather than left occupying a pool slot.
    retries:
        Extra attempts after the first failure/timeout.
    progress:
        Callback ``(done, total, job_result)`` invoked as each job
        settles; use :func:`print_progress` for a stderr ticker.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 job_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 progress: Optional[Callable[[int, int, JobResult], None]] = None):
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.cache = cache
        self.job_timeout_s = job_timeout_s
        self.retries = max(0, retries)
        self.progress = progress

    # -- execution -------------------------------------------------------------
    def run(self, jobs: Sequence[SweepJob]) -> List[JobResult]:
        """Run every job; the returned list is ordered like ``jobs``."""
        results: List[Optional[JobResult]] = [None] * len(jobs)
        todo: List[int] = []

        # Cache pass: settle hits without touching the pool.
        done = 0
        for i, job in enumerate(jobs):
            hit = self.cache.get(job.config, job.workload, job.ops,
                                 job.seed) if self.cache else None
            if hit is not None:
                results[i] = JobResult(
                    job=job, result=hit, cached=True,
                    events=int(hit.extras.get("events_fired", 0)))
                done += 1
                if self.progress:
                    self.progress(done, len(jobs), results[i])
            else:
                todo.append(i)

        if todo:
            total = len(jobs)

            def _on_outcome(_done: int, _total: int, out: TaskOutcome) -> None:
                # PoolRunner indexes the todo-sublist; remap onto job indexes.
                nonlocal done
                done = self._settle(todo[out.index], self._to_job_result(out),
                                    results, done, total)

            pool = PoolRunner(_simulate_job, workers=self.workers,
                              job_timeout_s=self.job_timeout_s,
                              retries=self.retries, progress=_on_outcome)
            pool.run([jobs[i] for i in todo])

        out = [r for r in results if r is not None]
        assert len(out) == len(jobs)
        return out

    @staticmethod
    def _to_job_result(out: TaskOutcome) -> JobResult:
        if out.value is None:
            return JobResult(job=out.item, result=None, attempts=out.attempts,
                             error=out.error)
        result, wall, events = out.value
        return JobResult(job=out.item, result=result, wall_s=wall,
                         events=events, attempts=out.attempts)

    def _settle(self, i: int, jr: JobResult,
                results: List[Optional[JobResult]], done: int,
                total: int) -> int:
        results[i] = jr
        if jr.result is not None and self.cache:
            self.cache.put(jr.job.config, jr.job.workload, jr.job.ops,
                           jr.job.seed, jr.result)
        done += 1
        if self.progress:
            self.progress(done, total, jr)
        return done


def print_progress(done: int, total: int, jr: JobResult) -> None:
    """Stderr progress ticker for interactive sweeps."""
    tag = "cache" if jr.cached else (
        "FAIL " if jr.result is None else f"{jr.wall_s:5.1f}s")
    print(f"  [{done:3d}/{total}] {tag}  {jr.job.label()}", file=sys.stderr)


def run_sweep(configs: Sequence[str], workloads: Sequence[str],
              ops: Optional[int] = None, seeds: Sequence[int] = (1,),
              workers: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              job_timeout_s: Optional[float] = None, retries: int = 1,
              progress: Optional[Callable[[int, int, JobResult], None]] = None,
              validate: Optional[str] = None,
              obs: Optional[str] = None,
              kernel: Optional[str] = None,
              tracing: Optional[str] = None,
              ) -> List[JobResult]:
    """One-call grid sweep: expand, run, return ordered :class:`JobResult`\\ s."""
    jobs = expand_grid(configs, workloads, ops, seeds, validate=validate,
                       obs=obs, kernel=kernel, tracing=tracing)
    runner = SweepRunner(workers=workers, cache=cache,
                         job_timeout_s=job_timeout_s, retries=retries,
                         progress=progress)
    return runner.run(jobs)
