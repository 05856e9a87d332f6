"""Attempts with deadlines on a process pool or daemon threads: the one
hung-worker mechanism of the repo, under both
:class:`~repro.exec.runner.PoolRunner`'s pool path and ``repro serve``'s
slots (each runs :func:`run_lanes` over an :class:`AttemptPool`).
"""

from __future__ import annotations

import asyncio
import ctypes
import math
import threading
import time as _time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Awaitable, Callable, Dict, Optional

__all__ = ["AttemptAbandoned", "AttemptPool", "run_lanes"]


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that may hold hung workers, without blocking.

    ``shutdown(cancel_futures=True)`` drops queued work items, but a
    *running* hung task would still wedge ``shutdown(wait=True)`` — and
    interpreter exit — indefinitely, so the worker processes themselves are
    killed. The pool is being discarded entirely; losing its in-flight
    state is the point.

    The process handles must be captured *before* ``shutdown()``: it nulls
    out ``_processes`` unconditionally, even with ``wait=False``. SIGKILL
    (not SIGTERM) because a worker deep in a compute loop must die now —
    once its processes are dead the executor's manager thread observes the
    broken pool and unwinds, so the atexit join cannot block exit.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for p in procs:
        try:
            p.kill()
        except Exception:
            pass
    grace = _time.perf_counter() + 5.0
    for p in procs:
        try:
            p.join(timeout=max(0.0, grace - _time.perf_counter()))
        except Exception:
            pass


class AttemptAbandoned(BaseException):
    """Raised inside an inline attempt that ran past its deadline."""


_set_async_exc = ctypes.pythonapi.PyThreadState_SetAsyncExc
_set_async_exc.argtypes = (ctypes.c_ulong, ctypes.py_object)
_set_async_exc.restype = ctypes.c_int


class AttemptPool:
    """Runs attempts of one worker function as asyncio futures, with deadlines.

    With ``workers > 1`` attempts share a process pool, built on first use
    and rebuilt after a stop or a dead worker process. With one worker each
    attempt runs on a fresh daemon thread (``repro serve``'s inline slots):
    unlike the default executor's, a daemon thread is never joined at
    interpreter exit, so a simulation that outlives its deadline cannot
    keep the process alive. Loop-thread use only.
    """

    def __init__(self, worker_fn: Callable[[Any], Any], workers: int,
                 name: str = "repro-attempt"):
        self.worker_fn = worker_fn
        self.workers = workers
        self.name = name
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Running attempts, with the thread of each inline one.
        self._running: Dict[asyncio.Future, Optional[threading.Thread]] = {}

    def start(self, item: Any) -> asyncio.Future:
        """Start one attempt now."""
        thread = None
        if self.workers == 1:
            done: Future = Future()
            done.set_running_or_notify_cancel()   # it cannot be cancelled

            def target() -> None:
                try:
                    done.set_result(self.worker_fn(item))
                except BaseException as e:
                    done.set_exception(e)
            thread = threading.Thread(target=target, name=self.name,
                                      daemon=True)
            thread.start()
        else:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            try:
                done = self._pool.submit(self.worker_fn, item)
            except BrokenProcessPool:             # a worker process died
                self.stop()
                return self.start(item)
        fut = asyncio.wrap_future(done)
        self._running[fut] = thread
        fut.add_done_callback(lambda f: self._running.pop(f, None))
        return fut

    async def attempt(self, item: Any, timeout: float = math.inf,
                      restart: Callable[[], bool] = lambda: True,
                      ) -> asyncio.Future:
        """Run ``item`` until it ends or ``timeout`` seconds pass.

        Returns the attempt's future: done if it ended, and otherwise timed
        out — still running (the caller decides whether to :meth:`stop`
        it), or cancelled by a neighbour's stop after its deadline. One a
        neighbour's stop cancelled earlier is started over with a fresh
        deadline when ``restart()`` allows, without counting as a failure.
        """
        while True:
            fut = self.start(item)
            end = _time.monotonic() + timeout
            while not fut.done() and _time.monotonic() < end:
                await asyncio.wait([fut], timeout=None if math.isinf(end)
                                   else max(0.0, end - _time.monotonic()))
            if (not fut.cancelled() or _time.monotonic() >= end
                    or not restart()):
                return fut

    def stop(self, fut: Optional[asyncio.Future] = None) -> None:
        """Stop the running attempt ``fut`` (default: every attempt).

        A process pool cannot kill one worker, so the whole pool is killed,
        every attempt on it is cancelled, and the next :meth:`start` builds
        a new pool. A thread cannot be killed either, so CPython is asked
        to raise :class:`AttemptAbandoned` in it at its next bytecode: a
        pure-Python simulation stops within milliseconds (a long C call
        delays it) instead of holding the GIL and slowing every other
        inline attempt several-fold.
        """
        if fut is not None and fut.done():
            return                                # ended or already stopped
        stopped = [fut] if fut is not None and self._pool is None else list(
            self._running)
        for f in stopped:
            thread = self._running.pop(f, None)
            f.cancel()
            if thread is not None and thread.is_alive():
                _set_async_exc(thread.ident, AttemptAbandoned)
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None

    def close(self) -> None:
        """Stop whatever still runs; shut an idle pool down cleanly."""
        if self._running:
            self.stop()
        elif self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


async def run_lanes(pool: AttemptPool,
                    lane: Callable[[AttemptPool], Awaitable[None]]) -> None:
    """Run one copy of ``lane`` per worker of ``pool``; close the pool after."""
    try:
        await asyncio.gather(*(lane(pool) for _ in range(pool.workers)))
    finally:
        pool.close()
