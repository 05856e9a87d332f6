"""The simulation kernel: owns the clock and drains the event queue."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.engine.event import Event, EventQueue

#: Dispatch-loop implementations a :class:`Simulator` can run.
KERNEL_MODES = ("fast", "reference")


class Simulator:
    """Discrete-event simulator.

    All components share one :class:`Simulator`. Time is float nanoseconds.

    ``schedule``/``schedule_at`` are the hot path: they push plain
    ``(time, seq, fn, args)`` tuples and return ``None``. Callers that need
    to cancel a pending event use ``schedule_cancellable`` /
    ``schedule_at_cancellable``, which return an :class:`Event` handle.

    ``kernel`` selects the dispatch loop: ``"fast"`` (default) pops heap
    tuples inline, ``"reference"`` goes through the :class:`EventQueue`
    ``peek_time``/``pop`` API one event at a time. Both loops must produce
    bit-identical simulations — the fuzzer's ``diff_kernel`` oracle runs
    every generated config through them and compares the full
    ``SimResult``.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, fired.append, "a")
    >>> sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, kernel: str = "fast") -> None:
        if kernel not in KERNEL_MODES:
            raise ValueError(f"kernel must be one of {KERNEL_MODES}, got {kernel!r}")
        self.now: float = 0.0
        self.queue = EventQueue()
        self.events_fired: int = 0
        self.kernel = kernel
        #: Optional dispatch observer, called as ``observer(fn)`` after
        #: each fired callback — never for cancelled entries — by both
        #: loops alike (:class:`repro.obs.KernelProfiler` is the one
        #: implementation). It must not schedule, so observed runs stay
        #: bit-identical; ``None`` (the default) costs one compare per event.
        self.observer: Optional[Callable[[Callable[..., Any]], None]] = None

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Inlined EventQueue.push_fast: this is the hottest call in the
        # simulator, worth saving the extra frame.
        q = self.queue
        heapq.heappush(q._heap, (self.now + delay, q._seq, fn, args))
        q._seq += 1
        q._live += 1

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        q = self.queue
        heapq.heappush(q._heap, (time, q._seq, fn, args))
        q._seq += 1
        q._live += 1

    def schedule_cancellable(self, delay: float, fn: Callable[..., Any],
                             *args: Any) -> Event:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.queue.push(self.now + delay, fn, *args)

    def schedule_at_cancellable(self, time: float, fn: Callable[..., Any],
                                *args: Any) -> Event:
        """Like :meth:`schedule_at`, but returns a cancellable handle."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.queue.push(time, fn, *args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly after this time. The clock
            is left at ``until`` (or the last event time if earlier).
        max_events:
            Safety valve: stop after this many events.

        The fast loop pops heap tuples directly instead of going through
        ``peek_time()`` + ``pop()``, which would scan past cancelled entries
        twice per event; ``kernel="reference"`` keeps the un-inlined loop
        as the differential-testing baseline.
        """
        if self.kernel == "reference":
            self.run_reference(until=until, max_events=max_events)
            return
        queue = self.queue
        heap = queue._heap
        cancelled = queue._cancelled
        heappop = heapq.heappop
        observer = self.observer
        fired = 0
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                break
            time, seq, fn, args = heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            queue._live -= 1
            self.now = time
            fn(*args)
            if observer is not None:
                observer(fn)
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        self.events_fired += fired

    def run_reference(self, until: Optional[float] = None,
                      max_events: Optional[int] = None) -> None:
        """Reference dispatch loop: one :class:`EventQueue` call per step.

        Semantically identical to :meth:`run` — same (time, seq) ordering,
        same ``until`` clock semantics, same cancellation handling — but
        built from the queue's public ``peek_time``/``pop`` API with a
        per-event :class:`Event` allocation. It is the retained baseline the
        fuzzer's differential oracle compares the inlined fast path against;
        do not "optimize" it.
        """
        queue = self.queue
        observer = self.observer
        fired = 0
        while True:
            t = queue.peek_time()
            if t is None:
                break
            if until is not None and t > until:
                self.now = until
                break
            ev = queue.pop()
            assert ev is not None  # peek_time said there was one
            self.now = ev.time
            ev.fn(*ev.args)
            if observer is not None:
                observer(ev.fn)
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        self.events_fired += fired

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return len(self.queue)
