"""Request-lifecycle invariant checking and latency-accounting audits.

The simulator's headline numbers — the queuing share of L2-miss latency,
miss-latency reductions, speedups — are all computed from per-request
timestamp arithmetic aggregated across the DRAM, CXL, NoC and cache
layers. This package makes accounting bugs loud instead of silent:

- :class:`InvariantChecker` verifies per-request invariants at response
  time (timestamp monotonicity for the stages a request actually
  visited, component conservation without clamping, no double
  completion) and system-level invariants at end of run (achieved
  bandwidth <= physical peak per DDR channel and CXL link, MC queue
  lengths within configured caps, stats-counter consistency, read
  conservation).
- :class:`TraceRecorder` keeps a ring buffer of completed-request
  timelines, exportable to JSONL or ``.npy``; pass one as
  ``simulate(..., trace=recorder)`` to capture the measured requests.

Both are observers (:class:`~repro.observer.Observer`). Enable with
``simulate(..., validate=True)`` or ``REPRO_VALIDATE=1`` (collect
violations into ``SimResult.extras["invariant_violations"]``), or
``validate="strict"`` / ``REPRO_VALIDATE=strict`` (raise
:class:`InvariantError` on the first violation). When disabled no hook
site calls the checker.
"""

from repro.validate.checker import InvariantChecker, InvariantError, Violation
from repro.validate.trace import TraceRecorder, timeline_of

__all__ = [
    "InvariantChecker", "InvariantError", "Violation", "TraceRecorder",
    "timeline_of",
]
