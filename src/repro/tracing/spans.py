"""Zero-perturbation causal span tracer for the simulated memory path.

:class:`SpanTracer` is an :class:`~repro.observer.Observer`: it
schedules no events, mutates no request or component state, and only
*reads* the timestamps the simulation already stamps onto each
:class:`~repro.request.MemRequest`. A run with tracing enabled therefore
produces a bit-identical :class:`SimResult` outside ``extras["trace"]``
— the fuzzer's ``tracing`` oracle enforces this on every dispatch
kernel.

Per measured request the tracer records child spans at each component
boundary:

- ``mshr.wait`` — the op queued at the core's MSHR file before the miss
  could leave the L2 (pre-``t_create``, so outside the miss latency);
- ``llc.lookup`` — core tile -> LLC home slice -> lookup;
- ``tiering.migration`` — migration wait charged by the tier manager;
- ``cxl.tx`` / ``cxl.rx`` — CXL port crossings + link serialization;
- ``mc.queue`` — DRAM controller queuing (``t_mc_enqueue -> t_mc_issue``);
- ``dram.service`` — bank service (``t_mc_issue -> t_dram_done``).

Completed requests are stored in a
:class:`~repro.validate.TraceRecorder` (the one per-request ring), each
entry carrying the tracer's in-flight marks; span rows are assembled
only when read. The snapshot's ``attribution`` sums are the chip's own
:class:`~repro.system.stats.LatencyBreakdown` sums — the Fig. 2b/Fig. 5
latency split is computed once, there. The tracer adds only what the
breakdown does not hold: the LLC hit count and the tiering migration
wait, which it splits out of the CXL interface time.

In ``"kernel"`` mode the tracer additionally installs a
:class:`~repro.obs.KernelProfiler` as the simulator's dispatch observer
(sharing the obs collector's when ``obs="profile"`` is on too) and
reports its measurement-phase dispatch counts per callback
``__qualname__`` — a deterministic (no wall-clock) view of where the
event kernel spends its dispatches, identical on every dispatch loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.profiler import KernelProfiler
from repro.observer import Observer
from repro.validate.trace import TraceRecorder

#: In-flight mark-list indices. One small list per live request instead
#: of a dict — these are the tracer's hottest allocations. ``-1.0``
#: means "not seen", matching the request timestamp sentinel.
_M_MSHR, _M_SUBMIT, _M_MIGRATION = 0, 1, 2
_M_TX0, _M_TX1, _M_RX0, _M_RX1 = 3, 4, 5, 6

#: Version stamp of the ``extras["trace"]`` payload (additions only).
TRACE_SCHEMA_VERSION = 1


class SpanTracer(Observer):
    """Opt-in per-request span recorder (see module docstring).

    ``simulate()`` attaches it at the warmup/measurement boundary with
    every other observer, so each request passing the measurement guard
    was created with hooks live. The span ring holds the most recent
    ``span_capacity`` requests; attribution covers *every* measured
    request.
    """

    def __init__(self, mode: str = "on", span_capacity: int = 512) -> None:
        if mode not in ("on", "kernel"):
            raise ValueError(
                f"SpanTracer mode must be 'on' or 'kernel', got {mode!r}")
        if span_capacity < 1:
            raise ValueError(f"span_capacity must be >= 1, got {span_capacity}")
        self.mode = mode
        #: Distributed trace id (minted at ``repro serve`` submit and
        #: threaded through fleet TaskSpecs); ``None`` for local runs.
        self.trace_id: Optional[str] = None
        self.chip = None
        self._live: Dict[int, list] = {}            # req_id -> in-flight marks
        self._mshr: Dict[Tuple[int, int], float] = {}  # (core, op) -> stall t
        #: Dispatch observer read for ``kernel_events`` ("kernel" mode).
        self.dispatch: Optional[KernelProfiler] = None
        #: Measured requests, each entry carrying its in-flight marks.
        self.recorder = TraceRecorder(span_capacity)
        self.hits = 0                               # measured LLC hits
        self.migration = 0.0                        # migration wait, ns

    # -- wiring ----------------------------------------------------------------
    def attach(self, sim, chip) -> None:
        """Bind to the chip; in ``"kernel"`` mode also install (or share)
        the simulator's dispatch observer for the measurement phase."""
        self.chip = chip
        if self.mode == "kernel":
            self.dispatch = KernelProfiler().install(sim)

    # -- hook sites (all observers: read state, never schedule) ---------------
    def on_mshr_stall(self, core_id: int, op_idx: int, t: float) -> None:
        """Op ``op_idx`` queued at the core's full MSHR file at time ``t``."""
        self._mshr[(core_id, op_idx)] = t

    def on_mshr_merge(self, core_id: int, op_idx: int) -> None:
        """Op merged into an in-flight line miss; discard any stall mark."""
        self._mshr.pop((core_id, op_idx), None)

    def on_l2_miss(self, req) -> None:
        """A demand miss left the L2 (``req.t_create`` just stamped)."""
        u = req.user
        if u["prefetch"]:
            # Prefetches are excluded from latency records (same guard as
            # the breakdown); don't track them.
            self._mshr.pop((req.core_id, u["op"]), None)
            return
        self._live[req.req_id] = [
            self._mshr.pop((req.core_id, u["op"]), -1.0),  # _M_MSHR
            -1.0, 0.0,                                     # submit, migration
            -1.0, -1.0, -1.0, -1.0,                        # cxl tx/rx windows
        ]

    def on_mem_submit(self, req, now: float, extra: float) -> None:
        """Request routed towards its memory port (``extra`` = migration wait)."""
        m = self._live.get(req.req_id)
        if m is None:
            return
        m[_M_SUBMIT] = now
        if extra:
            m[_M_MIGRATION] += extra

    def on_cxl_tx(self, req, now: float, arrive: float) -> None:
        """Request crossing CPU port + TX link towards the device."""
        m = self._live.get(req.req_id)
        if m is not None:
            m[_M_TX0] = now
            m[_M_TX1] = arrive

    def on_cxl_rx(self, req, now: float, arrive: float) -> None:
        """Response crossing device port + RX link back to the CPU."""
        m = self._live.get(req.req_id)
        if m is not None:
            m[_M_RX0] = now
            m[_M_RX1] = arrive

    def on_complete(self, req) -> None:
        """Response arrived back at the L2; close out the request."""
        marks = self._live.pop(req.req_id, None)
        chip = self.chip
        # The measurement guard of Chip._complete, which feeds chip.lat.
        if (not chip.measuring or req.t_create < chip.meas_start
                or req.user["prefetch"]):
            return
        if req.llc_hit:
            self.hits += 1
        elif marks is not None and marks[_M_MIGRATION]:
            self.migration += marks[_M_MIGRATION]
        self.recorder.record(req, marks)

    # -- span assembly ---------------------------------------------------------
    @staticmethod
    def _row_of(entry: tuple) -> dict:
        """Materialize one ring entry into a row with child spans.

        Each span carries the attribution component it charges to
        (``onchip`` / ``queuing`` / ``serialization`` / ``service`` /
        ``migration``), in causal order. For an LLC hit only the on-chip
        legs are causal (a wasted CALM memory fetch does not block
        completion), so the memory-side spans are dropped.
        """
        (req_id, addr, _kind, core, calm, llc_hit, t_create, t_llc_done,
         t_mc_enqueue, t_mc_issue, t_dram_done, t_complete, _cxl_delay,
         marks) = entry
        llc_hit = bool(llc_hit)
        spans: List[dict] = []

        def add(name: str, component: str, t0: float, t1: float) -> None:
            if t0 >= 0 and t1 >= t0:
                spans.append({"name": name, "component": component,
                              "t0": t0, "t1": t1})

        if marks is not None and marks[_M_MSHR] >= 0:
            add("mshr.wait", "queuing", marks[_M_MSHR], t_create)
        add("llc.lookup", "onchip", t_create, t_llc_done)
        if not llc_hit:
            if marks is not None:
                if marks[_M_MIGRATION] and marks[_M_SUBMIT] >= 0:
                    add("tiering.migration", "migration", marks[_M_SUBMIT],
                        marks[_M_SUBMIT] + marks[_M_MIGRATION])
                if marks[_M_TX1] >= 0:
                    add("cxl.tx", "serialization",
                        marks[_M_TX0], marks[_M_TX1])
            add("mc.queue", "queuing", t_mc_enqueue, t_mc_issue)
            add("dram.service", "service", t_mc_issue, t_dram_done)
            if marks is not None and marks[_M_RX1] >= 0:
                add("cxl.rx", "serialization", marks[_M_RX0], marks[_M_RX1])
        return {"req_id": req_id, "core": core, "addr": addr, "calm": calm,
                "llc_hit": llc_hit, "t_create": t_create,
                "t_complete": t_complete, "total": t_complete - t_create,
                "spans": spans}

    # -- output ----------------------------------------------------------------
    def rows(self) -> List[dict]:
        """Retained span rows, oldest first."""
        return [self._row_of(e) for e in self.recorder.entries()]

    def finish(self, chip, elapsed_ns: float) -> Tuple[str, dict]:
        return "trace", self.snapshot()

    def snapshot(self) -> dict:
        """Deterministic ``extras["trace"]`` payload.

        ``attribution`` holds component *sums* in ns over all measured
        requests, read from the chip's latency breakdown (hits count as
        on-chip time); ``serialization`` is the CXL interface time net
        of migration waits, which are broken out separately.
        """
        lat = self.chip.lat
        serialization = lat.sum_cxl - self.migration
        attribution = {
            "n": lat.n,
            "hits": self.hits,
            "misses": lat.n - self.hits,
            "total": lat.sum_total,
            "onchip": lat.sum_onchip,
            "queuing": lat.sum_queuing,
            "service": lat.sum_dram,
            "serialization": serialization if serialization > 0.0 else 0.0,
            "migration": self.migration,
        }
        snap = {
            "schema": TRACE_SCHEMA_VERSION,
            "mode": self.mode,
            "trace_id": self.trace_id,
            "requests": self.recorder.recorded,
            "attribution": attribution,
            "spans": self.rows(),
        }
        if self.mode == "kernel":
            snap["kernel_events"] = (self.dispatch.counts()
                                     if self.dispatch is not None else {})
        return snap
