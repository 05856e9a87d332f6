"""Equal-time event batches: ordering, cancellation, and bit-equality.

Most simulated work arrives in batches of events sharing one timestamp.
These tests pin the dispatch contract for them: every kernel fires
equal-time events in the identical global ``(time, seq)`` order —
including events scheduled from *inside* a same-cycle batch and
cancellable events cancelled mid-batch — and a full simulation is
bit-identical across kernels, with or without observability attached.
"""

from __future__ import annotations

import pytest

from repro.engine.kernel import KERNEL_MODES, Simulator
from repro.fuzz.gen import FuzzCase
from repro.fuzz.oracles import run_oracle

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _scenario(sim: Simulator):
    """Script a queue exercising every equal-time edge; returns the log.

    Covers: several events at one timestamp, a same-cycle spawn chain
    (events scheduled at the *current* time from inside the batch), a
    cancellable cancelled by an earlier same-time event, a cancellable
    spawned and cancelled entirely within one batch, cross-time
    scheduling out of a batch, and a trailing cancelled event that must
    not advance the clock.
    """
    log = []
    handles = {}

    def rec(tag):
        log.append((sim.now, tag))

    def chain(tag, n):
        rec(tag)
        if n > 0:
            sim.schedule(0.0, chain, tag + "+", n - 1)

    def cancel(name):
        handles[name].cancel()
        rec("cancel:" + name)

    def spawn_cancelled(name):
        # Both land in the current batch; the canceller has the lower
        # seq, so the cancellable is skipped at fire time.
        rec("spawn:" + name)
        sim.schedule(0.0, cancel, name)
        handles[name] = sim.schedule_cancellable(0.0, rec, name)

    sim.schedule(1.0, rec, "a")
    sim.schedule(1.0, chain, "b", 2)
    sim.schedule(1.0, rec, "c")
    sim.schedule(1.0, cancel, "y")
    handles["y"] = sim.schedule_cancellable(1.0, rec, "y")
    sim.schedule(1.0, lambda: sim.schedule(2.0, rec, "late"))
    sim.schedule(2.0, spawn_cancelled, "z")
    sim.schedule(3.0, rec, "d")
    handles["tick"] = sim.schedule_cancellable(100.0, rec, "tick")
    sim.schedule(3.0, cancel, "tick")
    return log


def _run_all_kernels(drive):
    """``drive(sim)`` once per kernel; returns {kernel: (log, now, fired)}."""
    out = {}
    for kernel in KERNEL_MODES:
        sim = Simulator(kernel=kernel)
        log = _scenario(sim)
        drive(sim)
        out[kernel] = (log, sim.now, sim.events_fired)
    return out


class TestEqualTimeOrdering:
    def test_identical_firing_order_across_kernels(self):
        runs = _run_all_kernels(lambda sim: sim.run())
        logs = {k: v[0] for k, v in runs.items()}
        assert logs["fast"] == logs["reference"]
        # Equal-time events fire in schedule order; the same-cycle chain
        # (b+ / b++) fires after every event already queued at t=1.
        t1 = [tag for t, tag in logs["fast"] if t == 1.0]
        assert t1 == ["a", "b", "c", "cancel:y", "b+", "b++"]
        # The in-batch cancellable never fires; its canceller does.
        t2 = [tag for t, tag in logs["fast"] if t == 2.0]
        assert t2 == ["spawn:z", "cancel:z"]
        assert "z" not in [tag for _, tag in logs["fast"]]
        # "late" was scheduled 2.0 ns ahead from inside the t=1 batch, so
        # it fires at t=3 after the events queued before it.
        t3 = [tag for t, tag in logs["fast"] if t == 3.0]
        assert t3 == ["d", "cancel:tick", "late"]

    def test_cancelled_trailing_event_does_not_advance_clock(self):
        for kernel in KERNEL_MODES:
            sim = Simulator(kernel=kernel)
            _scenario(sim)
            sim.run()
            # The cancelled tick at t=100 must not move the clock.
            assert sim.now == 3.0, kernel
            assert sim.pending() == 0

    def test_events_fired_identical(self):
        runs = _run_all_kernels(lambda sim: sim.run())
        fired = {v[2] for v in runs.values()}
        assert len(fired) == 1

    def test_until_leaves_clock_at_until(self):
        for kernel in KERNEL_MODES:
            sim = Simulator(kernel=kernel)
            log = _scenario(sim)
            sim.run(until=2.5)
            assert sim.now == 2.5, kernel
            assert all(t <= 2.5 for t, _ in log)
            sim.run()
            assert sim.now == 3.0, kernel

    def test_max_events_resumes_mid_batch(self):
        # Draining two events at a time must visit the identical order,
        # even when the cap lands inside a same-timestamp batch.
        def drive(sim):
            sim.run(max_events=2)
            while sim.pending():
                sim.run(max_events=2)

        capped = _run_all_kernels(drive)
        oneshot = _run_all_kernels(lambda sim: sim.run())
        for kernel in KERNEL_MODES:
            assert capped[kernel][0] == oneshot[kernel][0], kernel


class TestDispatchObserver:
    def test_observer_sees_each_fired_event_once(self):
        seen = {}
        for kernel in KERNEL_MODES:
            sim = Simulator(kernel=kernel)
            log = _scenario(sim)
            calls = []
            sim.observer = calls.append
            sim.run()
            # One call per fired callback; cancelled entries (y, z, the
            # t=100 tick) are never reported. Every fired callback logs one
            # line except the lambda that schedules "late".
            assert len(calls) == len(log) + 1 == sim.events_fired, kernel
            seen[kernel] = [getattr(fn, "__qualname__", None) for fn in calls]
        assert seen["fast"] == seen["reference"]

    def test_profiler_rows_cover_dispatch_wall_time(self):
        from time import perf_counter

        from repro.obs import KernelProfiler

        sim = Simulator()

        def tick(n):
            if n:
                sim.schedule(1.0, tick, n - 1)

        sim.schedule(0.0, tick, 20000)
        prof = KernelProfiler().install(sim)
        assert KernelProfiler().install(sim) is prof  # one shared slot
        t0 = perf_counter()
        prof.reset()
        start = prof._last
        sim.run()
        wall = perf_counter() - t0
        assert prof.counts() == {"TestDispatchObserver."
                                 "test_profiler_rows_cover_dispatch_wall_time."
                                 "<locals>.tick": 20001}
        # Intervals chain from reset() to the last dispatch, so they sum
        # to the loop's wall time, heap pops included.
        assert prof.total_wall_s == pytest.approx(prof._last - start)
        assert prof.total_wall_s <= wall

    def test_second_observer_type_is_refused(self):
        from repro.obs import KernelProfiler

        sim = Simulator()
        sim.observer = print
        with pytest.raises(RuntimeError, match="observer"):
            KernelProfiler().install(sim)


class TestBatchSimulationEquality:
    def test_diff_kernel_oracle_on_named_configs(self):
        for base in ("ddr-baseline", "coaxial-4x"):
            case = FuzzCase(base=base, workload="mcf", ops=300, seed=1)
            assert run_oracle("diff_kernel", case) is None

    def test_obs_bit_identical_under_reference(self):
        # The obs oracle diffs obs-on vs obs-off full results; running the
        # case under kernel="reference" pins the cancellable-sampler-tick
        # path through the EventQueue API (a cancelled trailing tick must
        # not advance the clock).
        case = FuzzCase(base="coaxial-4x", workload="stream-copy", ops=300,
                        seed=1, kernel="reference")
        assert run_oracle("obs", case) is None

    @pytest.mark.slow
    @pytest.mark.parametrize("base", ["tiered-static", "tiered-lru",
                                      "tiered-epoch", "cxl-ssd",
                                      "cxl-profiled"])
    def test_tiering_and_device_configs_bit_identical(self, base):
        # The tiering manager routes lazily (no scheduled events) and the
        # profile sampler draws in request-arrival order, so every
        # scenario config must stay inside the kernel bit-identity
        # contract; the differential oracle does full-result asdict diffs.
        case = FuzzCase(base=base, workload="capacity-churn", ops=400, seed=1)
        assert run_oracle("diff_kernel", case) is None


class TestWarmupReplayEquivalence:
    def test_lru_replay_matches_generic(self):
        from repro.system.builder import Chip
        from repro.system.config import ALL_CONFIGS
        from repro.system.sim import (
            _replay_functional, _replay_functional_lru, _warmup_replay_fn,
        )
        from repro.workloads import get_workload

        def state(chip):
            # Dict *contents and insertion order* (= LRU order) per set.
            out = []
            for core in chip.cores:
                for arr in (core.l1.array, core.l2.array):
                    out.append([list(s.items()) for s in arr._sets])
            for sl in chip.llc_slices:
                out.append([list(s.items()) for s in sl._sets])
            return out

        cfg = ALL_CONFIGS["coaxial-4x"]()
        trace = get_workload("mcf").generate(600, seed=3)
        a = Chip(Simulator(), cfg)
        b = Chip(Simulator(), cfg)
        assert _warmup_replay_fn(a) is _replay_functional_lru
        _replay_functional(a, a.cores[0], trace)
        _replay_functional_lru(b, b.cores[0], trace)
        assert state(a) == state(b)

    def test_non_lru_policy_uses_generic_replay(self):
        from dataclasses import replace

        from repro.system.builder import Chip
        from repro.system.config import ALL_CONFIGS
        from repro.system.sim import _replay_functional, _warmup_replay_fn

        cfg = replace(ALL_CONFIGS["ddr-baseline"](), replacement="random")
        chip = Chip(Simulator(), cfg)
        assert _warmup_replay_fn(chip) is _replay_functional


class TestKernelPlumbing:
    def test_fuzzcase_kernel_roundtrip(self):
        case = FuzzCase(ops=300, kernel="reference")
        assert FuzzCase.from_json(case.to_json()) == case
        assert "kernel=reference" in case.label()

    def test_fuzzcase_kernel_omitted_when_unset(self):
        # Serialization without a kernel stays byte-identical to the old
        # format, so committed corpus entry names don't churn.
        assert "kernel" not in FuzzCase().to_dict()
        legacy = {"base": "ddr-baseline", "overrides": {},
                  "workload": "mcf", "ops": 600, "seed": 1}
        assert FuzzCase.from_dict(legacy).kernel is None

    def test_corpus_entry_records_kernel(self, tmp_path):
        from repro.fuzz.corpus import load_entry, save_entry

        path = save_entry(FuzzCase(ops=300, kernel="reference"), "calm_clock",
                          corpus_dir=tmp_path)
        assert load_entry(path).case.kernel == "reference"

    def test_sweep_job_kernel_label(self):
        from repro.exec.runner import expand_grid

        jobs = expand_grid(["ddr-baseline"], ["mcf"], ops=300,
                           kernel="reference")
        assert jobs[0].kernel == "reference"
        assert "kernel=reference" in jobs[0].label()

    def test_kernel_bench_record(self):
        from repro.exec.perf import kernel_bench_record

        rec = kernel_bench_record(
            ["fast", "reference"], configs=("ddr-baseline",),
            workloads=("mcf",), ops=200, repeats=1, baseline_eps=1000.0)
        assert set(rec["kernels"]) == {"fast", "reference"}
        fast, ref = rec["kernels"]["fast"], rec["kernels"]["reference"]
        # Bit-identical simulations: the kernels fire the same events.
        assert fast["events"] == ref["events"] > 0
        assert fast["events_per_s"] > 0
        assert fast["ratio_vs_baseline"] > 0

    def test_kernel_bench_rejects_unknown_kernel(self):
        from repro.exec.perf import kernel_bench_record

        with pytest.raises(ValueError, match="unknown kernel"):
            kernel_bench_record(["warp"], configs=("ddr-baseline",),
                                workloads=("mcf",), ops=100, repeats=1)
