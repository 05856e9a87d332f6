"""The in-process workload: ``simulate()`` grids timed end to end.

Each job is what a user of the library does for one result: look the job
up in a :class:`~repro.exec.cache.ResultCache` (a miss, the cache is
fresh), call ``simulate()`` with its default kernel, store the result, and
read it back. The untraced run cycles through the job set until
``--seconds`` have elapsed, always finishing the first pass. The traced
run times the same jobs with host-time spans around the public calls
into each layer, then profiles dispatch by component and collects the
simulated statistics with span tracing and invariant auditing on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (ROOT, Checks, HostProbe, SpanLog, metric, peak_rss_mb,
                    quantile)


@dataclass(frozen=True)
class InlineWorkload:
    """A grid of ``configs x workloads`` simulated at ``ops`` per core."""

    name: str
    configs: Tuple[str, ...]
    workloads: Tuple[str, ...]
    ops: int

    def jobs(self) -> List[Tuple[str, str]]:
        return [(c, w) for c in self.configs for w in self.workloads]


WORKLOADS = {
    # Read-mostly, latency-bound: dispatch through core, MSHR, LLC and CALM
    # dominates and warmup is a small share.
    "dispatch-read": InlineWorkload("dispatch-read",
                                    ("ddr-baseline", "coaxial-4x"),
                                    ("mcf", "gcc"), 2000),
    # Write-heavy, bandwidth-bound: the same dispatch layers, but through
    # DRAM write drains and serialization on the asymmetric CXL TX link.
    "dispatch-write": InlineWorkload("dispatch-write",
                                     ("ddr-baseline", "coaxial-asym"),
                                     ("stream-copy", "lbm"), 2000),
}

#: Cache hits timed per job: a hit takes well under a millisecond, so 50
#: of them cost under 2% of a job, and with about 20 jobs a run the p90 of
#: warm_job_p90_ref rests on about 100 reads rather than a handful.
WARM_READS = 50

#: Packages whose classes own event callbacks in the measured window.
#: cache, calm and noc schedule no events of their own: their work runs
#: inside ``system.builder.Chip`` callbacks and is counted under system.
CALLBACK_PACKAGES = ("cpu", "cxl", "dram", "system")

#: extras keys that only exist because an observer was attached. The obs
#: sampler's ticks are events of their own, so with obs on
#: ``events_fired`` differs too; span tracing leaves it unchanged.
OBSERVER_EXTRAS = ("obs", "trace", "invariant_violations")


def label(job: Tuple[str, str]) -> str:
    return f"{job[0]}/{job[1]}"


def _spec(job: Tuple[str, str]):
    from repro.system.config import ALL_CONFIGS
    from repro.workloads import get_workload

    return ALL_CONFIGS[job[0]](), get_workload(job[1])


def _simulate(job: Tuple[str, str], ops: int, seed: int, **kw):
    from repro import simulate

    cfg, spec = _spec(job)
    return simulate(cfg, spec, ops_per_core=ops, seed=seed, **kw)


def _no_span(name: str):
    return contextlib.nullcontext()


def _without_observers(result, also: Tuple[str, ...] = ()) -> Dict[str, Any]:
    d = dataclasses.asdict(result)
    d["extras"] = {k: v for k, v in d["extras"].items()
                   if k not in OBSERVER_EXTRAS + also}
    return d


def cached_job(cache, job: Tuple[str, str], ops: int, seed: int,
               span=_no_span) -> Tuple[Any, bool, float, List[float]]:
    """One user-level job: cache lookup (a miss), simulate, store, read back.

    Returns the result, whether the lookups behaved (a miss, then hits
    equal to the result), the cold (lookup + simulate + store) wall time
    and the wall time of each of ``WARM_READS`` read-backs.
    """
    from repro import simulate

    cfg, spec = _spec(job)
    t0 = time.perf_counter()
    with span("exec.cache.get"):
        hit = cache.get(cfg, job[1], ops, seed)
    with span("system.simulate"):
        res = simulate(cfg, spec, ops_per_core=ops, seed=seed)
    with span("exec.cache.put"):
        cache.put(cfg, job[1], ops, seed, res)
    cold = time.perf_counter() - t0
    ok = hit is None
    warm = []
    for _ in range(WARM_READS):
        t0 = time.perf_counter()
        with span("exec.cache.get"):
            again = cache.get(cfg, job[1], ops, seed)
        warm.append(time.perf_counter() - t0)
        ok = ok and again == res
    return res, ok, cold, warm


def timed_passes(wl: InlineWorkload, seed: int, seconds: float,
                 cache_root: Path, checks: Checks) -> Dict[str, Any]:
    """Cycle through the job set until ``seconds`` have elapsed.

    The first pass always completes, so every job is timed at least once;
    after it the loop stops at the first job that starts past the
    deadline. A reference-kernel probe runs before the first job and after
    each one. Returns each timed job as ``(label, start, end, cold_s,
    warm_s)`` in run order, the probes, the results and the peak RSS after
    the first pass, a fixed amount of work whatever the host's speed.
    """
    from repro.exec.cache import ResultCache

    timed: List[Tuple[str, float, float, float, List[float]]] = []
    results: Dict[str, Any] = {}
    rss = math.nan
    probe = HostProbe()
    probe.probe()
    t_start = time.perf_counter()
    for n_pass in itertools.count():
        if n_pass == 1:
            rss = peak_rss_mb()
        # A fresh key namespace per pass keeps every pass's lookups cold.
        cache = ResultCache(cache_root, salt=f"pass-{n_pass}")
        for job in wl.jobs():
            if n_pass and time.perf_counter() - t_start >= seconds:
                return {"timed": timed, "probe": probe, "results": results,
                        "peak_rss_mb": rss}
            lab = label(job)
            t0 = time.perf_counter()
            try:
                res, ok, t_cold, t_warm = cached_job(cache, job, wl.ops, seed)
            except Exception as e:  # one broken job must not hide the rest
                checks.op(False, f"{lab}: {type(e).__name__}: {e}")
                continue
            t1 = time.perf_counter()
            probe.probe()
            timed.append((lab, t0, t1, t_cold, t_warm))
            first = results.setdefault(lab, res)
            checks.op(ok and first == res,
                      f"{lab}: cache round trip or repeat mismatch")


def reference_check(jobs, ops: int, seed: int, results: Dict[str, Any],
                    checks: Checks) -> None:
    """Each distinct job's result must equal the reference kernel's."""
    for job in jobs:
        lab = label(job)
        if lab not in results:
            continue
        ref = _simulate(job, ops, seed, kernel="reference")
        checks.op(ref == results[lab], f"{lab}: differs from reference kernel")


def end_to_end(wl: InlineWorkload, seed: int, seconds: float, cache_root: Path,
               checks: Checks) -> Tuple[Dict, Dict, Dict]:
    """The untraced run: end-to-end metrics plus the results it produced.

    Every time is in ``ref`` units, divided by the reference-kernel time
    measured around its job. Each job's cold time is the median of its
    repeats; throughput and the cold-job median are taken over those
    per-job times. The same figures in raw seconds go in the returned
    extras, which are printed for information.
    """
    run = timed_passes(wl, seed, seconds, cache_root, checks)
    results = run["results"]
    reference_check(wl.jobs(), wl.ops, seed, results, checks)
    probe = run["probe"]
    cold: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    warm: List[float] = []
    for lab, t0, t1, t_cold, t_warm in run["timed"]:
        ref = probe.ref_s(t0, t1)
        cold.setdefault(lab, []).append(t_cold / ref)
        raw.setdefault(lab, []).append(t_cold)
        warm.extend(w / ref for w in t_warm)
    per_job = {lab: statistics.median(t) for lab, t in cold.items()}
    total = sum(per_job.values()) or math.nan
    instrs = sum(results[lab].instructions for lab in per_job)
    metrics = {
        "sim_instr_per_ref": metric(instrs / total, "instr/ref"),
        "jobs_per_ref": metric(len(per_job) / total, "1/ref"),
        "cold_job_p50_ref": metric(
            quantile(list(per_job.values()) or [math.nan], 0.5), "ref"),
        "warm_job_p90_ref": metric(quantile(warm or [math.nan], 0.9), "ref"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MiB"),
    }
    raw_total = sum(statistics.median(t) for t in raw.values()) or math.nan
    extra = {"repeats": {lab: len(t) for lab, t in cold.items()},
             "ref_s_median": probe.median_s(), "probes": len(probe.durs),
             "raw_sim_instr_per_s": instrs / raw_total}
    return metrics, results, extra


# -- traced run ----------------------------------------------------------------

@contextlib.contextmanager
def layer_spans(log: SpanLog):
    """Wrap the public entry points of each layer in host-time spans.

    ``WorkloadSpec.generate`` (workloads), ``build_system`` as
    ``simulate()`` calls it (system) and ``Simulator.run`` (engine) are
    patched for the duration of the block and restored afterwards, so
    untraced calls run the unmodified code.
    """
    import repro.system.sim as sim_mod
    from repro.engine.kernel import Simulator
    from repro.workloads.params import WorkloadSpec

    targets = [(WorkloadSpec, "generate", "workloads.generate"),
               (sim_mod, "build_system", "system.build_system"),
               (Simulator, "run", "engine.run")]
    saved = []
    for owner, attr, name in targets:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))

        def wrapper(*a, __orig=orig, __name=name, **kw):
            with log.span(__name):
                return __orig(*a, **kw)

        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


def _callback_owners() -> Dict[str, str]:
    """Map top-level class/function names to the repro package defining them."""
    owners: Dict[str, str] = {}
    for pkg in ("cpu", "cache", "calm", "noc", "cxl", "dram", "system",
                "engine", "tiering", "obs", "tracing", "validate"):
        package = importlib.import_module(f"repro.{pkg}")
        for mod_path in sorted(Path(package.__file__).parent.glob("*.py")):
            mod = importlib.import_module(f"repro.{pkg}.{mod_path.stem}"
                                          if mod_path.stem != "__init__"
                                          else f"repro.{pkg}")
            for name, obj in vars(mod).items():
                if ((inspect.isclass(obj) or inspect.isfunction(obj))
                        and obj.__module__ == mod.__name__):
                    owners[name] = pkg
    return owners


def component_profile(jobs, ops: int, seed: int,
                      results: Dict[str, Any], checks: Checks) -> Dict[str, float]:
    """Measured-window dispatch time and callback count per package owning
    the callback's class."""
    from repro.obs import ObsCollector

    owners = _callback_owners()
    per_pkg: Dict[str, List[float]] = {p: [0, 0.0] for p in CALLBACK_PACKAGES}
    for job in jobs:
        collector = ObsCollector(mode="profile")
        res = _simulate(job, ops, seed, obs=collector)
        lab = label(job)
        checks.op(_without_observers(res, ("events_fired",))
                  == _without_observers(results[lab], ("events_fired",)),
                  f"{lab}: profiled result differs from untraced")
        for key, (count, wall) in collector.profiler.data.items():
            pkg = owners.get(key.split(".")[0], "other")
            if pkg in per_pkg:
                per_pkg[pkg][0] += count
                per_pkg[pkg][1] += wall
    out: Dict[str, float] = {}
    for pkg, (count, wall) in per_pkg.items():
        out[f"{pkg}.callbacks"] = metric(int(count), "count")
        out[f"{pkg}.dispatch_s"] = metric(wall, "s")
    return out


def simulated_stats(jobs, ops: int, seed: int, results: Dict[str, Any],
                    checks: Checks) -> Dict[str, Any]:
    """Simulated statistics from a span-traced, invariant-audited pass.

    These are simulated quantities, not host time: a host-speed change
    must leave every one of them bit-identical.
    """
    rows = []
    for job in jobs:
        res = _simulate(job, ops, seed, tracing="on", validate="on")
        lab = label(job)
        violations = res.extras["invariant_violations"]["count"]
        checks.op(violations == 0, f"{lab}: {violations} invariant violation(s)")
        checks.op(_without_observers(res) == dataclasses.asdict(results[lab]),
                  f"{lab}: traced result differs from untraced")
        attribution = res.extras["trace"]["attribution"]
        rows.append((res, attribution["serialization"] / max(1, attribution["n"])))

    mean = statistics.fmean
    return {
        "cpu.ipc": metric(mean(r.ipc for r, _ in rows), "instr/cycle"),
        "cache.llc_hit_rate": metric(mean(r.llc_hit_rate for r, _ in rows), "frac"),
        "calm.fraction": metric(mean(r.calm_fraction for r, _ in rows), "frac"),
        "calm.false_pos_rate": metric(
            mean(r.calm_false_pos_rate for r, _ in rows), "frac"),
        "dram.queuing_ns": metric(mean(r.avg_queuing for r, _ in rows), "ns"),
        "dram.service_ns": metric(mean(r.avg_dram for r, _ in rows), "ns"),
        "dram.read_gbps": metric(mean(r.read_bandwidth_gbps for r, _ in rows), "GB/s"),
        "dram.write_gbps": metric(
            mean(r.write_bandwidth_gbps for r, _ in rows), "GB/s"),
        "cxl.serialization_ns": metric(mean(s for _, s in rows), "ns"),
    }


def traced_layers(jobs, ops: int, seed: int, cache_root: Path, log: SpanLog,
                  checks: Checks) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Per-layer metrics for ``jobs``; also returns their untraced results.

    Each job runs untraced, then traced, back to back, so host-speed drift
    hits both alike and their ratio is the spans' own overhead.
    """
    from repro.exec.cache import ResultCache

    plain = ResultCache(cache_root, salt="untraced")
    spanned = ResultCache(cache_root, salt="traced")
    results: Dict[str, Any] = {}
    untraced = traced = 0.0
    events = 0.0
    for job in jobs:
        lab = label(job)
        t0 = time.perf_counter()
        res, ok, _, _ = cached_job(plain, job, ops, seed)
        t1 = time.perf_counter()
        with layer_spans(log), log.span("job", job=lab):
            again, ok2, _, _ = cached_job(spanned, job, ops, seed, log.span)
        t2 = time.perf_counter()
        checks.op(ok and ok2 and again == res, f"{lab}: traced rerun differs")
        results[lab] = res
        untraced += t1 - t0
        traced += t2 - t1
        events += res.extras["events_fired"]
    totals = log.totals()
    total = totals["system.simulate"]
    gen = totals["workloads.generate"]
    build = totals["system.build_system"]
    dispatch = totals["engine.run"]
    warmup = total - gen - build - dispatch
    metrics = {
        "workloads.gen_s": metric(gen, "s"),
        "system.build_s": metric(build, "s"),
        "system.warmup_s": metric(warmup, "s"),
        "system.warmup_frac": metric(warmup / total, "frac"),
        "engine.events": metric(int(events), "count"),
        "engine.dispatch_s": metric(dispatch, "s"),
        "engine.events_per_dispatch_s": metric(events / dispatch, "1/s"),
        "tracing.overhead_frac": metric(traced / untraced - 1.0, "frac"),
    }
    metrics.update(component_profile(jobs, ops, seed, results, checks))
    metrics.update(simulated_stats(jobs, ops, seed, results, checks))
    return metrics, results


def speedups(results: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Simulated geomean IPC speedup of each coaxial config over DDR,
    beside the parity golden's blessed value for the same config."""
    golden_path = ROOT / "goldens" / "parity.json"
    golden = json.loads(golden_path.read_text())["metrics"] if golden_path.exists() else {}
    by_cfg: Dict[str, Dict[str, float]] = {}
    for lab, res in results.items():
        cfg, wl = lab.split("/", 1)
        by_cfg.setdefault(cfg, {})[wl] = res.ipc
    base = by_cfg.get("ddr-baseline", {})
    out = {}
    for cfg, ipcs in sorted(by_cfg.items()):
        shared = [w for w in ipcs if w in base and base[w] > 0]
        if cfg == "ddr-baseline" or not shared:
            continue
        geo = math.exp(statistics.fmean(math.log(ipcs[w] / base[w]) for w in shared))
        ref: Optional[Dict[str, Any]] = None
        for fig in ("fig5", "fig8"):
            ref = golden.get(f"{fig}.geomean_speedup.{cfg}")
            if ref is not None:
                ref = {"figure": fig, "golden": ref["value"], "paper": ref.get("paper")}
                break
        out[cfg] = {"simulated_speedup": geo, "parity_golden": ref}
    return out
