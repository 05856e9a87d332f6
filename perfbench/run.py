"""Benchmark of the COAXIAL simulator: host speed and job-plane latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dispatch-read --seed 1 --seconds 28 --trace 0

``--trace 0`` times the workload with nothing attached and prints every
end-to-end metric; ``--trace 1`` runs the same workload with host-time
spans around the calls into each layer, prints every per-layer metric and
writes the spans to ``.perfbench/traces/<workload>-seed<seed>.json``
(Chrome trace format). Both check the simulator's outputs, print
informational ``perfbench-info`` lines, and end with one JSON line::

    {"attempted": N, "correct": true, "failed": 0, "metrics": {...}}

End-to-end times are in ``ref`` units: a host time divided by the time of
a fixed reference kernel (:func:`common.reference_kernel`, a frozen
miniature event-driven memory model that imports nothing from ``src``)
measured in the same run just before and just after it. The host's speed
drifts by up to 2x in phases tens of seconds long, and the reference
kernel slows with it, so the ratio measures the program rather than the
phase. ``setup_s`` and ``peak_rss_mb`` stay in seconds and MiB, and the
raw seconds are printed on the ``perfbench-info`` line.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``dispatch-read`` and ``dispatch-write``: ``simulate()`` grids run in
  this process (:mod:`inline`);
- ``jobs-serve``: two closed-loop clients against a ``repro serve``
  subprocess (:mod:`serveload`).

Simulated speedups printed here come from the benchmark's short runs and
are labelled as such; simulation accuracy is gated by
``repro parity compare --strict``, not by this benchmark.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

import inline
import serveload
from common import (OUT, SRC, Checks, SpanLog, emit, hermetic_env, info, metric,
                    results_digest, setup_probe_s, source_identity)

WORKLOAD_NAMES = ("dispatch-read", "dispatch-write", "jobs-serve")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPS = 5
#: Servers booted for ``setup_s`` on ``jobs-serve``.
BOOT_REPS = 5


def _digest(results: Dict[str, Any]) -> str:
    return results_digest((lab, dataclasses.asdict(r)) for lab, r in results.items())


def _outcome(checks, metrics: Dict[str, Any]) -> Dict[str, Any]:
    for err in checks.errors:
        print(f"perfbench: CHECK FAILED: {err}", file=sys.stderr)
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def serve_probe(env, cache_dir: Path, job, ops: int, seed: int,
                expected: Dict[str, Any], checks, log: SpanLog) -> Dict[str, Any]:
    """Job-plane layer metrics for an in-process workload.

    Its first job goes through a ``repro serve`` subprocess, cold and then
    resubmitted warm; the served result must equal the in-process one.
    """
    label = inline.label
    body = {"configs": [job[0]], "workloads": [job[1]], "ops": ops,
            "seeds": [seed], "tenant": "probe"}
    want = [dataclasses.asdict(expected[label(job)])]
    with serveload.Server(env, cache_dir, max_active=1) as server:
        server.start()
        records = []
        for kind, cached in (("cold", 0), ("warm", 1)):
            rec = serveload.run_job(server.port, body, f"probe-{kind}", log)
            job_state = rec["job"]
            checks.op(job_state["state"] == "done"
                      and job_state["cached_tasks"] == cached
                      and serveload.task_results(job_state) == want,
                      f"served {kind} {label(job)} differs from in-process result")
            rec["kind"] = kind
            records.append(rec)
        return serveload.job_plane_layers(records, serveload.cache_counts(server.port))


def run_inline(name: str, seed: int, seconds: float, trace: bool,
               env, tmp: Path) -> Dict[str, Any]:
    wl = inline.WORKLOADS[name]
    checks = Checks()
    if not trace:
        setup = setup_probe_s(env, SETUP_REPS)
        metrics, results, extra = inline.end_to_end(wl, seed, seconds,
                                                    tmp / "inline", checks)
        metrics["setup_s"] = metric(setup, "s")
    else:
        extra = {}
        log = SpanLog()
        metrics, results = inline.traced_layers(wl.jobs(), wl.ops, seed,
                                                tmp / "inline", log, checks)
        inline.reference_check(wl.jobs(), wl.ops, seed, results, checks)
        metrics.update(serve_probe(env, tmp / "serve", wl.jobs()[0], wl.ops,
                                   seed, results, checks, log))
        _write_trace(log, name, seed)
    info(workload=name, seed=seed, ops_per_core=wl.ops, jobs=len(wl.jobs()),
         results_digest=_digest(results), **extra, **source_identity())
    for cfg, s in inline.speedups(results).items():
        ref = s["parity_golden"]
        beside = (f"parity golden {ref['figure']} {ref['golden']:.3f}x"
                  f" (paper {ref['paper'] or 'n/a'}x)" if ref else "no parity golden")
        print(f"perfbench: SIMULATED IPC speedup {cfg} / ddr-baseline = "
              f"{s['simulated_speedup']:.3f}x at {wl.ops} ops/core "
              f"(this benchmark's short run; {beside}; accuracy is gated by "
              f"`repro parity compare --strict`, not by this benchmark)")
    return _outcome(checks, metrics)


def run_serve(seed: int, seconds: float, trace: bool, env, tmp: Path) -> Dict[str, Any]:
    checks = Checks()
    log = SpanLog() if trace else None
    server, setup = serveload.boot(env, tmp / "serve", 1 if trace else BOOT_REPS,
                                   serveload.CLIENTS)
    with server:
        records, window, fixed, probe = serveload.closed_loop(server, seed, seconds,
                                                              checks, log)
    if trace:
        metrics = serveload.job_plane_layers(records, fixed)
    else:
        metrics = serveload.end_to_end(records, probe)
        metrics["setup_s"] = metric(setup, "s")
        metrics["peak_rss_mb"] = metric(fixed["peak_rss_mb"], "MiB")
    primes = sorted((r for r in records if r["kind"] == "prime"),
                    key=lambda r: r["client"])
    if len(primes) != serveload.CLIENTS:
        return _outcome(checks, metrics)
    if trace:
        # The layers inside a job: re-simulate client 0's priming grid in
        # this process, traced, and check it against the served results.
        first = primes[0]["job"]
        jobs = [(t["config"], t["workload"]) for t in first["tasks"]]
        sim_seed = first["tasks"][0]["seed"]
        layers, results = inline.traced_layers(jobs, serveload.GRID_OPS, sim_seed,
                                               tmp / "inline", log, checks)
        inline.reference_check(jobs, serveload.GRID_OPS, sim_seed, results, checks)
        for t in first["tasks"]:
            lab = f"{t['config']}/{t['workload']}"
            checks.op(dataclasses.asdict(results[lab]) == t["result"],
                      f"served {lab} differs from in-process result")
        metrics.update(layers)
        _write_trace(log, "jobs-serve", seed)
    kinds = [r["kind"] for r in records]
    info(workload="jobs-serve", seed=seed, cold_jobs=kinds.count("cold"),
         warm_jobs=kinds.count("warm"), window_s=window,
         ref_s_median=probe.median_s(), probes=len(probe.durs),
         results_digest=results_digest(
             (f"client{r['client']}/{t['label']}", t["result"])
             for r in primes for t in r["job"]["tasks"]),
         **source_identity())
    return _outcome(checks, metrics)


def _write_trace(log: SpanLog, name: str, seed: int) -> None:
    path = OUT / "traces" / f"{name}-seed{seed}.json"
    log.write(path)
    print(f"perfbench: wrote {len(log.spans)} spans to {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        env = hermetic_env(tmp / "cache")
        if args.workload == "jobs-serve":
            result = run_serve(args.seed, args.seconds, bool(args.trace), env, tmp)
        else:
            result = run_inline(args.workload, args.seed, args.seconds,
                                bool(args.trace), env, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
