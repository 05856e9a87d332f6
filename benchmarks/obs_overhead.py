#!/usr/bin/env python
"""CI gate: observability + tracing overhead on simulation throughput.

Runs the same job in three modes and compares measurement-phase
dispatch throughput — events fired per second spent inside the
measurement ``Simulator.run``, the only phase observers touch. Trace
generation, system build and warmup are left out of both sides, so they
cannot dilute the overhead:

* ``off``      — no observers at all (the reference throughput);
* ``obs``      — metrics + time-series sampling ("on"; the kernel
  profiler is excluded because CI wants the steady-state cost of
  leaving ``REPRO_OBS=1`` set, not the cost of an explicit profiling
  session);
* ``obs+trace`` — the same obs collector plus the causal span tracer
  (``tracing="on"``), the full always-on observability stack.

Each mode gets a warmup run and then ``--reps`` timed runs, one per
round with the mode order rotating between rounds; the best rep per mode
is compared so scheduler noise on shared CI runners doesn't trip the
gate.

Exit status: 0 when both observed modes stay within ``--gate`` of the
bare throughput (default 10%), 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.engine.kernel import Simulator
from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.workloads import get_workload


def measured_dispatch(cfg, wl, ops: int, seed: int, obs, tracing):
    """``(events, seconds)`` of one simulate()'s last ``Simulator.run``.

    ``simulate()`` runs the warmup phase and then the measurement phase,
    each as one ``Simulator.run`` call; observers attach between them.
    """
    calls = []
    real_run = Simulator.run

    def timed_run(sim, *args, **kwargs):
        fired0 = sim.events_fired
        t0 = time.perf_counter()
        real_run(sim, *args, **kwargs)
        calls.append((sim.events_fired - fired0, time.perf_counter() - t0))

    Simulator.run = timed_run
    try:
        simulate(cfg, wl, ops_per_core=ops, seed=seed, obs=obs,
                 tracing=tracing)
    finally:
        Simulator.run = real_run
    return calls[-1]


#: mode name -> (obs, tracing) arguments of simulate().
MODES = {"off": ("off", "off"), "obs": ("on", "off"),
         "obs+trace": ("on", "on")}


def best_events_per_s(cfg, wl, ops: int, seed: int, reps: int) -> dict:
    """Best measurement-phase events/s per mode over ``reps`` rounds.

    Every round runs each mode once, rotating which goes first, so a
    drift in host speed lands on all modes alike.
    """
    for obs, tracing in MODES.values():
        simulate(cfg, wl, ops_per_core=ops // 2, seed=seed, obs=obs,
                 tracing=tracing)  # warmup
    names = list(MODES)
    best = dict.fromkeys(names, 0.0)
    for rep in range(reps):
        for name in names[rep % len(names):] + names[:rep % len(names)]:
            events, wall = measured_dispatch(cfg, wl, ops, seed, *MODES[name])
            best[name] = max(best[name], events / wall)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="coaxial-4x")
    ap.add_argument("--workload", default="mcf")
    ap.add_argument("--ops", type=int, default=6000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--gate", type=float, default=0.10,
                    help="max tolerated fractional slowdown of measurement-"
                         "phase dispatch per observed mode")
    args = ap.parse_args(argv)

    cfg = ALL_CONFIGS[args.config]()
    wl = get_workload(args.workload)
    modes = best_events_per_s(cfg, wl, args.ops, args.seed, args.reps)
    off = modes.pop("off")
    print(f"{'off':<10s}: {off:12.0f} events/s")
    failed = []
    for name, eps in modes.items():
        slowdown = 1.0 - eps / off
        print(f"{name:<10s}: {eps:12.0f} events/s  "
              f"({100.0 * slowdown:+.2f}% vs off, "
              f"gate {100.0 * args.gate:.0f}%)")
        if slowdown > args.gate:
            failed.append(name)
    if failed:
        print(f"FAIL: overhead gate exceeded by: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
