"""Shared plumbing for the benchmark: paths, hermetic env, stats, spans.

Nothing here imports ``repro``: the workload modules do that after
:func:`hermetic_env` has cleared the ``REPRO_*`` knobs that would
otherwise change what the simulator does or where it caches.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterable, List

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under here (gitignored).
OUT = ROOT / ".perfbench"

#: Environment knobs that change simulate()'s kernel, run length, observers,
#: worker count or cache location. Every benchmark process runs without them.
REPRO_ENV = ("REPRO_KERNEL", "REPRO_SCALE", "REPRO_OBS", "REPRO_TRACING",
             "REPRO_VALIDATE", "REPRO_JOBS", "REPRO_CACHE_DIR",
             "REPRO_NO_DISK_CACHE")


def hermetic_env(cache_dir: Path) -> Dict[str, str]:
    """Pin this process's environment; return the env for child processes.

    The ``REPRO_*`` knobs are removed, the result cache points at
    ``cache_dir`` (a per-run temp dir, never ``~/.cache/repro``), and
    children import the checkout's ``src`` and use one malloc arena.
    """
    for key in REPRO_ENV:
        os.environ.pop(key, None)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One malloc arena: with one per thread, the multi-threaded server's
    # peak RSS for the same work varied by 15% from run to run.
    env["MALLOC_ARENA_MAX"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return env


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: Imports a fresh process needs before it can issue its first simulate().
_SETUP_PROBE = (
    "import repro, repro.system.sim, repro.exec.cache, repro.workloads\n"
    "from repro.system.config import ALL_CONFIGS\n"
    "ALL_CONFIGS['ddr-baseline']()\n"
)


def setup_probe_s(env: Dict[str, str], reps: int) -> float:
    """Median launch-to-ready time of a fresh interpreter, over ``reps``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env,
                       cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def results_digest(rows: Iterable[tuple]) -> str:
    """SHA-256 over ``(label, result-dict)`` pairs in label order.

    Two runs with the same seed must print the same digest; a later change
    that claims "results unchanged" can be checked against it.
    """
    h = hashlib.sha256()
    for label, result in sorted(rows, key=lambda r: r[0]):
        h.update(json.dumps([label, result], sort_keys=True).encode())
    return h.hexdigest()


def source_identity() -> Dict[str, str]:
    """``git_sha`` (``"unknown"`` outside a git checkout) and a digest of
    the simulator sources, which identifies the code even without git."""
    sha = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_digest": h.hexdigest()[:16]}


class Checks:
    """Counts verified operations and the ones that failed verification.

    An operation is one ``simulate()`` call (or one served job) whose
    output was checked; the first few failures are kept for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


class SpanLog:
    """In-memory host-time spans, written as one Chrome trace at the end.

    Each span records its name, start, duration, the id of the span that
    caused it (the enclosing span on the same thread) and the job it
    belongs to, so a viewer (Perfetto, ``chrome://tracing``) nests a job's
    layer calls under it.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._t0 = time.perf_counter()
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, job: str = "") -> "_Span":
        """Context manager timing one call; ``job`` defaults to the parent's."""
        return _Span(self, name, job)

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name, in seconds."""
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["dur"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        events = [{
            "name": s["name"], "ph": "X", "pid": 1, "tid": s["tid"],
            "ts": 1e6 * s["start"], "dur": 1e6 * s["dur"],
            "args": {"id": s["id"], "parent": s["parent"], "job": s["job"]},
        } for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _Span:
    __slots__ = ("log", "name", "job", "id", "parent", "t0")

    def __init__(self, log: SpanLog, name: str, job: str):
        self.log, self.name, self.job = log, name, job

    def __enter__(self) -> "_Span":
        log = self.log
        stack = getattr(log._local, "stack", None)
        if stack is None:
            stack = log._local.stack = []
        self.parent = stack[-1].id if stack else None
        if not self.job and stack:
            self.job = stack[-1].job
        with log._lock:
            log._next += 1
            self.id = log._next
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        t1 = time.perf_counter()
        log = self.log
        log._local.stack.pop()
        record = {
            "name": self.name, "id": self.id, "parent": self.parent,
            "job": self.job, "tid": threading.get_native_id(),
            "start": self.t0 - log._t0, "dur": t1 - self.t0,
        }
        with log._lock:
            log.spans.append(record)


# -- host-speed reference ------------------------------------------------------

#: Events per reference-kernel run: about 30 ms on a 2.1 GHz Xeon VM.
PROBE_EVENTS = 20_000


class _Req:
    __slots__ = ("core", "addr", "t_issue")

    def __init__(self, core: "_Core", addr: int, t_issue: int):
        self.core, self.addr, self.t_issue = core, addr, t_issue


class _Core:
    __slots__ = ("state", "outstanding", "latency")

    def __init__(self, cid: int):
        self.state = 12345 * 2654435761 + cid * 40503 + 1
        self.outstanding = 0
        self.latency = 0


def reference_kernel(events: int) -> int:
    """A fixed miniature of an event-driven memory model; returns a checksum.

    Eight cores issue requests through an LRU set-associative cache to
    banked memory, on a heap-ordered event queue: the same kind of Python
    work (objects, dicts, heap operations, integer arithmetic) as the
    simulator, but frozen here, so no change to the simulator changes it.
    """
    heap: List[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    cores = [_Core(c) for c in range(8)]
    sets = [OrderedDict() for _ in range(256)]
    bank_free = [0] * 16
    seq = 0
    for core in cores:
        push(heap, (0, seq, True, core))
        seq += 1
    fired = 0
    while heap and fired < events:
        t, _, issue, obj = pop(heap)
        fired += 1
        if issue:
            core = obj
            core.state = (core.state * 6364136223846793005
                          + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            addr = (core.state >> 20) & 0x3FFFF
            lines = sets[addr & 255]
            tag = addr >> 8
            if tag in lines:
                lines.move_to_end(tag)
                done = t + 20
            else:
                lines[tag] = True
                if len(lines) > 16:
                    lines.popitem(last=False)
                bank = addr & 15
                start = max(t + 40, bank_free[bank])
                bank_free[bank] = start + 30
                done = start + 30
            push(heap, (done, seq, False, _Req(core, addr, t)))
            seq += 1
            core.outstanding += 1
            if core.outstanding < 4:
                push(heap, (t + 1 + (core.state & 3), seq, True, core))
                seq += 1
        else:
            core = obj.core
            core.outstanding -= 1
            core.latency += t - obj.t_issue
            if core.outstanding == 3:
                push(heap, (t + 1, seq, True, core))
                seq += 1
    return fired + sum(c.latency for c in cores)


class HostProbe:
    """Reference-kernel timings interleaved with a workload.

    The host's speed drifts: on a shared 2-vCPU VM a fixed loop took
    between 0.11 s and 0.24 s within 90 s, in phases tens of seconds long,
    so a raw host time says as much about the phase as about the program.
    The workload calls :meth:`probe` between its operations, and each
    operation is reported as a multiple of the reference kernel's time
    measured around it (the ``ref`` unit). The kernel runs with the
    garbage collector off, so the size of the workload's heap does not
    change its time.
    """

    def __init__(self, events: int = PROBE_EVENTS) -> None:
        self.events = events
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.durs: List[float] = []
        self._checksum = None

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            out = reference_kernel(self.events)
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        if self._checksum is None:
            self._checksum = out
        elif out != self._checksum:
            raise RuntimeError("reference kernel gave a different checksum")
        self.starts.append(t0)
        self.ends.append(t1)
        self.durs.append(t1 - t0)

    def ref_s(self, t0: float, t1: float) -> float:
        """Mean kernel time of the probes just before ``t0`` and just after ``t1``."""
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        near = [self.durs[k] for k in (before, after) if 0 <= k < len(self.durs)]
        if not near:
            raise ValueError("no probe around the interval")
        return statistics.fmean(near)

    def window_ref(self) -> float:
        """Time from the first probe to the last, probes excluded, in ref
        units: each gap between two probes divided by their mean time."""
        return sum((self.starts[k + 1] - self.ends[k])
                   / statistics.fmean(self.durs[k:k + 2])
                   for k in range(len(self.durs) - 1))

    def median_s(self) -> float:
        return statistics.median(self.durs)


def emit(result: Dict[str, Any]) -> None:
    """Print the benchmark's result object as the last stdout line."""
    print(json.dumps(result, sort_keys=True), flush=True)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def info(**fields: Any) -> None:
    """Print one informational JSON line (never the last line)."""
    print("perfbench-info " + json.dumps(fields, sort_keys=True), flush=True)
