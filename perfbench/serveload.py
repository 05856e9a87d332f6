"""The ``jobs-serve`` workload: a closed loop of clients against ``repro serve``.

The server runs as a subprocess with one pool worker per job (simulations
run inline in the job's thread) and room for as many active jobs as there
are clients, so a job never queues behind another client's job. Each
client submits one small grid, waits until it sees the job terminal on
the ``/events`` stream, fetches ``/result``, checks it, and only then
submits its next job. The clients start each job together, in rounds.
Every block of ``BLOCK`` rounds has one cold round, in which one client
submits a fresh grid (a new seed, so every task misses the cache) and the
other clients sit out, and ``BLOCK - 1`` warm rounds, in which every
client resubmits one of its own earlier grids (every task a cache hit).
No warm job ever runs beside a cold one. The seed picks the cold round in
each block and the grids the warm rounds resubmit.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from common import ROOT, HostProbe, metric, proc_peak_rss_mb, quantile

HOST = "127.0.0.1"
CLIENTS = 2
#: Rounds per block: one cold round and ``BLOCK - 1`` warm rounds. The mix
#: is not taken from traffic data; it is chosen so that cold and warm work
#: each fill about half of the window. On a 2-vCPU Xeon VM a cold grid
#: took about 0.9 s and a warm round (both clients' resubmissions, result
#: fetches included) about 9 ms, so one cold round weighs about 100 warm
#: rounds. A change to the simulator then moves ``jobs_per_ref`` about as
#: much as a change to the job plane does.
BLOCK = 100
#: A cold job: a 2-task grid, small enough that job-plane overhead is a
#: visible share of it.
GRID_CONFIGS = ("ddr-baseline", "coaxial-4x")
GRID_WORKLOAD = "mcf"
GRID_OPS = 300
#: The server's peak RSS and cache counters are read after this many
#: rounds (or at the end of a shorter run): a fixed amount of work, since
#: the server keeps every finished job and the counters grow with every
#: round a run completes.
FIXED_ROUNDS = BLOCK
#: A reference-kernel probe runs every this many rounds, while the server
#: is idle: often enough that the host's speed cannot change much between
#: two probes, rarely enough that probes take well under a fifth of a run.
PROBE_EVERY = 10
BOOT_BUDGET_S = 60.0
HTTP_TIMEOUT_S = 120.0


def client_plan(seed: int, client: int) -> Iterator[Tuple[str, Optional[Dict[str, Any]]]]:
    """The client's job sequence: ``(kind, submission body)``.

    A pure function of ``(seed, client)``. The first item is the client's
    priming grid; after it, item ``r`` is the client's job in round ``r``:
    ``"cold"``, ``"warm"`` or ``"idle"`` (sitting out another client's cold
    round, with no body). Blocks take turns among the clients for their
    cold round. Cold seeds are unique per client and position, so a cold
    job never hits the cache.
    """
    rounds = random.Random(f"jobs-serve:{seed}")      # the same for every client
    picks = random.Random(f"jobs-serve:{seed}:{client}")

    def cold_body(k: int) -> Dict[str, Any]:
        return {"configs": list(GRID_CONFIGS), "workloads": [GRID_WORKLOAD],
                "ops": GRID_OPS, "seeds": [(seed * CLIENTS + client) * 100_000 + k],
                "tenant": f"client-{client}"}

    cold = [cold_body(0)]
    yield "cold", cold[0]
    for block in itertools.count():
        cold_round = rounds.randrange(BLOCK)
        for r in range(BLOCK):
            if r != cold_round:
                yield "warm", picks.choice(cold)
            elif block % CLIENTS == client:
                cold.append(cold_body(1 + block * BLOCK + r))
                yield "cold", cold[-1]
            else:
                yield "idle", None


def request(port: int, method: str, path: str,
            body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(HOST, port, timeout=HTTP_TIMEOUT_S)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def wait_terminal(port: int, job_id: str) -> Dict[str, Any]:
    """Read the job's JSONL event stream until its ``finished`` event."""
    conn = http.client.HTTPConnection(HOST, port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        resp = conn.getresponse()
        if resp.status != 200:
            raise RuntimeError(f"events stream for {job_id}: HTTP {resp.status}")
        while True:
            line = resp.readline()
            if not line:
                raise RuntimeError(f"events stream for {job_id} ended early")
            event = json.loads(line)
            if event.get("event") == "finished":
                return event
    finally:
        conn.close()


class Server:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, env: Dict[str, str], cache_dir: Path, max_active: int):
        self.env = env
        self.cache_dir = cache_dir
        self.max_active = max_active
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait for ``/healthz``; returns the boot time in s."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST,
             "--port", "0", "--pool-workers", "1",
             "--max-active", str(self.max_active), "--retries", "0",
             "--job-timeout", str(HTTP_TIMEOUT_S),
             "--cache-dir", str(self.cache_dir)],
            env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("listening on http://", 1)[1]
                        .split()[0].rsplit(":", 1)[1])
        # Drain the rest of stdout so the server can never block on it.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()
        while time.perf_counter() - t0 < BOOT_BUDGET_S:
            try:
                status, data = request(self.port, "GET", "/healthz")
                if status == 200 and json.loads(data).get("status") == "ok":
                    return time.perf_counter() - t0
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve: /healthz not ok within budget")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, wait for the drain, kill if it overstays."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def boot(env: Dict[str, str], cache_dir: Path, reps: int,
         max_active: int) -> Tuple[Server, float]:
    """Boot ``reps`` servers one after another; keep the last one running.

    Returns it with the median boot time (launch until ``/healthz``).
    """
    times = []
    for i in range(reps):
        server = Server(env, cache_dir, max_active)
        try:
            times.append(server.start())
        except BaseException:
            server.stop()
            raise
        if i < reps - 1:
            server.stop()
    return server, statistics.median(times)


def run_job(port: int, body: Dict[str, Any], name: str,
            log=None) -> Dict[str, Any]:
    """Submit one job and wait until it is terminal; returns the record.

    ``latency`` runs from just before the submit until the client sees the
    ``finished`` event; ``/result`` is fetched afterwards, untimed.
    """
    span = log.span if log is not None else (lambda *a, **k: contextlib.nullcontext())
    with span("serve.job", job=name):
        t0 = time.perf_counter()
        with span("serve.http.submit"):
            status, data = request(port, "POST", "/jobs", body)
        t1 = time.perf_counter()
        if status != 202:
            raise RuntimeError(f"submit: HTTP {status}: {data[:200]!r}")
        job_id = json.loads(data)["job"]["id"]
        with span("serve.http.events"):
            wait_terminal(port, job_id)
        t2 = time.perf_counter()
        with span("serve.http.result"):
            status, data = request(port, "GET", f"/jobs/{job_id}/result")
        if status != 200:
            raise RuntimeError(f"result: HTTP {status}: {data[:200]!r}")
    return {"latency": t2 - t0, "rtt": t1 - t0, "start": t0, "end": t2,
            "job": json.loads(data)["job"]}


def task_results(job: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [t["result"] for t in job["tasks"]]


def closed_loop(server: Server, seed: int, seconds: float, checks, log=None):
    """Prime each client's first grid, then run whole blocks of rounds
    until ``seconds`` have elapsed.

    Each client waits for its job to finish before it submits the next,
    and the clients start each round together, so which jobs overlap on
    the server follows from the seeded plans, not from timing. The priming
    jobs (one per client, one after another) also pay the server's lazy
    imports before timing starts; they are checked but not timed.

    A reference-kernel probe runs before the first round, every
    ``PROBE_EVERY`` rounds and after the last, in the pause between rounds.

    Returns the job records, the timed window in seconds, the server's
    peak RSS and cache counters after ``FIXED_ROUNDS`` rounds, and the
    probes.
    """
    port = server.port
    records: List[Dict[str, Any]] = []
    lock = threading.Lock()
    plans = [enumerate(client_plan(seed, c)) for c in range(CLIENTS)]
    cold_results: List[Dict[str, Any]] = [{} for _ in range(CLIENTS)]

    def one_job(c: int, i: int, kind: str, body: Dict[str, Any]) -> None:
        key = json.dumps(body, sort_keys=True)
        try:
            rec = run_job(port, body, f"client{c}-{i}", log)
        except Exception as e:  # a failed job is counted, the loop goes on
            with lock:
                checks.op(False, f"client {c} {kind} job: {type(e).__name__}: {e}")
            return
        job = rec["job"]
        ok = job["state"] == "done" and job["failed_tasks"] == 0
        if kind == "cold":
            ok = ok and job["cached_tasks"] == 0
            cold_results[c][key] = task_results(job)
        else:
            ok = (ok and job["cached_tasks"] == job["total_tasks"]
                  and task_results(job) == cold_results[c].get(key))
        rec.update(kind="prime" if i == 0 else kind, client=c, seq=i, body=body)
        with lock:
            checks.op(ok, f"client {c} {kind} job {job['id']}: "
                          f"state={job['state']} cached={job['cached_tasks']}")
            records.append(rec)

    for c in range(CLIENTS):
        i, (kind, body) = next(plans[c])
        one_job(c, i, kind, body)
    t_start = time.perf_counter()
    go = [True]
    rounds = [0]
    fixed: Dict[str, float] = {}
    probe = HostProbe()

    def next_round() -> None:
        # Runs once per round, while every client waits: the server is idle.
        # A run stops only between blocks, so every run has the same mix.
        go[0] = (rounds[0] % BLOCK != 0
                 or time.perf_counter() - t_start < seconds)
        if rounds[0] == FIXED_ROUNDS or not go[0] and not fixed:
            fixed["peak_rss_mb"] = server.peak_rss_mb()
            fixed.update(cache_counts(port))
        if rounds[0] % PROBE_EVERY == 0 or not go[0]:
            probe.probe()
        rounds[0] += 1

    barrier = threading.Barrier(CLIENTS, action=next_round)

    def client(c: int) -> None:
        for i, (kind, body) in plans[c]:
            try:
                barrier.wait(timeout=2 * HTTP_TIMEOUT_S)
            except threading.BrokenBarrierError:
                with lock:
                    checks.op(False, f"client {c}: round barrier broken")
                return
            if not go[0]:
                return
            if kind != "idle":
                one_job(c, i, kind, body)

    threads = [threading.Thread(target=client, args=(c,), name=f"client-{c}")
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 4 * HTTP_TIMEOUT_S)
        if t.is_alive():
            barrier.abort()
            raise RuntimeError(f"{t.name} did not finish")
    timed = [r["end"] for r in records if r["kind"] != "prime"]
    window = max(timed, default=t_start) - t_start
    return records, window, fixed, probe


def cache_counts(port: int) -> Dict[str, int]:
    """The server's result-cache hit and miss counters, from ``/metrics``."""
    status, data = request(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics: HTTP {status}")
    values = dict(line.split()[:2] for line in data.decode().splitlines()
                  if line and not line.startswith("#"))
    return {"exec.cache_hits": int(float(values["repro_serve_cache_hits_total"])),
            "exec.cache_misses": int(float(values["repro_serve_cache_misses_total"]))}


def end_to_end(records: List[Dict[str, Any]], probe: HostProbe) -> Dict[str, Any]:
    """Throughput over the probed window and job latencies, in ``ref`` units:
    each latency divided by the reference-kernel time measured around it."""
    def latencies(kind: str) -> List[float]:
        return [r["latency"] / probe.ref_s(r["start"], r["end"])
                for r in records if r["kind"] == kind]

    cold, warm = latencies("cold"), latencies("warm")
    instrs = sum(t["result"]["instructions"] for r in records if r["kind"] == "cold"
                 for t in r["job"]["tasks"])
    window = probe.window_ref() or float("nan")
    return {
        "sim_instr_per_ref": metric(instrs / window, "instr/ref"),
        "jobs_per_ref": metric((len(cold) + len(warm)) / window, "1/ref"),
        "cold_job_p50_ref": metric(quantile(cold or [float("nan")], 0.5), "ref"),
        "warm_job_p90_ref": metric(quantile(warm or [float("nan")], 0.9), "ref"),
    }


def job_plane_layers(records: List[Dict[str, Any]],
                     counts: Dict[str, int]) -> Dict[str, Any]:
    """Per-layer job-plane metrics from the job timestamps and ``counts``,
    the cache counters read after a fixed amount of work.

    Queue wait is ``started_at - submitted_at`` over every timed job; run
    time and task wall are over cold jobs, the only ones that simulate.
    """
    def jobs(*kinds):
        return [r["job"] for r in records if r["kind"] in kinds]

    waits = [j["started_at"] - j["submitted_at"] for j in jobs("cold", "warm")]
    runs = [j["finished_at"] - j["started_at"] for j in jobs("cold")]
    walls = [t["wall_s"] for j in jobs("cold") for t in j["tasks"]]
    nan = [float("nan")]
    return {
        "serve.queue_wait_p50_s": metric(quantile(waits or nan, 0.5), "s"),
        "serve.run_p50_s": metric(quantile(runs or nan, 0.5), "s"),
        "serve.http_rtt_p50_s": metric(
            quantile([r["rtt"] for r in records if r["kind"] != "prime"] or nan,
                     0.5), "s"),
        "exec.task_wall_p50_s": metric(quantile(walls or nan, 0.5), "s"),
        "exec.cache_hits": metric(counts["exec.cache_hits"], "count"),
        "exec.cache_misses": metric(counts["exec.cache_misses"], "count"),
    }
