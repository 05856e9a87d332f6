"""Tests of the benchmark itself: its contract, correctness gates and seeding.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import common
import inline
import run
import serveload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
#: Small enough that a whole grid, traced, takes seconds.
TINY_OPS = 60


@pytest.fixture
def env(tmp_path, monkeypatch):
    """The benchmark's hermetic environment, restored after the test."""
    for key in common.REPRO_ENV:
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return dict(os.environ, PYTHONPATH=str(common.SRC))


def test_benchmark_json_names_units_and_bounds():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(inline.WORKLOADS))
def test_inline_workload_tiny_run_passes_its_gate(name, env, tmp_path):
    wl = dataclasses.replace(inline.WORKLOADS[name], ops=TINY_OPS)
    checks = common.Checks()
    metrics, results, _ = inline.end_to_end(wl, 3, 0.0, tmp_path / "e2e", checks)
    assert set(metrics) | {"setup_s"} == END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())
    layers, traced = inline.traced_layers(wl.jobs(), wl.ops, 3, tmp_path / "traced",
                                          common.SpanLog(), checks)
    assert traced == results
    assert set(layers) <= PER_LAYER
    assert checks.failed == 0, checks.errors
    assert checks.attempted >= 5 * len(wl.jobs())


def test_jobs_serve_plan_is_seeded():
    def head(seed, client, n=4 * serveload.BLOCK + 1):
        return list(itertools.islice(serveload.client_plan(seed, client), n))

    assert head(7, 0) == head(7, 0)
    assert head(7, 0) != head(8, 0)
    plans = [head(7, c)[1:] for c in range(serveload.CLIENTS)]
    for c, plan in enumerate(plans):
        cold = [body for kind, body in head(7, c) if kind == "cold"]
        assert len({json.dumps(b, sort_keys=True) for b in cold}) == len(cold)
        assert all(body in cold for kind, body in plan if kind == "warm")
    # One cold round per block, with every other client sitting it out;
    # every other round is all resubmissions.
    rounds = [[kind for kind, _ in jobs] for jobs in zip(*plans)]
    for b in range(0, len(rounds), serveload.BLOCK):
        block = [sorted(r) for r in rounds[b:b + serveload.BLOCK]]
        cold_round = ["cold"] + ["idle"] * (serveload.CLIENTS - 1)
        assert block.count(cold_round) == 1
        assert block.count(["warm"] * serveload.CLIENTS) == serveload.BLOCK - 1


def test_jobs_serve_runs_repeat_the_seeded_sequence(env, tmp_path):
    seqs = []
    for rep in range(2):
        checks = common.Checks()
        server, _ = serveload.boot(env, tmp_path / f"serve{rep}", 1, serveload.CLIENTS)
        with server:
            records, window, fixed, probe = serveload.closed_loop(server, 5, 1.0,
                                                                  checks)
        assert fixed["peak_rss_mb"] > 0 and fixed["exec.cache_misses"] >= 2
        assert checks.failed == 0, checks.errors
        assert window > 0
        assert len(probe.durs) >= 2 and probe.window_ref() > 0
        seqs.append({c: [(r["kind"], r["body"]) for r in
                         sorted(records, key=lambda r: r["seq"]) if r["client"] == c]
                     for c in range(serveload.CLIENTS)})
    for c in range(serveload.CLIENTS):
        a, b = seqs[0][c], seqs[1][c]
        n = min(len(a), len(b))
        assert n >= 2 and a[:n] == b[:n]
        plan = [job for job in itertools.islice(serveload.client_plan(5, c), 10 * n)
                if job[0] != "idle"]
        assert a[:n] == [(kind if i else "prime", body)
                         for i, (kind, body) in enumerate(plan[:n])]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_command_prints_every_metric(workload, trace, env, monkeypatch, capsys):
    """A tiny-scale run of every workload passes its correctness gate and
    prints exactly the metrics BENCHMARK.json names for its mode."""
    monkeypatch.setattr(inline, "WORKLOADS", {
        name: dataclasses.replace(wl, ops=TINY_OPS)
        for name, wl in inline.WORKLOADS.items()})
    monkeypatch.setattr(serveload, "GRID_OPS", TINY_OPS)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "BOOT_REPS", 1)
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "3",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dispatch-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_host_probe_brackets_each_interval():
    probe = common.HostProbe(events=200)
    probe.probe()
    probe.probe()  # a second run must repeat the kernel's checksum
    assert len(probe.durs) == 2 and min(probe.durs) > 0
    # Probes over [0, 1], [3, 5] and [9, 10], taking 1, 2 and 1 s.
    probe.starts, probe.ends, probe.durs = [0.0, 3.0, 9.0], [1.0, 5.0, 10.0], [1.0, 2.0, 1.0]
    assert probe.ref_s(1.5, 2.5) == 1.5
    assert probe.ref_s(5.0, 9.0) == 1.5
    assert probe.ref_s(11.0, 12.0) == 1.0
    assert probe.window_ref() == pytest.approx(2 / 1.5 + 4 / 1.5)


def test_spans_nest_and_inherit_the_job():
    log = common.SpanLog()
    with log.span("job", job="j1"):
        with log.span("inner"):
            pass
    inner, outer = log.spans
    assert inner["parent"] == outer["id"] and inner["job"] == "j1"
    assert outer["parent"] is None
    assert outer["dur"] >= inner["dur"] >= 0
