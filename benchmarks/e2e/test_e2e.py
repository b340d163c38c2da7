"""Tests of the benchmark itself (``python -m pytest benchmarks/e2e -q``).

Not collected by tier-1 (``testpaths = ["tests"]``); ``pytest.ini`` beside
this file makes this directory its own rootdir, so the figure benchmarks'
``conftest.py`` one level up is not loaded.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

run.prepare_environment()

import calib  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(run.HERE / "run.py")]


def run_benchmark(*args: str, cwd: Path = run.ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("serve_hot", 0), ("serve_churn", 1), ("cluster_shard", 1)],
)
def test_smoke_run_emits_every_named_metric(workload, trace):
    started = time.perf_counter()
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "4",
                         "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - started < 30
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    listed = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {entry["name"] for entry in listed}
    for entry in listed:
        assert final["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert entry["name"] in proc.stdout  # and printed by name above the JSON line


def test_request_stream_is_a_function_of_the_seed():
    w = workloads.WORKLOADS["serve_hot"].smoke()
    assert workloads.stream_hash(w, 5) == workloads.stream_hash(w, 5)
    assert workloads.stream_hash(w, 5) != workloads.stream_hash(w, 6)


def test_queries_keep_the_workload_shape():
    w = workloads.WORKLOADS["serve_churn"]
    queries = workloads.QueryStream(w, 1, "burst").queries(500)
    hot = set(workloads.QueryStream(w, 1, "solo")._hot.tolist())
    refs = [r for rows, _ in queries for r in rows]
    assert all(w.pf[0] <= len(rows) <= w.pf[1] == max(w.pf) for rows, _ in queries)
    assert all(set(weights) <= {1, 2, 3} for _, weights in queries)
    assert 0 <= min(refs) and max(refs) < w.n_rows
    assert 0.85 < sum(r in hot for r in refs) / len(refs) < 0.95


def test_paced_latency_is_taken_from_the_due_time():
    """A server that stalls 200 ms on the first request makes the requests
    due during the stall late, although each is served in no time."""

    async def send(query):
        if query == 0:
            time.sleep(0.2)  # blocks the loop, as a stalled server thread would
        return query

    arrivals = [0.0, 0.02, 0.04, 0.06, 0.4]
    results = asyncio.run(loadgen.run_paced(send, arrivals, list(range(5))))
    latency = [sample.latency_s for sample, _, _ in results]
    assert latency[0] >= 0.2
    assert latency[1] >= 0.2 - 0.02 - 0.005   # waited for the stall, not just its own service
    assert latency[3] >= 0.2 - 0.06 - 0.005
    assert latency[4] < 0.05                  # due after the stall: unaffected
    assert results[1][0].late_s >= 0.15       # and the generator says how late it ran
    assert all(sample.ok for sample, _, _ in results)


def test_normalising_cancels_a_uniformly_slower_host():
    sample, cal = 0.120, calib.CALIB_REF
    base = calib.normalise(sample, cal)
    assert base == pytest.approx(sample)
    for factor in (0.7, 1.4, 3.0):
        assert calib.normalise(sample * factor, cal * factor) == pytest.approx(base)


def test_solo_formula_leaves_the_window_unscaled():
    window, work, cal = 0.005, 0.002, calib.CALIB_REF
    base = calib.normalise_solo(window + work, cal, window)
    assert base == pytest.approx(window + work)
    # Host twice as slow: the work doubles, the timer does not.
    assert calib.normalise_solo(window + 2 * work, 2 * cal, window) == pytest.approx(base)
    # Without a window the whole sample scales.
    assert calib.normalise_solo(2 * work, 2 * cal, 0.0) == pytest.approx(work)


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1000))
    assert loadgen.percentile(samples, 0.99) == 989
    with pytest.raises(ValueError):
        loadgen.percentile(samples[:999], 0.99)
    with pytest.raises(ValueError):
        loadgen.percentile(list(range(199)), 0.95)
    assert loadgen.tail(list(range(300)), 0.99) == (284, 0.95)  # p99 refused, p95 supported
    assert loadgen.tail(list(range(5)), 0.95) == (2, 0.5)


def test_span_self_time_is_the_span_minus_what_its_children_cover():
    tracer = spans.Tracer()

    async def child(delay):
        with tracer.span("child"):
            await asyncio.sleep(delay)

    async def wave():
        with tracer.span("wave", wave=7):
            await asyncio.gather(child(0.02), child(0.03))  # overlapping children
            time.sleep(0.01)                                # the wave's own work

    asyncio.run(wave())
    parent, first, second = tracer.spans
    assert first["parent"] == second["parent"] == parent["id"]  # tasks inherit the span
    assert first["wave"] == 7
    times = tracer.self_times()
    assert times["child"]["count"] == 2
    assert 0.008 < times["wave"]["self_s"] < 0.03 < times["wave"]["total_s"]
    assert times["wave"]["self_s"] == times["wave"]["self_signed_s"]


def test_compare_verdicts():
    def row(values, better="higher", bound=0.10):
        return {"better": better, "bound": bound, **run.summarise(values)}

    steady = [100 + 0.1 * i for i in range(10)]
    assert run.verdict(row(steady), row([v * 0.97 for v in steady])) == "within-bound"
    assert run.verdict(row(steady), row([v * 0.85 for v in steady])) == "regressed"
    assert run.verdict(row(steady, "lower"), row([v * 1.2 for v in steady], "lower")) == "regressed"
    noisy = [60, 70, 80, 90, 100, 110, 120, 130, 140, 150]
    assert run.verdict(row(steady), row(noisy)) == "unresolved"
    assert run.verdict(row(noisy), row([v + 200 for v in noisy])) == "within-bound"  # clean win


def test_refuses_a_preset_program_switch():
    env = dict(os.environ, SECNDP_KERNEL_TIER="numpy")
    proc = run_benchmark("--workload", "serve_hot", "--seconds", "1", env=env)
    assert proc.returncode != 0 and "SECNDP_KERNEL_TIER" in proc.stderr
    assert not proc.stdout.strip()


def test_exits_at_once_where_there_is_no_program(tmp_path):
    """A checkout that holds only BENCHMARK.json and benchmarks/e2e/."""
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert time.perf_counter() - started < 5
