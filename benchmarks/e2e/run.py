#!/usr/bin/env python3
"""End-to-end serving benchmark: one workload, one seed, one process.

    python3 benchmarks/e2e/run.py --workload serve_hot --seed 1 --seconds 24 --trace 0

prints every metric by name with its unit, checks answers against an
oracle store, and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones; names, units and bounds live in
``BENCHMARK.json`` at the root of the checkout.  See README.md beside
this file for what is measured and why.

    run.py --all                         every workload, one after another
    run.py --spread --seeds 1-10         ten seeds per workload -> baseline.json
    run.py --compare A.json B.json       two --spread files, row by row
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
KERNEL_CACHE = ROOT / ".bench_build" / "secndp-kernels"

ROUNDS = 4                 #: burst -> solo -> paced, so each metric samples several host phases
SHARES = {"burst": 0.5, "solo": 0.2, "paced": 0.3}
SETUP_PRIMES = 2           #: untimed builds first: see drive()
SETUP_BUILDS = 5
PACED_WINDOWS = 12         #: paced_in_limit_share is the median over this many windows
WARMUP_S = 1.0
TRACE_LOAD_SHARE = 0.35    #: of --seconds, in a traced run; the rest is stage replay
CHECK_EVERY = 8            #: every 8th OK response goes to the oracle (all under --check)


def die(message: str, code: int = 2) -> "NoReturn":  # noqa: F821
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def prepare_environment() -> None:
    """Run hygiene that must hold before the program is imported."""
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        die(f"nothing to measure: {SRC / 'repro'} or {SPEC.name} is missing from this checkout")
    # SECNDP_* variables switch program paths (kernel tier, fault plans,
    # worker pools, time-outs); a run that inherits one measures another program.
    preset = sorted(
        k for k in os.environ if k.startswith("SECNDP_") and k != "SECNDP_KERNEL_CACHE"
    )
    if preset:
        die(f"refusing to run with {', '.join(preset)} set: unset them first")
    os.environ["SECNDP_KERNEL_CACHE"] = str(KERNEL_CACHE)  # inside the checkout
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


# -- host readings -----------------------------------------------------------------


def peak_rss_mib() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def steal_ms() -> float:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) * 1000.0 / os.sysconf("SC_CLK_TCK")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref[:12]
    except OSError:
        return "nogit"


def leftovers() -> List[str]:
    """Children and threads that outlived the stacks (there must be none:
    the offload thread ends with its scheduler)."""
    found = [f"thread {t.name}" for t in threading.enumerate() if t is not threading.main_thread()]
    for task in Path("/proc/self/task").iterdir():
        try:
            found += [f"child {pid}" for pid in (task / "children").read_text().split()]
        except OSError:
            pass
    return found


# -- one run -----------------------------------------------------------------------


async def drive(workload, table, args) -> dict:
    """Build the stack (2 untimed + 5 timed), warm up, run the rounds, and
    (traced) replay the stages."""
    from calib import normalise
    from loadgen import Samples, Tally, burst_segment, paced_segment, reencrypt, solo_segment
    from spans import Tracer
    from stacks import build_stack
    from workloads import QueryStream

    samples, warm = Samples(), Samples()
    tally = Tally(1 if args.check else CHECK_EVERY)
    # The first builds of a process pay for memory, not for set-up: glibc
    # maps every large array afresh until its mmap threshold has grown, and
    # a page the hypervisor has not backed yet costs ~60 us to touch where a
    # backed one costs ~1 us (measured: builds 1/2/3 of serve_cold took
    # 3.07/1.20/0.78 s in one process and 0.72/0.62/0.34 s in the next).
    # Two untimed builds let that settle, as a warm-up lets caches fill.
    setups, add_tables, primes, stack = [], [], [], None
    for build in range(SETUP_PRIMES + SETUP_BUILDS):
        if stack is not None:
            await stack.close()
            stack = None
            gc.collect()
        t0 = time.perf_counter()
        stack = await build_stack(workload, table)
        t = time.perf_counter() - t0
        if build < SETUP_PRIMES:
            primes.append(t)
        else:
            setups.append((t, samples.calibrate(t)))
            add_tables.append((stack.add_table_s, setups[-1][1]))
    try:
        streams = {p: QueryStream(workload, args.seed, p) for p in SHARES}
        # Let the pad cache fill and lazy set-up finish before anything is timed.
        await burst_segment(stack, streams["burst"], WARMUP_S * 0.7, warm, tally, phase="warmup")
        await solo_segment(stack, streams["solo"], WARMUP_S * 0.3, warm, tally, phase="warmup")

        store = stack.store
        pads0, tags0, ok0 = store.cache_info(), store.tag_cache_info(), tally.total("ok")
        steal0 = steal_ms()
        tracer = Tracer() if args.trace else None
        load_s = args.seconds * (TRACE_LOAD_SHARE if args.trace else 1.0)
        for _ in range(ROUNDS):
            part = {p: load_s / ROUNDS * share for p, share in SHARES.items()}
            await burst_segment(stack, streams["burst"], part["burst"], samples, tally,
                                alternate=tracer)
            await solo_segment(stack, streams["solo"], part["solo"], samples, tally)
            if workload.cycle_waves:
                reencrypt(stack, samples)  # the paced segment, too, starts on fresh versions
            await paced_segment(stack, streams["paced"], part["paced"], samples, tally)
        pads1, tags1, served = store.cache_info(), store.tag_cache_info(), tally.total("ok") - ok0
        out = {
            "samples": samples, "tally": tally, "setups": setups, "tracer": tracer,
            "first_build_s": primes[0],
            "counters": stack.counters(),
            "pad_hits": pads1.hits - pads0.hits, "pad_misses": pads1.misses - pads0.misses,
            "tag_hits": tags1.hits - tags0.hits, "tag_misses": tags1.misses - tags0.misses,
            "served": served, "replay": None,
        }
        if args.trace:
            from stages import Replay

            replay = Replay(workload, stack, table, args.seed, tracer, samples, tally)
            await replay.start()
            try:
                await replay.run(args.seconds * (1.0 - TRACE_LOAD_SHARE))
            finally:
                await replay.close()
            out["replay"] = replay
        out["steal_ms"] = steal_ms() - steal0
        out["detected"] = store.recovery_log.detected_count()
        out["reencryptions"] = sum(store.recovery_log.reencryptions.values())
        out["scripted"] = samples.scripted_reencryptions + warm.scripted_reencryptions
        out["setup_norm"] = [normalise(t, c) for t, c in setups]
        out["add_table_norm"] = [normalise(t, c) for t, c in add_tables]
    finally:
        await stack.close()
    return out


def reduce(workload, run: dict, host: dict) -> Dict[str, float]:
    """Every metric this run can report, by its ``BENCHMARK.json`` name."""
    from calib import normalise, normalise_solo
    from loadgen import IN_LIMIT_S, tail
    from stacks import COUNTERS
    from workloads import WAVE

    s = run["samples"]
    med = statistics.median
    wave_norm = med(normalise(t, c) for t, c in s.waves)
    wave_raw = med(t for t, _ in s.waves)
    if workload.cycle_waves:
        per_cycle = workload.cycle_waves * WAVE
        burst_qps = per_cycle / med(s.cycles)
        burst_raw_qps = per_cycle / (
            workload.cycle_waves * wave_raw + med(t for t, _ in s.reencrypts)
        )
    else:
        burst_qps, burst_raw_qps = WAVE / wave_norm, WAVE / wave_raw
    solo_norm = [normalise_solo(t, c, w) for t, c, w in s.solos]
    latencies = [p.latency_s for p in s.paced]
    in_limit = [p.ok and p.latency_s <= IN_LIMIT_S for p in s.paced]
    # One 100 ms host stall puts a burst of ~20 consecutive requests past the
    # limit; the median over windows ignores stalls that hit few windows and
    # still drops when a backlog or a blocked loop is there all the time.
    size = max(len(in_limit) // PACED_WINDOWS, 1)
    windows = [in_limit[i:i + size] for i in range(0, size * PACED_WINDOWS, size)]
    windows = [sum(w) / len(w) for w in windows if w]
    pads = run["pad_hits"] + run["pad_misses"]
    tags = run["tag_hits"] + run["tag_misses"]
    m = {
        "setup_s": med(run["setup_norm"]),
        "burst_qps": burst_qps,
        "solo_p50_ms": med(solo_norm) * 1e3,
        "paced_in_limit_share": med(windows),
        "loadgen.paced_in_limit_all": sum(in_limit) / len(in_limit),
        "peak_rss_mb": host["peak_rss_mb"],
        "loadgen.paced_p50_ms": med(latencies) * 1e3,
        "loadgen.paced_p99_ms": tail(latencies, 0.99)[0] * 1e3,
        "loadgen.late_p99_ms": tail([p.late_s for p in s.paced], 0.99)[0] * 1e3,
        "loadgen.solo_p95_ms": tail(solo_norm, 0.95)[0] * 1e3,
        "loadgen.burst_p95_ms": tail(s.requests, 0.95)[0] * 1e3,
        "host.calib_ms": med(s.calibs) * 1e3,
        "host.steal_ms": run["steal_ms"],
        "host.burst_raw_qps": burst_raw_qps,
        "host.solo_raw_p50_ms": med(t for t, _, _ in s.solos) * 1e3,
        "host.setup_raw_s": med(t for t, _ in run["setups"]),
        "host.setup_first_raw_s": run["first_build_s"],
        "crypto.otp.aes_blocks_per_query": run["pad_misses"] / run["served"],
        "crypto.otp.cache_hit_share": run["pad_hits"] / pads if pads else 0.0,
        "core.mac.tag_cache_hit_share": run["tag_hits"] / tags if tags else 0.0,
        "faults.recovery.detected": float(run["detected"]),
        "faults.recovery.reencryptions": float(run["reencryptions"]),
        "kernels.tier": host["kernels.tier"],
        "kernels.warmup_s": host["kernels.warmup_s"],
        "workloads.secure_sls.add_table_s": med(run["add_table_norm"]),
    }
    m.update(dict.fromkeys(COUNTERS, 0.0), **run["counters"])
    replay = run["replay"]
    if replay is not None:
        m.update(replay.metrics())
        on, off = (med(normalise(t, c) for t, c in w) for w in (s.traced_waves, s.waves))
        replay.signed["trace.overhead_share"] = (on - off) / off
        m["trace.overhead_share"] = max((on - off) / off, 0.0)
    return m


def check_answers(oracle, to_check) -> int:
    """OK responses that are not bit-identical to the oracle's single-query ``sls``."""
    import numpy as np
    from stacks import TABLE

    wrong = 0
    for (rows, weights), answer in to_check:
        if not np.array_equal(np.asarray(answer), oracle.sls(TABLE, rows, weights)):
            wrong += 1
    return wrong


def run_single(args) -> int:
    spec = load_spec()
    import numpy as np
    from repro import kernels

    from stacks import build_store
    from workloads import WORKLOADS, make_table, stream_hash

    # The native tier compiles itself on first use; the compiler's temporary
    # files, too, stay inside the checkout.
    KERNEL_CACHE.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(KERNEL_CACHE)
    t0 = time.perf_counter()
    kernels.warmup()  # outside every timed region
    host = {"kernels.warmup_s": time.perf_counter() - t0,
            "kernels.tier": float(kernels.tier_code())}
    workload = WORKLOADS[args.workload]
    if args.scale == "smoke":
        workload = workload.smoke()
    table = make_table(workload, args.seed)

    run = asyncio.run(drive(workload, table, args))
    left = leftovers()
    host["peak_rss_mb"] = peak_rss_mib()  # before the oracle store is built

    oracle = build_store(table)  # same key, params and table: the fault-free reference
    tally = run["tally"]
    silent_wrong = check_answers(oracle, tally.to_check)

    metrics = reduce(workload, run, host)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = [f"left running: {x}" for x in left]
    if silent_wrong:
        problems.append(f"silent_wrong = {silent_wrong}: OK responses differ from the oracle")
    if tally.total("failed"):
        problems.append(f"{tally.total('failed')} requests failed on a run with no injected fault")
    if metrics["serve.admission.shed"] > 0:
        problems.append("serve.admission.shed > 0")
    if metrics["faults.recovery.detected"] > 0:
        problems.append("faults.recovery.detected > 0")
    if run["reencryptions"] != run["scripted"]:
        problems.append(
            f"{run['reencryptions']} re-encryptions, {run['scripted']} scripted"
        )
    for entry in listed:
        value = metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {entry['name']} is missing or not finite")

    info = {
        "workload": workload.name, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "stream_hash": stream_hash(workload, args.seed),
        "nproc": os.cpu_count(), "kernel_tier": kernels.active_tier(),
        "python": platform.python_version(), "numpy": np.__version__, "sha": git_sha(),
        "waves": len(run["samples"].waves), "solos": len(run["samples"].solos),
        "paced": len(run["samples"].paced), "checked": len(tally.to_check),
        "silent_wrong": silent_wrong,
        "replay_rounds": run["replay"].rounds if run["replay"] else 0,
    }
    report(spec, info, metrics, tally)
    write_results(info, metrics, tally, run)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    units = {e["name"]: e["unit"] for e in listed}
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.total("attempted"),
        "failed": tally.total("failed"),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 1 if problems else 0


def report(spec: dict, info: dict, metrics: Dict[str, float], tally) -> None:
    print("# " + "  ".join(f"{k}={v}" for k, v in info.items()))
    print(f"{'phase':<10}{'attempted':>10}{'ok':>10}{'failed':>8}")
    for phase, counts in tally.phases.items():
        print(f"{phase:<10}{counts['attempted']:>10}{counts['ok']:>10}{counts['failed']:>8}")
    for section in ("end_to_end", "per_layer"):
        print(f"-- {section}" + ("" if section == "per_layer" or not info["trace"]
                                 else " (short traced load phase: use --trace 0 for these)"))
        for entry in spec[section]:
            if entry["name"] in metrics:
                print(f"{entry['name']:<44}{metrics[entry['name']]:>16.6g} {entry['unit']}")


def results_path(workload: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{workload}-seed{seed}-trace{trace}.json"


def write_results(info: dict, metrics: Dict[str, float], tally, run: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    out = {"info": info, "metrics": metrics, "phases": tally.phases}
    if run["replay"] is not None:
        out["signed"] = run["replay"].signed
        out["span_self_times"] = run["tracer"].self_times()
        out["spans"] = run["tracer"].spans
    with open(results_path(info["workload"], info["seed"], info["trace"]), "w") as fh:
        json.dump(out, fh)


# -- many runs: --all, --spread, --compare -------------------------------------------


def child_run(workload: str, seed: int, args, trace: int) -> dict:
    """One workload in a process of its own (``peak_rss_mb`` and the
    no-leftover check are per process); returns its final JSON line and
    the results file it wrote."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale]
    if args.check:
        cmd.append("--check")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        die(f"{' '.join(cmd)} exited with {proc.returncode}", 1)
    with open(results_path(workload, seed, trace)) as fh:
        return {"stdout": proc.stdout, "final": json.loads(lines[-1]), "results": json.load(fh)}


def run_all(args) -> int:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = child_run(name, args.seed, args, args.trace)
        sys.stdout.write("\n".join(child["stdout"].strip().splitlines()[:-1]) + "\n\n")
        final = child["final"]
        combined["correct"] &= final["correct"]
        combined["attempted"] += final["attempted"]
        combined["failed"] += final["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in final["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: List[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


#: Raw host readings shown beside the normalised numbers, so a reader sees
#: how far the box moved while they held.
HOST_COLUMNS = ("host.calib_ms", "host.burst_raw_qps")


def run_spread(args) -> int:
    from workloads import WORKLOADS

    spec, seeds = load_spec(), parse_seeds(args.seeds)
    names = [args.workload] if args.workload else list(WORKLOADS)
    out = {"info": {"seeds": seeds, "seconds": args.seconds, "scale": args.scale,
                    "sha": git_sha(), "nproc": os.cpu_count()},
           "workloads": {}}
    for name in names:
        runs = [child_run(name, seed, args, 0)["results"]["metrics"] for seed in seeds]
        rows = {}
        for entry in spec["end_to_end"]:
            rows[entry["name"]] = {**entry, **summarise([r[entry["name"]] for r in runs])}
        for column in HOST_COLUMNS:
            rows[column] = summarise([r[column] for r in runs])
        out["workloads"][name] = rows
        for metric, row in rows.items():
            print(f"{name:<14}{metric:<24}median {row['median']:>12.5g}  "
                  f"q1 {row['q1']:>12.5g}  q3 {row['q3']:>12.5g}  spread {row['spread']:.4f}"
                  + (f"  (bound {row['bound']})" if "bound" in row else ""))
    path = Path(args.out) if args.out else HERE / "baseline.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def verdict(a: dict, b: dict) -> str:
    """``b`` (the change) against ``a`` (the base), by the bound ``a`` carries."""
    higher = a["better"] == "higher"
    worse_by = (a["median"] - b["median"]) / a["median"] * (1 if higher else -1)
    if max(a["spread"], b["spread"]) > a["bound"]:
        # Too noisy to call, unless every run of b beats every run of a.
        clean_win = (min(b["values"]) > max(a["values"]) if higher
                     else max(b["values"]) < min(a["values"]))
        return "within-bound" if clean_win else "unresolved"
    return "regressed" if worse_by > a["bound"] else "within-bound"


def run_compare(args) -> int:
    with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    print(f"{'workload':<14}{'metric':<22}{'A median':>12}{'B median':>12}"
          f"{'B/A':>8}  {'(base A)':<14}{'IQR/med A':>10}{'IQR/med B':>10}  verdict")
    regressed = 0
    for name, rows in a["workloads"].items():
        for metric, row_a in rows.items():
            row_b = b["workloads"].get(name, {}).get(metric)
            if row_b is None:
                continue
            result = verdict(row_a, row_b) if "bound" in row_a else "(host)"
            regressed += result == "regressed"
            print(f"{name:<14}{metric:<22}{row_a['median']:>12.5g}{row_b['median']:>12.5g}"
                  f"{row_b['median'] / row_a['median']:>8.3f}  "
                  f"{'of ' + format(row_a['median'], '.5g'):<14}"
                  f"{row_a['spread']:>10.4f}{row_b['spread']:>10.4f}  {result}")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    prepare_environment()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(load_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tables an eighth the size (tests)")
    parser.add_argument("--check", action="store_true",
                        help="send every OK response to the oracle, not every 8th")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--spread", action="store_true",
                        help="run --seeds on every workload (or --workload) and write --out")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="where --spread writes (default: baseline.json here)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --spread files: B against base A")
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(args)
    if args.spread:
        return run_spread(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required (or --all, --spread, --compare)")
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
