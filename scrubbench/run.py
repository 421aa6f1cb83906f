#!/usr/bin/env python3
"""End-to-end benchmark of the pcmscrub simulator.

Builds the benchmark binary from this checkout's sources (CMake, into
.scrubbench_build/ at the checkout root), runs one workload in its
own process, checks its outputs, and prints every metric by name with
its unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures (host seconds of
set-up at 1 and N threads and of the run at 1 thread, peak RSS; the
N-thread run time is printed beside them); with --trace 1 they are the
per-layer figures of a traced pass, the N-thread run time among them.
Metric names, units and bounds are listed in BENCHMARK.json at the
checkout root; the workload record (sizes, seeds,
predictions, host facts) is in workloads.json next to this file.

    python3 scrubbench/run.py --workload e10_headline --seed 1 \\
        --seconds 36 --trace 0
    python3 scrubbench/run.py --workload all --seed 1   # every workload
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".scrubbench_build"
BINARY = BUILD / "scrubbench"
RECORD = HERE / "workloads.json"

WORKLOADS = ("e10_headline", "cell_clean_sweep", "cell_fault_storm")
RECORD_DATA = json.loads(RECORD.read_text())


def fail(message):
    print(f"scrubbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the binary up to date."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed (full log in " + str(log) + ")")
    if not BINARY.exists():
        fail("build produced no binary")


def run_binary(workload, seed, seconds, threads, trace):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--threads", str(threads), "--seconds", str(seconds),
           "--reference-seed", str(RECORD_DATA["e10_reference"]["seed"])]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"spans-{workload}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload}: scrubbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: scrubbench printed nothing")
    return json.loads(lines[-1])


def check_e10(raw):
    """Failed checks of the E10 reference ratios against the record."""
    ref = RECORD_DATA["e10_reference"]
    tol = ref["tolerance"]
    failed = 0
    for baseline, expected in ref["ratios"].items():
        got = raw["e10_reference_ratios"][baseline]
        limits = {
            "ue_reduction_pct": tol["ue_reduction_pct_abs"],
            "write_reduction_x":
                tol["write_reduction_x_rel"] * expected["write_reduction_x"],
            "energy_reduction_pct": tol["energy_reduction_pct_abs"],
        }
        for key, limit in limits.items():
            if abs(got[key] - expected[key]) > limit:
                print(f"scrubbench: E10 {baseline} {key} = {got[key]:.4f}, "
                      f"recorded {expected[key]:.4f} +- {limit:.4f}",
                      file=sys.stderr)
                failed += 1
    return failed


def end_to_end(raw):
    # The N-thread run phase is not among these: on e10_headline every
    # wake hands a few microseconds of work to N threads, so the phase
    # times how fast the shared host wakes idle vCPUs (1.4 s in one
    # minute, 3.9 s a few minutes later, while run_s held within 5%).
    # It is reported with the per-layer figures instead.
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "run_s": (statistics.median(raw["run_s"]), "s"),
        "setup_s_mt": (statistics.median(raw["setup_s_mt"]), "s"),
        "peak_rss_mib": (raw["peak_rss_mib"], "MiB"),
    }


def per_layer(raw, threads):
    t = raw["traced"]
    ops = t["ops"]
    backend_s = sum(op["s"] for op in ops.values())
    self_s = t["wake_s"] - backend_s
    run_s = statistics.median(raw["run_s"])
    run_s_mt = statistics.median(raw["run_s_mt"])
    sim = raw["sim"]
    faults = t["faults"]
    light = ops["light_detect"]["calls"]
    decodes = ops["full_decode"]["calls"]
    m = {
        "scrub.policy.self_s": (self_s, "s"),
        "scrub.policy.wakes": (t["wakes"], "count"),
        "scrub.policy.wake_p50_us": (t["wake_p50_us"], "us"),
        "scrub.policy.wake_p99_us": (t["wake_tail_us"], "us"),
        "scrub.policy.wake_tail_pct": (t["wake_tail_pct"], "%"),
        "scrub.policy.useful_shard_ratio": (t["useful_shard_ratio"],
                                            "ratio"),
        "common.thread_pool.run_s_mt": (run_s_mt, "s"),
        "common.thread_pool.parallel_efficiency":
            (run_s / (threads * run_s_mt), "ratio"),
        "scrub.setup.policy_s": (t["policy_setup_s"], "s"),
        "pcm.setup.backend_s": (t["backend_setup_s"], "s"),
        "scrub.backend.total_s": (backend_s, "s"),
    }
    for name, op in ops.items():
        m[f"scrub.backend.{name}.calls"] = (op["calls"], "count")
        m[f"scrub.backend.{name}.s"] = (op["s"], "s")
    m["scrub.backend.light_detect.clean_ratio"] = (
        t["light_clean"] / light if light else 0.0, "ratio")
    m["scrub.backend.full_decode.ue_ratio"] = (
        t["decode_ue"] / decodes if decodes else 0.0, "ratio")
    m["faults.injected"] = (faults["injected"], "count")
    m["faults.dropped_injections"] = (faults["dropped_injections"], "count")
    for key in ("retries", "retry_resolved", "ecp_repaired",
                "ppr_remapped", "retired", "spares_remaining"):
        m[f"faults.ladder.{key}"] = (faults[key], "count")
    snap = t["snapshot"]
    m["snapshot.save_s"] = (snap["save_s"], "s")
    m["snapshot.load_s"] = (snap["load_s"], "s")
    m["snapshot.bytes"] = (snap["bytes"], "bytes")
    m["sim.lines_checked"] = (sim["lines_checked"], "count")
    m["sim.full_decodes"] = (sim["full_decodes"], "count")
    m["sim.scrub_rewrites"] = (sim["scrub_rewrites"], "count")
    m["sim.ue_total"] = (sim["ue_total"], "count")
    m["sim.energy_uj"] = (sim["energy_uj"], "uJ")
    m["trace.run_s"] = (t["run_s"], "s")
    m["trace.overhead_s"] = (statistics.median(t["overhead_s"]), "s")
    m["trace.accounted_ratio"] = (t["wake_s"] / t["run_s"], "ratio")
    return m


def report(workload, raw, metrics, threads):
    print(f"== {workload}  seed {raw['seed']}  threads 1 and {threads}  "
          f"reps {raw['reps']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    if "common.thread_pool.run_s_mt" not in metrics:
        print(f"  {'run_s_mt (reported with --trace 1)':<42} "
              f"{statistics.median(raw['run_s_mt']):>16.6g} s")
    if "e10_reference_ratios" in raw:
        # Informational: the simulator against its only reference,
        # the abstract's figures (full scale, 30 days).
        got = raw["e10_reference_ratios"]["hourly"]
        paper = RECORD_DATA["e10_reference"]["paper"]
        print("  E10 fidelity vs. hourly basic SECDED (seed "
              f"{raw['reference_seed']}): "
              + ", ".join(f"{k} {got[k]:.2f} (paper {v})"
                          for k, v in paper.items()))
    # Compared for equality only (every pass must reproduce it), so it
    # is printed here rather than reported as a metric.
    print(f"  sim.digest {raw['sim']['digest']}")
    if "traced" in raw:
        t = raw["traced"]
        backend = sum(op["s"] for op in t["ops"].values())
        print(f"  traced run_s {t['run_s']:.4f} s = policy self "
              f"{t['wake_s'] - backend:.4f} s + backend calls "
              f"{backend:.4f} s + loop {t['run_s'] - t['wake_s']:.4f} s")


def run_workload(workload, seed, seconds, trace):
    threads = len(os.sched_getaffinity(0))
    raw = run_binary(workload, seed, seconds, threads, trace)
    failed = raw["failed"]
    attempted = raw["attempted"]
    if "e10_reference_ratios" in raw:
        failed += check_e10(raw) != 0
        attempted += 1
    metrics = per_layer(raw, threads) if trace else end_to_end(raw)
    report(workload, raw, metrics, threads)
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()

    attempted = failed = 0
    metrics = {}
    for workload in (WORKLOADS if args.workload == "all"
                     else (args.workload,)):
        a, f, m = run_workload(workload, args.seed, args.seconds,
                               args.trace == 1)
        attempted += a
        failed += f
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
