#!/usr/bin/env python3
"""End-to-end series of the paper's experiments.

Runs every bench/fig_* and bench/tab_* binary of a build at --threads 1
and at --threads N, and writes BENCH_experiments.json: per binary and
thread count, the wall seconds and the sha256 of stdout. The experiments
are seed-driven, so a binary's stdout is the same at every thread count
and from one build to the next unless its results changed; the digest
is the determinism cross-check. A binary whose stdout prints host
timings gets "digest": null and a reason instead.

With --repeat k each binary runs k times at each thread count,
alternating 1-thread and N-thread runs so host drift hits both alike;
"seconds" is then the median and "seconds_iqr" the [first, third]
quartile of the k samples, which are kept under "samples".

    python3 tools/bench_experiments.py --build build-release \\
        --out BENCH_experiments.json --repeat 3
    python3 tools/bench_experiments.py --build build-release \\
        --only tab_headline fig_sensitivity --baseline BENCH_experiments.json

Exits 1 if a binary fails, if its stdout differs between thread counts
or repeats, or (with --baseline) if a non-null digest differs from the
baseline document's.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import statistics
import sys
import tempfile
import time
from pathlib import Path

SCHEMA = "pcmscrub.bench_experiments.v1"

# Binaries whose stdout includes host wall-clock figures.
HOST_TIMED = {
    "fig_fleet_survival": "stdout prints host wall seconds (wall_s)",
}


def experiment_binaries(build):
    bench = build / "bench"
    names = sorted(p.name for p in bench.iterdir()
                   if p.name.startswith(("fig_", "tab_"))
                   and p.is_file() and os.access(p, os.X_OK))
    if not names:
        sys.exit(f"bench_experiments: no fig_*/tab_* binaries in {bench}")
    return [bench / name for name in names]


def run_once(binary, threads, timeout):
    """Wall seconds and stdout of one run, in a temporary directory (some
    experiments write side files next to themselves)."""
    with tempfile.TemporaryDirectory(prefix="bench_experiments_") as cwd:
        start = time.perf_counter()
        proc = subprocess.run([str(binary), "--threads", str(threads)],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, cwd=cwd,
                              timeout=timeout)
        seconds = time.perf_counter() - start
    return proc.returncode, seconds, proc.stdout


def summarize(samples):
    """Median and [first, third] quartile of one run's wall seconds
    (inclusive quartiles: a single sample is its own median and IQR)."""
    if len(samples) == 1:
        return samples[0], [samples[0], samples[0]]
    q1, median, q3 = statistics.quantiles(samples, n=4,
                                          method="inclusive")
    return median, [q1, q3]


def measure(binary, thread_counts, timeout, repeat=1, runner=run_once):
    """One record: seconds and digest per thread count, each thread
    count run `repeat` times in alternation with the others."""
    name = binary.name
    record = {"name": name, "runs": {}}
    problems = []
    digests = set()
    samples = {threads: [] for threads in thread_counts}
    first_digest = {}
    for _ in range(repeat):
        for threads in thread_counts:
            code, seconds, stdout = runner(binary, threads, timeout)
            digest = hashlib.sha256(stdout).hexdigest()
            first_digest.setdefault(threads, digest)
            digests.add(digest)
            samples[threads].append(seconds)
            if code != 0:
                problems.append(f"{name}: exit {code} at {threads} threads")
            print(f"  {name:28s} threads={threads:<3d} {seconds:8.2f} s",
                  file=sys.stderr, flush=True)
    for threads in thread_counts:
        median, iqr = summarize(samples[threads])
        run = {"seconds": round(median, 3)}
        if repeat > 1:
            run["seconds_iqr"] = [round(q, 3) for q in iqr]
            run["samples"] = [round(s, 3) for s in samples[threads]]
        if name not in HOST_TIMED:
            run["digest"] = first_digest[threads]
        record["runs"][str(threads)] = run
    if name in HOST_TIMED:
        record["digest"] = None
        record["digest_reason"] = HOST_TIMED[name]
    else:
        # The serial run's output is the reference.
        record["digest"] = record["runs"][str(thread_counts[0])]["digest"]
        if len(digests) != 1:
            problems.append(f"{name}: stdout differs between thread "
                            f"counts {thread_counts} or repeats")
    return record, problems


def compare(baseline_doc, records):
    """Parent -> change table on stderr; digest mismatches as problems."""
    baseline = {r["name"]: r for r in baseline_doc["binaries"]}
    problems = []
    print(f"\n{'binary':28s} {'threads':>7s} {'base s':>9s} "
          f"{'new s':>9s} {'delta':>8s}  digest", file=sys.stderr)
    for record in records:
        base = baseline.get(record["name"])
        if base is None:
            continue
        if base["digest"] is None or record["digest"] is None:
            verdict = "n/a"
        elif base["digest"] == record["digest"]:
            verdict = "same"
        else:
            verdict = "DIFFERS"
            problems.append(f"{record['name']}: digest differs from "
                            "the baseline")
        for threads, run in record["runs"].items():
            if threads not in base["runs"]:
                continue
            old = base["runs"][threads]["seconds"]
            new = run["seconds"]
            spread = ""
            if "seconds_iqr" in run:
                spread = "  new IQR {:.2f}-{:.2f}".format(*run["seconds_iqr"])
            print(f"{record['name']:28s} {threads:>7s} {old:9.2f} "
                  f"{new:9.2f} {100.0 * (new - old) / old:+7.1f}%  "
                  f"{verdict}{spread}", file=sys.stderr)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", default="build", type=Path,
                        help="build tree holding bench/ (default: build)")
    parser.add_argument("--threads", type=int,
                        default=len(os.sched_getaffinity(0)),
                        help="N for the N-thread run (default: usable "
                             "CPUs)")
    parser.add_argument("--out", default="BENCH_experiments.json",
                        type=Path, help="JSON document to write")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only these binaries")
    parser.add_argument("--baseline", type=Path,
                        help="compare against this BENCH_experiments.json")
    parser.add_argument("--timeout", type=float, default=1800.0,
                        help="per-run timeout in seconds")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="runs per binary and thread count; seconds "
                             "are the median (default: 1)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    # Read the baseline first: --out may overwrite the same file.
    baseline = (json.loads(args.baseline.read_text())
                if args.baseline else None)
    args.build = args.build.resolve()
    binaries = experiment_binaries(args.build)
    if args.only:
        unknown = set(args.only) - {b.name for b in binaries}
        if unknown:
            sys.exit(f"bench_experiments: unknown binaries {sorted(unknown)}")
        binaries = [b for b in binaries if b.name in args.only]
    thread_counts = [1] if args.threads == 1 else [1, args.threads]

    records = []
    problems = []
    for binary in binaries:
        record, found = measure(binary, thread_counts, args.timeout,
                                args.repeat)
        records.append(record)
        problems += found

    totals = {str(t): round(sum(r["runs"][str(t)]["seconds"]
                                for r in records), 3)
              for t in thread_counts}
    cache = args.build / "CMakeCache.txt"
    build_type = None
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1] or None
    doc = {
        "schema": SCHEMA,
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine()},
        "build_type": build_type,
        "thread_counts": thread_counts,
        "repeat": args.repeat,
        "total_seconds": totals,
        "binaries": records,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}: {len(records)} binaries, total seconds "
          f"{totals}", file=sys.stderr)

    if baseline:
        problems += compare(baseline, records)
    for problem in problems:
        print(f"bench_experiments: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
