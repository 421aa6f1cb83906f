#!/usr/bin/env python3
"""Diff pcmscrub BENCH_*.json files against checked-in baselines.

Usage:
    bench_diff.py [--guard] BASELINE FRESH [BASELINE FRESH ...]

Prints a GitHub-flavoured markdown table of per-metric deltas for
each (baseline, fresh) pair.

Default mode is report-only (exit code 0 regardless of deltas):
shared CI runners are too noisy to gate on *time-domain* metrics, so
throughput drift is only made visible in the job summary.

--guard additionally enforces the *machine-independent* metrics —
bytes_per_line and peak_rss_bytes are deterministic functions of the
storage layout, not of runner load — and exits 1 when either
regresses by more than GUARD_THRESHOLD_PCT. lines_per_second (and
every other time-domain metric) stays report-only even under
--guard.

Understands the two pcmscrub micro-bench JSON shapes:
  - micro_codec:  {"benchmarks": [{"name", "cpu_time_ns", ...}]}
  - micro_scale:  {"points": [{"lines", "lines_per_second", ...}]}
    (also the pinned sweep points, BENCH_micro_sweep*.json)
and BENCH_experiments.json (tools/bench_experiments.py): per binary
and thread count, the median wall seconds against the baseline's,
flagged only when the medians differ by more than the two records'
interquartile ranges added together, plus whether the stdout digest
still matches. Those rows are report-only.
Metrics present on only one side are not compared, but the report
distinguishes *why* a baseline point is absent from the fresh run: a
point listed in the fresh document's "skipped_points" (micro_scale's
RSS-budget gate) is reported as deliberately skipped, anything else
as missing (e.g. a CI run pinned to a single --lines point against a
full-sweep baseline).
"""

import json
import os
import sys

# metric name -> True when larger is better
HIGHER_IS_BETTER = {
    "lines_per_second": True,
    "steady_lines_per_second": True,
    "warmup_lines_per_second": True,
    "decodes_per_second": True,
    "wall_seconds": False,
    "warmup_seconds": False,
    "bytes_per_line": False,
    "peak_rss_bytes": False,
}

# Metrics --guard enforces: deterministic storage-layout properties,
# immune to runner noise. The bare metric name is matched, so the
# per-point "lines=N/bytes_per_line" variants are guarded too.
GUARDED_METRICS = ("bytes_per_line", "peak_rss_bytes")

# A guarded metric may regress by at most this much before the guard
# trips. 5% absorbs allocator/alignment jitter in peak RSS while
# still catching any real layout regression (the smallest plane is
# ~3% of a line's footprint).
GUARD_THRESHOLD_PCT = 5.0


def flatten(doc):
    """Reduce one bench JSON document to {metric: (value, higher_is_better)}."""
    out = {}
    if "benchmarks" in doc:
        for bench in doc["benchmarks"]:
            out[bench["name"]] = (float(bench["cpu_time_ns"]), False)
        return out
    if "points" in doc:
        for point in doc["points"]:
            prefix = "lines=%d/" % int(point["lines"])
            for key, better in HIGHER_IS_BETTER.items():
                if key in point:
                    out[prefix + key] = (float(point[key]), better)
            # Baselines that predate the warm-up/steady throughput
            # split carry only warmup_seconds; derive the rate so
            # warm-up regressions are still visible against them.
            if ("warmup_lines_per_second" not in point
                    and float(point.get("warmup_seconds", 0)) > 0):
                out[prefix + "warmup_lines_per_second"] = (
                    float(point["lines"]) /
                    float(point["warmup_seconds"]),
                    HIGHER_IS_BETTER["warmup_lines_per_second"])
    return out


def skipped_prefixes(doc):
    """Point prefixes the run deliberately skipped (with reasons).

    micro_scale records RSS-gated points under "skipped_points"; the
    returned {"lines=N/": reason} map lets the diff tell a skipped
    point apart from a genuinely missing one.
    """
    out = {}
    for skip in doc.get("skipped_points", []):
        if not isinstance(skip, dict) or "lines" not in skip:
            continue
        out["lines=%d/" % int(skip["lines"])] = str(
            skip.get("reason", "skipped"))
    return out


def regression_pct(metric, base_value, fresh_value, higher_better):
    """Signed regression percentage: positive = worse, None = n/a."""
    if base_value == 0:
        return None
    pct = (fresh_value - base_value) / base_value * 100.0
    return -pct if higher_better else pct


def is_guarded(metric):
    """Whether --guard enforces this (possibly point-prefixed) metric."""
    return metric.rsplit("/", 1)[-1] in GUARDED_METRICS


def guard_violations(baseline, fresh, threshold_pct=GUARD_THRESHOLD_PCT):
    """Guarded metrics regressing past the threshold.

    Returns [(metric, regression_pct)] for every guarded metric
    present on both sides whose regression exceeds threshold_pct.
    Time-domain metrics and one-sided metrics never violate.
    """
    violations = []
    for metric, (base_value, higher_better) in baseline.items():
        if not is_guarded(metric) or metric not in fresh:
            continue
        worse = regression_pct(metric, base_value, fresh[metric][0],
                               higher_better)
        if worse is not None and worse > threshold_pct:
            violations.append((metric, worse))
    return violations


def fmt(value):
    if value >= 1000:
        return "%.0f" % value
    return "%.4g" % value


EXPERIMENTS_SCHEMA = "pcmscrub.bench_experiments.v1"


def iqr_width(run):
    """Width of one run's recorded IQR (0 for a single sample)."""
    low, high = run.get("seconds_iqr", [run["seconds"]] * 2)
    return high - low


def spread_verdict(base_run, fresh_run):
    """(delta %, verdict) of one binary at one thread count.

    The verdict is "faster" or "slower" only when the medians differ
    by more than the two IQR widths added, and "within spread"
    otherwise; delta is None when the baseline median is zero.
    """
    base = base_run["seconds"]
    fresh = fresh_run["seconds"]
    pct = (fresh - base) / base * 100.0 if base else None
    if abs(fresh - base) <= iqr_width(base_run) + iqr_width(fresh_run):
        return pct, "within spread"
    return pct, "faster" if fresh < base else "slower"


def fmt_run(run):
    text = "%.3f" % run["seconds"]
    if "seconds_iqr" in run:
        text += " (%.3f-%.3f)" % tuple(run["seconds_iqr"])
    return text


def diff_experiments(baseline_doc, fresh_doc, baseline_name):
    """Print the BENCH_experiments.json comparison table."""
    print("### experiments")
    print()
    print("| binary | threads | baseline s (`%s`, IQR) | fresh s (IQR) "
          "| delta | digest |" % baseline_name)
    print("|---|---|---|---|---|---|")
    baseline = {r["name"]: r for r in baseline_doc["binaries"]}
    missing = sorted(set(baseline) -
                     {r["name"] for r in fresh_doc["binaries"]})
    for record in fresh_doc["binaries"]:
        base = baseline.get(record["name"])
        if base is None:
            continue
        if base.get("digest") is None or record.get("digest") is None:
            digest = "n/a"
        else:
            digest = ("same" if base["digest"] == record["digest"]
                      else "DIFFERS")
        for threads, run in record["runs"].items():
            if threads not in base["runs"]:
                continue
            pct, verdict = spread_verdict(base["runs"][threads], run)
            if pct is None:
                delta = "n/a"
            else:
                mark = {"faster": " ✅", "slower": " 🔺"}.get(verdict, "")
                delta = "%+.1f%% %s%s" % (pct, verdict, mark)
            print("| %s | %s | %s | %s | %s | %s |" % (
                record["name"], threads, fmt_run(base["runs"][threads]),
                fmt_run(run), delta, digest))
    if missing:
        print()
        print("_missing from fresh run: %s_" % ", ".join(missing))
    print()


def diff(baseline_path, fresh_path, guard):
    with open(baseline_path) as fh:
        baseline_doc = json.load(fh)
    with open(fresh_path) as fh:
        fresh_doc = json.load(fh)
    if (baseline_doc.get("schema") == EXPERIMENTS_SCHEMA
            and fresh_doc.get("schema") == EXPERIMENTS_SCHEMA):
        diff_experiments(baseline_doc, fresh_doc,
                         os.path.basename(baseline_path))
        return []
    name = fresh_doc.get("name", os.path.basename(fresh_path))
    print("### %s" % name)
    print()
    print("| metric | baseline (`%s`) | fresh | delta |" %
          os.path.basename(baseline_path))
    print("|---|---|---|---|")
    baseline = flatten(baseline_doc)
    fresh = flatten(fresh_doc)
    fresh_skips = skipped_prefixes(fresh_doc)
    skipped = {}
    missing = []
    for metric, (base_value, higher_better) in baseline.items():
        if metric not in fresh:
            prefix = metric.split("/", 1)[0] + "/" if "/" in metric \
                else None
            if prefix in fresh_skips:
                skipped.setdefault(prefix, fresh_skips[prefix])
            else:
                missing.append(metric)
            continue
        fresh_value = fresh[metric][0]
        worse = regression_pct(metric, base_value, fresh_value,
                               higher_better)
        if worse is None:
            delta = "n/a"
        else:
            pct = (fresh_value - base_value) / base_value * 100.0
            improved = worse <= 0
            delta = "%+.1f%% %s" % (pct, "✅" if improved else "🔺")
        print("| %s | %s | %s | %s |" %
              (metric, fmt(base_value), fmt(fresh_value), delta))
    if skipped:
        print()
        print("_fresh run skipped: %s_" % ", ".join(
            "%s (%s)" % (prefix.rstrip("/"), reason)
            for prefix, reason in sorted(skipped.items())))
    if missing:
        print()
        print("_missing from fresh run: %s_" %
              ", ".join(sorted(missing)))
    no_baseline = [m for m in fresh if m not in baseline]
    if no_baseline:
        print()
        print("_no baseline for: %s_" % ", ".join(sorted(no_baseline)))
    print()
    return guard_violations(baseline, fresh) if guard else []


def main(argv):
    guard = False
    args = argv[1:]
    if args and args[0] == "--guard":
        guard = True
        args = args[1:]
    if len(args) < 2 or len(args) % 2 != 0:
        print(__doc__, file=sys.stderr)
        return 2
    violations = []
    for i in range(0, len(args), 2):
        if not os.path.exists(args[i]) or not os.path.exists(args[i + 1]):
            print("_skipping %s vs %s (file missing)_" %
                  (args[i], args[i + 1]))
            print()
            continue
        violations += diff(args[i], args[i + 1], guard)
    if violations:
        print("GUARD FAILED: storage-layout metric regression over "
              "%.1f%%:" % GUARD_THRESHOLD_PCT)
        for metric, worse in violations:
            print("  %s regressed by %.1f%%" % (metric, worse))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
