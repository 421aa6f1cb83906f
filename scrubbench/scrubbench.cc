/**
 * @file
 * End-to-end benchmark of the pcmscrub simulator: one workload per
 * process, timed in host seconds at 1 and N threads.
 *
 *   scrubbench --workload NAME --seed N --threads N --seconds S
 *              [--reference-seed N] [--trace-out FILE]
 *
 * Workloads (sizes and rationale in workloads.json, next to this
 * file):
 *  - e10_headline: the paper's E10 table (bench/tab_headline) on the
 *    analytic backend over a shortened horizon;
 *  - cell_clean_sweep: a mostly clean cell-accurate array, larger
 *    than L3, swept by light-detect scrub;
 *  - cell_fault_storm: a smaller cell array under a read-corrupting
 *    fault campaign with the degradation ladder armed.
 *
 * Untraced passes alternate 1 thread and N threads until --seconds
 * is spent (at least kMinReps of each); run.py reports the medians.
 * With --trace-out, a traced pass at 1 thread, a snapshot round trip,
 * a traced pass at N threads and a few untraced/traced pass pairs
 * (the tracer's own cost) follow; every call into the backend is
 * timed by TracedBackend, every wake by TracedPolicy, and the spans
 * of the first traced pass go to FILE. Every pass must reproduce the
 * first pass's metrics digest. The last line of stdout is one JSON
 * object with every figure.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "bench_util.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"
#include "faults/fault_injector.hh"
#include "scrub/cell_backend.hh"
#include "scrub/policy.hh"
#include "traced_backend.hh"

using namespace pcmscrub;
using namespace scrubbench;

namespace {

using Clock = std::chrono::steady_clock;

/** Fewest untraced passes per thread count, whatever --seconds says. */
constexpr unsigned kMinReps = 3;

/** Untraced/traced pass pairs timing the tracer's own cost. */
constexpr unsigned kOverheadPairs = 3;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

// Workloads ---------------------------------------------------------------

/** One backend + policy pair of a workload. */
struct UnitSpec
{
    std::string label;
    std::function<std::unique_ptr<ScrubBackend>()> makeBackend;
    std::optional<FaultCampaignConfig> campaign;
    PolicySpec policy;
    Tick horizon = 0;
    bool sweep = false; //!< Every wake visits every line.
};

struct WorkloadSpec
{
    std::string name;
    std::vector<UnitSpec> units;
    bool expectNoUe = false;
    bool e10 = false; //!< Units are tab_headline's daily, hourly, combined.
};

/** E10 horizon, shortened from tab_headline's 30 days. */
constexpr Tick kE10Horizon = 1 * bench::kDay;
constexpr std::uint64_t kE10Lines = 4096;

constexpr Tick kSweepInterval = 5 * bench::kMinute;
constexpr std::uint64_t kCleanLines = 262144;
constexpr unsigned kCleanSweeps = 3;
constexpr std::uint64_t kStormLines = 65536;
constexpr unsigned kStormSweeps = 4;

UnitSpec
analyticUnit(const char *label, EccScheme scheme, std::uint64_t seed,
             const PolicySpec &policy, bool sweep)
{
    UnitSpec unit;
    unit.label = label;
    unit.makeBackend = [scheme, seed]() -> std::unique_ptr<ScrubBackend> {
        return std::make_unique<AnalyticBackend>(
            bench::standardConfig(scheme, kE10Lines, seed));
    };
    unit.policy = policy;
    unit.horizon = kE10Horizon;
    unit.sweep = sweep;
    return unit;
}

UnitSpec
cellUnit(const char *label, const CellBackendConfig &config,
         unsigned sweeps)
{
    UnitSpec unit;
    unit.label = label;
    unit.makeBackend = [config]() -> std::unique_ptr<ScrubBackend> {
        return std::make_unique<CellBackend>(config);
    };
    unit.policy.kind = PolicyKind::LightDetect;
    unit.policy.interval = kSweepInterval;
    unit.horizon = kSweepInterval * sweeps;
    unit.sweep = true;
    return unit;
}

WorkloadSpec
makeWorkload(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec w;
    w.name = name;
    if (name == "e10_headline") {
        // The three runs of bench/tab_headline.cc, in its order.
        PolicySpec daily = bench::baselineSpec();
        daily.interval = bench::kDay;
        w.units = {
            analyticUnit("basic/secded/1day", EccScheme::secdedX8(), seed,
                         daily, true),
            analyticUnit("basic/secded/1h", EccScheme::secdedX8(), seed,
                         bench::baselineSpec(), true),
            analyticUnit("combined/bch8", EccScheme::bch(8), seed,
                         bench::combinedSpec(), false),
        };
        w.e10 = true;
    } else if (name == "cell_clean_sweep") {
        CellBackendConfig config;
        config.lines = kCleanLines;
        config.scheme = EccScheme::bch(8);
        config.seed = seed;
        w.units.push_back(cellUnit("clean/bch8", config, kCleanSweeps));
        w.expectNoUe = true;
    } else if (name == "cell_fault_storm") {
        CellBackendConfig config;
        config.lines = kStormLines;
        config.scheme = EccScheme::bch(8);
        config.ecpEntries = 4;
        config.seed = seed;
        config.degradation.enabled = true;
        config.degradation.maxRetries = 2;
        config.degradation.pprSpareRows = kStormLines / 512;
        config.degradation.spareLines = kStormLines / 128;
        UnitSpec unit = cellUnit("storm/bch8", config, kStormSweeps);
        FaultCampaignConfig campaign;
        campaign.stuckPerWrite = 0.05;
        campaign.wearCorrelation = 4.0;
        campaign.disturbFlipsPerRead = 0.2;
        campaign.burstProbPerRead = 0.01;
        campaign.burstBits = 12; // wider than BCH-8 corrects
        campaign.seed = seed * 31 + 5;
        unit.campaign = campaign;
        w.units.push_back(unit);
    } else {
        std::fprintf(stderr, "scrubbench: unknown workload '%s'\n",
                     name.c_str());
        std::exit(2);
    }
    return w;
}

// Passes ------------------------------------------------------------------

/** A built unit: backend, its fault injector, and the policy. */
struct Unit
{
    std::unique_ptr<ScrubBackend> backend;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<ScrubPolicy> policy;
};

Unit
buildBackend(const UnitSpec &spec)
{
    Unit unit;
    unit.backend = spec.makeBackend();
    if (spec.campaign) {
        unit.injector = std::make_unique<FaultInjector>(*spec.campaign);
        unit.backend->setFaultInjector(unit.injector.get());
    }
    return unit;
}

/** Digest of every unit's full ScrubMetrics and injector stats. */
std::uint64_t
digestOf(const std::vector<Unit> &units)
{
    Fingerprint digest;
    for (const Unit &unit : units) {
        SnapshotSink sink;
        unit.backend->metrics().saveState(sink);
        if (unit.injector) {
            const FaultInjectorStats s = unit.injector->stats();
            for (const std::uint64_t v :
                 {s.stuckCellsInjected, s.transientFlips, s.bursts,
                  s.miscorrections, s.metadataCorruptions,
                  s.droppedInjections})
                sink.u64(v);
        }
        digest.str(std::string(sink.bytes().begin(), sink.bytes().end()));
    }
    return digest.value();
}

/** Outcome of one pass (set-up + run of every unit). */
struct Pass
{
    double setupS = 0.0;
    double backendSetupS = 0.0;
    double policySetupS = 0.0;
    double runS = 0.0;
    std::uint64_t digest = 0;
    std::vector<std::uint64_t> wakes;
    std::vector<std::uint64_t> lines;
    std::vector<ScrubMetrics> metrics;
    FaultInjectorStats faults;
};

/** One wake of a traced pass; its children are the per-op totals. */
struct WakeSpan
{
    std::size_t unit;
    Tick tick;
    std::uint64_t startNs;
    std::uint64_t endNs;
    std::size_t shardsTouched;
    std::size_t shards;
    CallTally calls;
};

/** Set-up, run and snapshot spans of a traced pass. */
struct NamedSpan
{
    std::string name;
    std::size_t unit;
    std::uint64_t startNs;
    std::uint64_t endNs;
};

/** In-memory spans of a traced pass, written out when it ends. */
struct Trace
{
    Clock::time_point origin = Clock::now();
    std::vector<NamedSpan> spans;
    std::vector<WakeSpan> wakes;
    CallTally calls; //!< Every backend call of the pass.

    std::uint64_t ns(Clock::time_point t) const
    {
        return nsBetween(origin, t);
    }

    void span(const char *name, std::size_t unit, Clock::time_point from,
              Clock::time_point to)
    {
        spans.push_back({name, unit, ns(from), ns(to)});
    }
};

/**
 * Pass-through ScrubPolicy that times each wake() and closes one wake
 * span with the calls the wake made into its TracedBackend. runScrub()
 * drives it exactly as it drives the bare policy.
 */
class TracedPolicy : public ScrubPolicy
{
  public:
    TracedPolicy(ScrubPolicy &inner, TracedBackend &backend,
                 std::size_t unit, Trace &trace)
        : inner_(inner), backend_(backend), unit_(unit), trace_(trace),
          shards_(backend.shardPlan().count())
    {
    }

    std::string name() const override { return inner_.name(); }
    Tick nextWake() const override { return inner_.nextWake(); }

    void wake(ScrubBackend &backend, Tick now) override
    {
        const auto t0 = Clock::now();
        inner_.wake(backend, now);
        const auto t1 = Clock::now();
        const CallTally after = backend_.total();
        trace_.wakes.push_back({unit_, now, trace_.ns(t0), trace_.ns(t1),
                                backend_.shardsTouchedSinceLastCall(),
                                shards_, after.since(before_)});
        before_ = after;
    }

    void checkpointSave(SnapshotSink &sink) const override
    {
        inner_.checkpointSave(sink);
    }
    void checkpointLoad(SnapshotSource &source) override
    {
        inner_.checkpointLoad(source);
    }

  private:
    ScrubPolicy &inner_;
    TracedBackend &backend_;
    std::size_t unit_;
    Trace &trace_;
    std::size_t shards_;
    CallTally before_;
};

/**
 * Set up every unit, then run each to its horizon. With `trace`,
 * each backend is driven through a TracedBackend. With `keep`, the
 * built units outlive the pass.
 */
Pass
runPass(const WorkloadSpec &w, unsigned threads, Trace *trace,
        std::vector<Unit> *keep = nullptr)
{
    ThreadPool::global().resize(threads);
    Pass pass;
    std::vector<Unit> units;
    units.reserve(w.units.size());

    const auto setupStart = Clock::now();
    for (std::size_t i = 0; i < w.units.size(); ++i) {
        const auto t0 = Clock::now();
        units.push_back(buildBackend(w.units[i]));
        const auto t1 = Clock::now();
        units.back().policy =
            makePolicy(w.units[i].policy, *units.back().backend);
        const auto t2 = Clock::now();
        pass.backendSetupS += nsBetween(t0, t1) * 1e-9;
        pass.policySetupS += nsBetween(t1, t2) * 1e-9;
        if (trace != nullptr) {
            trace->span("setup.backend", i, t0, t1);
            trace->span("setup.policy", i, t1, t2);
        }
    }
    pass.setupS = secondsSince(setupStart);

    const auto runStart = Clock::now();
    for (std::size_t i = 0; i < units.size(); ++i) {
        ScrubPolicy &policy = *units[i].policy;
        const Tick horizon = w.units[i].horizon;
        if (trace == nullptr) {
            pass.wakes.push_back(
                runScrub(*units[i].backend, policy, horizon));
            continue;
        }
        const auto t0 = Clock::now();
        TracedBackend backend(*units[i].backend);
        TracedPolicy traced(policy, backend, i, *trace);
        pass.wakes.push_back(runScrub(backend, traced, horizon));
        trace->span("run", i, t0, Clock::now());
        trace->calls.add(backend.total());
    }
    pass.runS = secondsSince(runStart);

    pass.digest = digestOf(units);
    for (const Unit &unit : units) {
        pass.lines.push_back(unit.backend->lineCount());
        pass.metrics.push_back(unit.backend->metrics());
        if (unit.injector)
            pass.faults = unit.injector->stats();
    }
    if (keep != nullptr)
        *keep = std::move(units);
    return pass;
}

/** The abstract's three ratios, combined mechanism vs. a baseline. */
struct E10Ratios
{
    double ueReductionPct;
    double writeReductionX;
    double energyReductionPct;
};

/** Computed as bench/tab_headline.cc and golden_headline_test do. */
E10Ratios
e10Ratios(const ScrubMetrics &base, const ScrubMetrics &combined)
{
    return {100.0 * (1.0 - combined.totalUncorrectable() /
                               std::max(base.totalUncorrectable(), 1e-9)),
            static_cast<double>(base.scrubRewrites) /
                std::max<double>(combined.scrubRewrites, 1.0),
            100.0 * (1.0 - combined.energy.total() / base.energy.total())};
}

/** Whether one pass fails an output check; says why on stderr. */
bool
passFails(const WorkloadSpec &w, const Pass &pass, std::uint64_t digest,
          const char *what)
{
    bool failed = false;
    auto fail = [&](const std::string &why) {
        std::fprintf(stderr, "scrubbench: %s pass: %s\n", what,
                     why.c_str());
        failed = true;
    };
    if (pass.digest != digest)
        fail("metrics digest differs from the first 1-thread pass");
    for (std::size_t i = 0; i < w.units.size(); ++i) {
        const ScrubMetrics &m = pass.metrics[i];
        if (w.units[i].sweep &&
            (pass.wakes[i] == 0 ||
             m.linesChecked != pass.lines[i] * pass.wakes[i]))
            fail(w.units[i].label + ": lines_checked != lines x wakes");
        if (w.expectNoUe && m.totalUncorrectable() != 0.0)
            fail(w.units[i].label + ": clean sweep surfaced a UE");
    }
    if (w.e10) {
        // The abstract's qualitative claims against the hourly
        // baseline, with golden_headline_test's thresholds.
        const E10Ratios r = e10Ratios(pass.metrics[1], pass.metrics[2]);
        if (!(r.ueReductionPct > 90.0 && r.writeReductionX > 10.0 &&
              r.energyReductionPct > 20.0))
            fail("E10 ratios lost the paper's qualitative claims");
    }
    return failed;
}

void
printE10Ratios(const char *key, const Pass &pass)
{
    const char *baselines[2] = {"daily", "hourly"};
    std::printf("\"%s\":{", key);
    for (std::size_t b = 0; b < 2; ++b) {
        const E10Ratios r = e10Ratios(pass.metrics[b], pass.metrics[2]);
        std::printf("%s\"%s\":{\"ue_reduction_pct\":%.6f,"
                    "\"write_reduction_x\":%.6f,"
                    "\"energy_reduction_pct\":%.6f}",
                    b == 0 ? "" : ",", baselines[b], r.ueReductionPct,
                    r.writeReductionX, r.energyReductionPct);
    }
    std::printf("},");
}

void
printSeries(const char *key, const std::vector<double> &values)
{
    std::printf("\"%s\":[", key);
    for (std::size_t i = 0; i < values.size(); ++i)
        std::printf("%s%.9f", i == 0 ? "" : ",", values[i]);
    std::printf("],");
}

/** Highest percentile with at least ten samples beyond it. */
double
tailPercentile(std::size_t samples)
{
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (static_cast<double>(samples) * (1.0 - pct / 100.0) >= 10.0)
            return pct;
    }
    return 50.0;
}

/** Nearest-rank percentile of sorted samples. */
double
percentile(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t index = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(pct / 100.0 *
                                 static_cast<double>(sorted.size())));
    return sorted[index];
}

/** One JSON line per span; wakes name their unit's run as parent. */
void
writeSpans(const std::string &path, const WorkloadSpec &w,
           const Trace &trace)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "scrubbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::vector<std::size_t> runSpan(w.units.size(), 0);
    for (std::size_t id = 0; id < trace.spans.size(); ++id) {
        const NamedSpan &span = trace.spans[id];
        if (span.name == "run")
            runSpan[span.unit] = id;
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"unit\":\"%s\","
                     "\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64 "}\n",
                     id, span.name.c_str(),
                     w.units[span.unit].label.c_str(), span.startNs,
                     span.endNs);
    }
    std::size_t id = trace.spans.size();
    for (const WakeSpan &wake : trace.wakes) {
        std::fprintf(out,
                     "{\"id\":%zu,\"parent\":%zu,\"name\":\"wake\","
                     "\"tick\":%" PRIu64 ",\"start_ns\":%" PRIu64
                     ",\"end_ns\":%" PRIu64
                     ",\"shards_touched\":%zu,\"shards\":%zu,\"ops\":{",
                     id++, runSpan[wake.unit],
                     static_cast<std::uint64_t>(wake.tick), wake.startNs,
                     wake.endNs, wake.shardsTouched, wake.shards);
        const char *sep = "";
        for (std::size_t op = 0; op < kOps; ++op) {
            if (wake.calls.ops[op].calls == 0)
                continue;
            std::fprintf(out,
                         "%s\"%s\":{\"calls\":%" PRIu64 ",\"ns\":%" PRIu64
                         "}",
                         sep, kOpNames[op], wake.calls.ops[op].calls,
                         wake.calls.ops[op].ns);
            sep = ",";
        }
        std::fprintf(out, "}}\n");
    }
    std::fclose(out);
}

struct SnapshotFigures
{
    double saveS = 0.0;
    double loadS = 0.0;
    std::uint64_t bytes = 0;
    bool identical = true;
};

/**
 * Save each unit's final state in memory (no file, no fsync), load
 * it into a freshly built unit, save that again and compare bytes.
 * Consumes `units` so the originals are freed before the rebuild.
 */
SnapshotFigures
snapshotRoundTrip(const WorkloadSpec &w, std::vector<Unit> units,
                  unsigned threads, Trace &trace)
{
    SnapshotFigures fig;
    std::vector<std::vector<std::uint8_t>> saved;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const auto t0 = Clock::now();
        SnapshotSink sink;
        units[i].backend->checkpointSave(sink);
        units[i].policy->checkpointSave(sink);
        const auto t1 = Clock::now();
        trace.span("snapshot.save", i, t0, t1);
        fig.saveS += nsBetween(t0, t1) * 1e-9;
        fig.bytes += sink.bytes().size();
        saved.push_back(sink.takeBytes());
    }
    units.clear();

    for (std::size_t i = 0; i < saved.size(); ++i) {
        // Rebuilding is set-up, not snapshot cost; it runs on every
        // thread (its result does not depend on the thread count).
        ThreadPool::global().resize(threads);
        Unit fresh = buildBackend(w.units[i]);
        fresh.policy = makePolicy(w.units[i].policy, *fresh.backend);
        ThreadPool::global().resize(1);

        const auto t0 = Clock::now();
        SnapshotSource source(saved[i].data(), saved[i].size(),
                              "scrubbench round trip");
        fresh.backend->checkpointLoad(source);
        fresh.policy->checkpointLoad(source);
        source.finish();
        const auto t1 = Clock::now();
        trace.span("snapshot.load", i, t0, t1);
        fig.loadS += nsBetween(t0, t1) * 1e-9;

        SnapshotSink again;
        fresh.backend->checkpointSave(again);
        fresh.policy->checkpointSave(again);
        if (again.bytes() != saved[i])
            fig.identical = false;
    }
    return fig;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned threads = 0;
    double seconds = 10.0;
    std::string traceOut;
    std::uint64_t referenceSeed = 1;
};

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            opt.workload = value;
        else if (key == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--threads")
            opt.threads = static_cast<unsigned>(std::atoi(value));
        else if (key == "--seconds")
            opt.seconds = std::atof(value);
        else if (key == "--trace-out")
            opt.traceOut = value;
        else if (key == "--reference-seed")
            opt.referenceSeed = std::strtoull(value, nullptr, 10);
        else {
            std::fprintf(stderr, "scrubbench: unknown option %s\n",
                         key.c_str());
            std::exit(2);
        }
    }
    if (opt.workload.empty() || opt.threads == 0 || argc % 2 == 0) {
        std::fprintf(stderr,
                     "usage: scrubbench --workload NAME --seed N "
                     "--threads N --seconds S [--reference-seed N] "
                     "[--trace-out FILE]\n");
        std::exit(2);
    }
    return opt;
}

/** Traced passes, snapshot round trip, and their JSON fields. */
void
traceWorkload(const WorkloadSpec &w, const Options &opt,
              std::uint64_t digest, unsigned &attempted, unsigned &failed)
{
    Trace trace;
    std::vector<Unit> units;
    const Pass one = runPass(w, 1, &trace, &units);
    ++attempted;
    failed += passFails(w, one, digest, "traced 1-thread");

    const SnapshotFigures snap =
        snapshotRoundTrip(w, std::move(units), opt.threads, trace);
    ++attempted;
    if (!snap.identical) {
        std::fprintf(stderr, "scrubbench: snapshot round trip differs\n");
        ++failed;
    }

    // The N-thread pass measures dispatch (shards given work per
    // wake) and checks the tracer itself under concurrency.
    Trace traceMt;
    const Pass many = runPass(w, opt.threads, &traceMt);
    ++attempted;
    failed += passFails(w, many, digest, "traced N-thread");
    double touched = 0.0, dispatched = 0.0;
    for (const WakeSpan &wake : traceMt.wakes) {
        touched += static_cast<double>(wake.shardsTouched);
        dispatched += static_cast<double>(wake.shards);
    }

    // The tracer's cost: traced minus untraced 1-thread run time,
    // each pair taken back to back so a slow spell of the host hits
    // both halves; run.py reports the median difference.
    std::vector<double> overhead;
    for (unsigned k = 0; k < kOverheadPairs; ++k) {
        const Pass bare = runPass(w, 1, nullptr);
        Trace scratch;
        const Pass traced = runPass(w, 1, &scratch);
        attempted += 2;
        failed += passFails(w, bare, digest, "overhead untraced");
        failed += passFails(w, traced, digest, "overhead traced");
        overhead.push_back(traced.runS - bare.runS);
    }

    writeSpans(opt.traceOut, w, trace);

    double wakeS = 0.0;
    std::vector<double> wakeUs;
    for (const WakeSpan &wake : trace.wakes) {
        wakeUs.push_back((wake.endNs - wake.startNs) * 1e-3);
        wakeS += (wake.endNs - wake.startNs) * 1e-9;
    }
    std::sort(wakeUs.begin(), wakeUs.end());
    const double tailPct = tailPercentile(wakeUs.size());
    const CallTally &calls = trace.calls;
    std::printf("\"traced\":{\"setup_s\":%.9f,\"run_s\":%.9f,"
                "\"backend_setup_s\":%.9f,\"policy_setup_s\":%.9f,"
                "\"wakes\":%zu,\"wake_s\":%.9f,"
                "\"wake_p50_us\":%.6f,\"wake_tail_pct\":%.1f,"
                "\"wake_tail_us\":%.6f,\"useful_shard_ratio\":%.9f,"
                "\"light_clean\":%" PRIu64 ",\"decode_ue\":%" PRIu64
                ",\"ops\":{",
                one.setupS, one.runS, one.backendSetupS, one.policySetupS,
                wakeUs.size(), wakeS, percentile(wakeUs, 50.0), tailPct,
                percentile(wakeUs, tailPct),
                dispatched > 0.0 ? touched / dispatched : 0.0,
                calls.lightClean, calls.decodeUe);
    for (std::size_t op = 0; op < kOps; ++op)
        std::printf("%s\"%s\":{\"calls\":%" PRIu64 ",\"s\":%.9f}",
                    op == 0 ? "" : ",", kOpNames[op], calls.ops[op].calls,
                    calls.ops[op].ns * 1e-9);
    // Ladder counters of the last unit (the storm's only unit).
    const ScrubMetrics &m = one.metrics.back();
    const FaultInjectorStats &f = one.faults;
    std::printf("},\"faults\":{\"injected\":%" PRIu64
                ",\"dropped_injections\":%" PRIu64 ",\"retries\":%" PRIu64
                ",\"retry_resolved\":%" PRIu64 ",\"ecp_repaired\":%" PRIu64
                ",\"ppr_remapped\":%" PRIu64 ",\"retired\":%" PRIu64
                ",\"spares_remaining\":%" PRIu64 "},",
                f.stuckCellsInjected + f.transientFlips + f.bursts +
                    f.miscorrections + f.metadataCorruptions,
                f.droppedInjections, m.ueRetries, m.ueRetryResolved,
                m.ueEcpRepaired, m.uePprRemapped, m.ueRetired,
                m.sparesRemaining);
    printSeries("overhead_s", overhead);
    std::printf("\"snapshot\":{\"save_s\":%.9f,\"load_s\":%.9f,"
                "\"bytes\":%" PRIu64 "}},",
                snap.saveS, snap.loadS, snap.bytes);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const WorkloadSpec w = makeWorkload(opt.workload, opt.seed);
    const auto start = Clock::now();

    // Untraced passes: alternate 1 and N threads until the time
    // budget is spent, never fewer than kMinReps each.
    std::vector<double> setup1, run1, setupN, runN;
    unsigned attempted = 0;
    unsigned failed = 0;
    Pass first;
    double repSeconds = 0.0;
    while (setup1.size() < kMinReps ||
           secondsSince(start) + repSeconds <= opt.seconds) {
        const auto repStart = Clock::now();
        const Pass one = runPass(w, 1, nullptr);
        if (setup1.empty())
            first = one;
        ++attempted;
        failed += passFails(w, one, first.digest, "1-thread");
        const Pass many = runPass(w, opt.threads, nullptr);
        ++attempted;
        failed += passFails(w, many, first.digest, "N-thread");
        setup1.push_back(one.setupS);
        run1.push_back(one.runS);
        setupN.push_back(many.setupS);
        runN.push_back(many.runS);
        repSeconds = secondsSince(repStart);
    }

    std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"threads\":%u,\"reps\":%zu,",
                w.name.c_str(), opt.seed, opt.threads, setup1.size());
    printSeries("setup_s", setup1);
    printSeries("run_s", run1);
    printSeries("setup_s_mt", setupN);
    printSeries("run_s_mt", runN);
    std::printf("\"peak_rss_mib\":%.3f,",
                static_cast<double>(bench::peakRssBytes()) /
                    (1024.0 * 1024.0));

    double ueTotal = 0.0, energyPj = 0.0;
    std::uint64_t checked = 0, decodes = 0, rewrites = 0;
    for (const ScrubMetrics &m : first.metrics) {
        checked += m.linesChecked;
        decodes += m.fullDecodes;
        rewrites += m.scrubRewrites;
        ueTotal += m.totalUncorrectable();
        energyPj += m.energy.total();
    }
    std::printf("\"sim\":{\"lines_checked\":%" PRIu64
                ",\"full_decodes\":%" PRIu64 ",\"scrub_rewrites\":%" PRIu64
                ",\"ue_total\":%.6f,\"energy_uj\":%.6f,"
                "\"digest\":\"%016" PRIx64 "\"},",
                checked, decodes, rewrites, ueTotal, energyPj * 1e-6,
                first.digest);

    if (w.e10) {
        // The ratios vary with the seed; the reference pass pins them
        // against values recorded for one fixed seed.
        const WorkloadSpec ref = makeWorkload(w.name, opt.referenceSeed);
        const Pass refPass = runPass(ref, 1, nullptr);
        ++attempted;
        failed += passFails(ref, refPass, refPass.digest, "reference");
        std::printf("\"reference_seed\":%" PRIu64 ",", opt.referenceSeed);
        printE10Ratios("e10_reference_ratios", refPass);
    }

    if (!opt.traceOut.empty())
        traceWorkload(w, opt, first.digest, attempted, failed);

    std::printf("\"attempted\":%u,\"failed\":%u}\n", attempted, failed);
    return 0;
}
