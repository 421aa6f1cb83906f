/**
 * @file
 * Microbenchmarks (google-benchmark) for the computational kernels:
 * BCH encode / syndrome check / full decode, SECDED, the light
 * detector, and the analytic backend's per-visit cost. These bound
 * how large a simulated device the experiment harnesses can afford,
 * and stand in for the relative logic costs the energy model
 * encodes.
 *
 * Alongside the usual console output, every run writes its results
 * as machine-readable JSON (default BENCH_micro_codec.json; pass a
 * different path as the positional argument) so CI can archive the
 * kernel-cost trajectory.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_json.hh"

#include "common/random.hh"
#include "ecc/bch.hh"
#include "ecc/checksum.hh"
#include "ecc/interleaved.hh"
#include "ecc/secded.hh"
#include "pcm/drift_model.hh"
#include "scrub/analytic_backend.hh"

namespace pcmscrub {
namespace {

void
BM_BchEncode(benchmark::State &state)
{
    const BchCode code(512, static_cast<unsigned>(state.range(0)));
    Random rng(1);
    BitVector data(512);
    data.randomize(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.encode(data));
    }
}
BENCHMARK(BM_BchEncode)->Arg(1)->Arg(4)->Arg(8);

void
BM_BchCheckClean(benchmark::State &state)
{
    const BchCode code(512, static_cast<unsigned>(state.range(0)));
    Random rng(2);
    BitVector data(512);
    data.randomize(rng);
    const BitVector codeword = code.encode(data);
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.check(codeword));
    }
}
BENCHMARK(BM_BchCheckClean)->Arg(1)->Arg(4)->Arg(8);

void
BM_BchDecodeWithErrors(benchmark::State &state)
{
    const unsigned t = 8;
    const BchCode code(512, t);
    Random rng(3);
    BitVector data(512);
    data.randomize(rng);
    const BitVector clean = code.encode(data);
    const auto errors = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        BitVector corrupted = clean;
        for (unsigned e = 0; e < errors; ++e)
            corrupted.flip(rng.uniformInt(corrupted.size()));
        state.ResumeTiming();
        benchmark::DoNotOptimize(code.decode(corrupted));
    }
}
BENCHMARK(BM_BchDecodeWithErrors)->Arg(1)->Arg(4)->Arg(8);

void
BM_SecdedLineDecode(benchmark::State &state)
{
    const InterleavedCode code(std::make_unique<SecdedCode>(64), 8);
    Random rng(4);
    BitVector data(512);
    data.randomize(rng);
    BitVector codeword = code.encode(data);
    codeword.flip(100);
    for (auto _ : state) {
        BitVector copy = codeword;
        benchmark::DoNotOptimize(code.decode(copy));
    }
}
BENCHMARK(BM_SecdedLineDecode);

void
BM_LightDetector(benchmark::State &state)
{
    const LightDetector detector(592, 16, bitsPerCell);
    Random rng(5);
    BitVector data(592);
    data.randomize(rng);
    const BitVector word = detector.compute(data);
    for (auto _ : state) {
        benchmark::DoNotOptimize(detector.matches(data, word));
    }
}
BENCHMARK(BM_LightDetector);

void
BM_DriftCellErrorProb(benchmark::State &state)
{
    const DriftModel model{DeviceConfig{}};
    model.prewarm();
    double t = 100.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.cellErrorProb(t));
        t = t < 1e8 ? t * 1.001 : 100.0;
    }
}
BENCHMARK(BM_DriftCellErrorProb);

void
BM_AnalyticVisit(benchmark::State &state)
{
    AnalyticConfig config;
    config.lines = 4096;
    config.scheme = EccScheme::bch(8);
    config.demand.writesPerLinePerSecond = 1e-5;
    AnalyticBackend backend(config);
    Tick now = secondsToTicks(3600.0);
    LineIndex line = 0;
    for (auto _ : state) {
        if (!backend.eccCheckClean(line, now))
            benchmark::DoNotOptimize(backend.fullDecode(line, now));
        line = (line + 1) % config.lines;
        if (line == 0)
            now += secondsToTicks(3600.0);
    }
}
BENCHMARK(BM_AnalyticVisit);

/**
 * Console reporting as usual, plus a captured (name, time) record
 * per benchmark for the JSON artifact.
 */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            bench::JsonObject entry;
            entry.str("name", run.benchmark_name())
                .num("real_time_ns", run.GetAdjustedRealTime())
                .num("cpu_time_ns", run.GetAdjustedCPUTime())
                .u64("iterations",
                     static_cast<std::uint64_t>(run.iterations));
            captured_.pushRaw(entry.render());
        }
        ConsoleReporter::ReportRuns(runs);
    }

    const bench::JsonArray &captured() const { return captured_; }

  private:
    bench::JsonArray captured_;
};

} // namespace
} // namespace pcmscrub

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    // One optional positional operand: the JSON output path.
    std::string path = "BENCH_micro_codec.json";
    if (argc > 1)
        path = argv[1];

    pcmscrub::JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    pcmscrub::bench::JsonObject json;
    json.str("name", "micro_codec")
        .raw("benchmarks", reporter.captured().render());
    pcmscrub::bench::writeJsonFile(path, json);
    return 0;
}
