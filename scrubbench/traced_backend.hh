/**
 * @file
 * Outside-in tracer for the benchmark: a pass-through ScrubBackend
 * that times every call a scrub policy makes into the backend.
 *
 * Modelled on scrub/recording_backend.hh, but it forwards *every*
 * virtual — shardPlan() included, so a policy dispatches exactly as
 * it does against the bare backend — and it never changes results:
 * the traced run's metrics digest must equal the untraced one.
 *
 * Calls are tallied into one slot per backend shard. Policies only
 * issue concurrent calls on different shards, so each slot has a
 * single writer at a time and no counter is shared across workers.
 * The benchmark's TracedPolicy reads the slots after each wake (once
 * the pool has joined) to close one span per wake, with per-op totals
 * as child aggregates rather than one span per line visit.
 */

#ifndef SCRUBBENCH_TRACED_BACKEND_HH
#define SCRUBBENCH_TRACED_BACKEND_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "scrub/backend.hh"

namespace scrubbench {

using pcmscrub::LineIndex;
using pcmscrub::Tick;

/** Backend entry points the tracer times. */
enum class Op : unsigned {
    LastFullWrite,
    LightDetect,
    EccCheck,
    FullDecode,
    MarginScan,
    Rewrite,
    Repair,
    NoteVisit,
};

constexpr std::size_t kOps = 8;

/** Metric-name stem of each op, indexed by Op. */
constexpr std::array<const char *, kOps> kOpNames = {
    "last_full_write", "light_detect", "ecc_check", "full_decode",
    "margin_scan",     "rewrite",      "repair",    "note_visit",
};

/** Calls into one op and the host time they took. */
struct OpTally
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/** Everything the tracer counts; one per shard, summed on read. */
struct CallTally
{
    std::array<OpTally, kOps> ops{};
    std::uint64_t lightClean = 0; //!< Light detects reporting clean.
    std::uint64_t decodeUe = 0;   //!< Full decodes the ECC failed.

    std::uint64_t calls() const
    {
        std::uint64_t sum = 0;
        for (const OpTally &op : ops)
            sum += op.calls;
        return sum;
    }

    /** What was counted after `earlier`, a previous total. */
    CallTally since(const CallTally &earlier) const
    {
        CallTally delta = *this;
        for (std::size_t i = 0; i < kOps; ++i) {
            delta.ops[i].calls -= earlier.ops[i].calls;
            delta.ops[i].ns -= earlier.ops[i].ns;
        }
        delta.lightClean -= earlier.lightClean;
        delta.decodeUe -= earlier.decodeUe;
        return delta;
    }

    void add(const CallTally &other)
    {
        for (std::size_t i = 0; i < kOps; ++i) {
            ops[i].calls += other.ops[i].calls;
            ops[i].ns += other.ops[i].ns;
        }
        lightClean += other.lightClean;
        decodeUe += other.decodeUe;
    }
};

/**
 * Pass-through ScrubBackend timing each call into per-shard slots.
 */
class TracedBackend : public pcmscrub::ScrubBackend
{
  public:
    /** Wrap an inner backend (not owned; must outlive this). */
    explicit TracedBackend(pcmscrub::ScrubBackend &inner)
        : inner_(inner), plan_(inner.shardPlan()), slots_(plan_.count())
    {
    }

    /** Calls so far, summed over shards. */
    CallTally total() const
    {
        CallTally sum;
        for (const Slot &slot : slots_)
            sum.add(slot.tally);
        return sum;
    }

    /** Shards whose call count moved since the last call (serial). */
    std::size_t shardsTouchedSinceLastCall()
    {
        std::size_t touched = 0;
        for (Slot &slot : slots_) {
            const std::uint64_t calls = slot.tally.calls();
            if (calls != slot.seenCalls)
                ++touched;
            slot.seenCalls = calls;
        }
        return touched;
    }

    // ScrubBackend interface: every virtual forwards ---------------

    std::uint64_t lineCount() const override { return inner_.lineCount(); }
    pcmscrub::ShardPlan shardPlan() const override { return plan_; }
    unsigned cellsPerLine() const override
    {
        return inner_.cellsPerLine();
    }
    const pcmscrub::EccScheme &scheme() const override
    {
        return inner_.scheme();
    }
    const pcmscrub::DriftModel &drift() const override
    {
        return inner_.drift();
    }

    Tick lastFullWrite(LineIndex line, Tick now) override
    {
        return timed(Op::LastFullWrite, line,
                     [&] { return inner_.lastFullWrite(line, now); });
    }

    bool lightDetectClean(LineIndex line, Tick now) override
    {
        const bool clean = timed(Op::LightDetect, line, [&] {
            return inner_.lightDetectClean(line, now);
        });
        if (clean)
            ++slotFor(line).tally.lightClean;
        return clean;
    }

    bool eccCheckClean(LineIndex line, Tick now) override
    {
        return timed(Op::EccCheck, line,
                     [&] { return inner_.eccCheckClean(line, now); });
    }

    pcmscrub::FullDecodeOutcome fullDecode(LineIndex line,
                                           Tick now) override
    {
        const pcmscrub::FullDecodeOutcome outcome =
            timed(Op::FullDecode, line,
                  [&] { return inner_.fullDecode(line, now); });
        // A failed decode, whether or not the ladder absorbed it.
        if (outcome.uncorrectable ||
            outcome.handledBy != pcmscrub::DegradationStage::None)
            ++slotFor(line).tally.decodeUe;
        return outcome;
    }

    unsigned marginScan(LineIndex line, Tick now) override
    {
        return timed(Op::MarginScan, line,
                     [&] { return inner_.marginScan(line, now); });
    }

    void scrubRewrite(LineIndex line, Tick now,
                      bool preventive = false) override
    {
        timed(Op::Rewrite, line,
              [&] { inner_.scrubRewrite(line, now, preventive); });
    }

    void repairUncorrectable(LineIndex line, Tick now) override
    {
        timed(Op::Repair, line,
              [&] { inner_.repairUncorrectable(line, now); });
    }

    void noteVisit(LineIndex line, Tick now) override
    {
        timed(Op::NoteVisit, line, [&] { inner_.noteVisit(line, now); });
    }

    void setFaultInjector(pcmscrub::FaultInjector *injector) override
    {
        inner_.setFaultInjector(injector);
    }
    void setTelemetry(pcmscrub::RegionTelemetry *telemetry) override
    {
        inner_.setTelemetry(telemetry);
    }
    const pcmscrub::SparePool *spares() const override
    {
        return inner_.spares();
    }
    pcmscrub::PprRemapTable *ppr() override { return inner_.ppr(); }

    const pcmscrub::ScrubMetrics &metrics() const override
    {
        return inner_.metrics();
    }
    pcmscrub::ScrubMetrics &metrics() override { return inner_.metrics(); }

    void checkpointSave(pcmscrub::SnapshotSink &sink) const override
    {
        inner_.checkpointSave(sink);
    }
    void checkpointLoad(pcmscrub::SnapshotSource &source) override
    {
        inner_.checkpointLoad(source);
    }
    std::uint64_t checkpointFingerprint() const override
    {
        return inner_.checkpointFingerprint();
    }

  private:
    /** One shard's tally, on its own cache line. */
    struct alignas(64) Slot
    {
        CallTally tally;
        std::uint64_t seenCalls = 0; //!< Read by the serial wake loop.
    };

    Slot &slotFor(LineIndex line) { return slots_[plan_.shardOf(line)]; }

    template <class Call>
    auto timed(Op op, LineIndex line, Call &&call) -> decltype(call())
    {
        OpTally &tally =
            slotFor(line).tally.ops[static_cast<unsigned>(op)];
        const auto start = std::chrono::steady_clock::now();
        auto finish = [&] {
            const auto stop = std::chrono::steady_clock::now();
            ++tally.calls;
            tally.ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    stop - start)
                    .count());
        };
        if constexpr (std::is_void_v<decltype(call())>) {
            call();
            finish();
        } else {
            auto result = call();
            finish();
            return result;
        }
    }

    pcmscrub::ScrubBackend &inner_;
    const pcmscrub::ShardPlan plan_;
    std::vector<Slot> slots_;
};

} // namespace scrubbench

#endif // SCRUBBENCH_TRACED_BACKEND_HH
