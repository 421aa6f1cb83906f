/**
 * @file
 * Backend decorator that records the memory traffic a scrub policy
 * generates — every check (a read) and corrective rewrite (a write)
 * with its tick and line — while delegating all semantics to an
 * inner backend.
 *
 * This is the bridge between the reliability simulation and the
 * bank-timing simulation: run a policy over the analytic backend to
 * get its *real* operation stream, then replay that stream into the
 * MemoryController together with demand traffic to measure the
 * policy's true performance interference (experiment E9b).
 */

#ifndef PCMSCRUB_SCRUB_RECORDING_BACKEND_HH
#define PCMSCRUB_SCRUB_RECORDING_BACKEND_HH

#include "mem/request.hh"
#include "scrub/backend.hh"
#include "sim/trace.hh"

namespace pcmscrub {

/**
 * Pass-through ScrubBackend that captures the operation stream.
 */
class RecordingBackend : public ScrubBackend
{
  public:
    /** Wrap an inner backend (not owned; must outlive this). */
    explicit RecordingBackend(ScrubBackend &inner) : inner_(inner) {}

    /** The captured scrub operations, in tick order. */
    const Trace &trace() const { return trace_; }

    // ScrubBackend interface (all delegate; sensing ops and
    // rewrites are recorded once per (line, tick)) ----------------

    std::uint64_t lineCount() const override
    {
        return inner_.lineCount();
    }
    unsigned cellsPerLine() const override
    {
        return inner_.cellsPerLine();
    }
    const EccScheme &scheme() const override { return inner_.scheme(); }
    const DriftModel &drift() const override { return inner_.drift(); }

    Tick lastFullWrite(LineIndex line, Tick now) override
    {
        return inner_.lastFullWrite(line, now);
    }

    bool lightDetectClean(LineIndex line, Tick now) override
    {
        recordCheck(line, now);
        return inner_.lightDetectClean(line, now);
    }

    bool eccCheckClean(LineIndex line, Tick now) override
    {
        recordCheck(line, now);
        return inner_.eccCheckClean(line, now);
    }

    FullDecodeOutcome fullDecode(LineIndex line, Tick now) override
    {
        recordCheck(line, now);
        // The inner backend's fullDecode settles a UE through its
        // DegradationLadder; diff the ladder counters to surface the
        // traffic it generated — each widened-margin retry is a slow
        // read, and an absorbing stage leaves behind one full
        // rewrite. metrics() may return a merge-on-call snapshot, so
        // take the counter values before and re-fetch after rather
        // than holding the reference.
        const std::uint64_t retriesBefore = inner_.metrics().ueRetries;
        const std::uint64_t absorbedBefore =
            inner_.metrics().ueAbsorbed();
        const FullDecodeOutcome outcome = inner_.fullDecode(line, now);
        const ScrubMetrics &after = inner_.metrics();
        for (std::uint64_t i = after.ueRetries; i > retriesBefore; --i)
            record(ReqType::RetryRead, line, now);
        if (after.ueAbsorbed() > absorbedBefore)
            record(ReqType::ScrubRewrite, line, now);
        return outcome;
    }

    unsigned marginScan(LineIndex line, Tick now) override
    {
        recordCheck(line, now);
        return inner_.marginScan(line, now);
    }

    void scrubRewrite(LineIndex line, Tick now,
                      bool preventive = false) override
    {
        record(ReqType::ScrubRewrite, line, now);
        inner_.scrubRewrite(line, now, preventive);
    }

    void repairUncorrectable(LineIndex line, Tick now) override
    {
        record(ReqType::ScrubRewrite, line, now);
        inner_.repairUncorrectable(line, now);
    }

    void noteVisit(LineIndex line, Tick now) override
    {
        inner_.noteVisit(line, now);
    }

    void setFaultInjector(FaultInjector *injector) override
    {
        inner_.setFaultInjector(injector);
    }

    const ScrubMetrics &metrics() const override
    {
        return inner_.metrics();
    }
    ScrubMetrics &metrics() override { return inner_.metrics(); }

  private:
    /** One array read per visit, however many gates ran. */
    void recordCheck(LineIndex line, Tick now)
    {
        if (line == lastCheckLine_ && now == lastCheckTick_)
            return;
        lastCheckLine_ = line;
        lastCheckTick_ = now;
        record(ReqType::ScrubCheck, line, now);
    }

    void record(ReqType type, LineIndex line, Tick now)
    {
        MemRequest req;
        req.type = type;
        req.line = line;
        req.arrival = now;
        trace_.append(req);
    }

    ScrubBackend &inner_;
    Trace trace_;
    LineIndex lastCheckLine_ = ~LineIndex{0};
    Tick lastCheckTick_ = ~Tick{0};
};

} // namespace pcmscrub

#endif // PCMSCRUB_SCRUB_RECORDING_BACKEND_HH
