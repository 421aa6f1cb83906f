/**
 * @file
 * Bank-level memory-controller timing model.
 *
 * PCM writes occupy a bank roughly 8x longer than reads, so the
 * controller buffers write-like operations (demand writes and scrub
 * rewrites) and services them either opportunistically in idle gaps
 * or by forced drain when a queue fills. Demand reads always have
 * priority; scrub traffic is lowest priority. This is the machinery
 * behind the paper's scrub-interference measurements (experiment E9):
 * more scrub traffic -> fuller banks -> longer demand-read latency.
 *
 * Requests must be submitted in non-decreasing arrival order; the
 * model is then single-pass and deterministic.
 */

#ifndef PCMSCRUB_MEM_CONTROLLER_HH
#define PCMSCRUB_MEM_CONTROLLER_HH

#include <deque>
#include <vector>

#include "common/stats.hh"
#include "mem/geometry.hh"
#include "mem/request.hh"
#include "mem/timing.hh"

namespace pcmscrub {

/** Queueing policy knobs. */
struct ControllerConfig
{
    /** Forced write drain starts above this queue depth. */
    unsigned writeQueueHigh = 32;

    /** Forced write drain stops at this depth. */
    unsigned writeQueueLow = 8;

    /** Forced scrub drain starts above this queue depth. */
    unsigned scrubQueueHigh = 64;

    /** Forced scrub drain stops at this depth. */
    unsigned scrubQueueLow = 16;

    /**
     * Idle-gap multiple (of write occupancy) a bank must have before
     * it opportunistically services scrub work; keeps scrub out of
     * the way of bursty demand traffic.
     */
    unsigned scrubGapMultiple = 2;
};

/**
 * Deterministic single-pass bank-contention model.
 */
class MemoryController
{
  public:
    MemoryController(const MemGeometry &geometry,
                     const BankTiming &timing,
                     const ControllerConfig &config = {});

    /**
     * Submit one request; its start/completion are filled in.
     * Arrival times must be non-decreasing across calls.
     *
     * @return the completion tick (for buffered write-like requests
     *         this is the predicted tick, finalised at drain)
     */
    Tick submit(MemRequest &request);

    /** Service everything still buffered. */
    void drainAll();

    // Statistics ---------------------------------------------------

    /** Demand-read service latency (arrival to completion). */
    const SummaryStats &readLatency() const { return readLatency_; }

    /**
     * Demand-read latency quantile (e.g. 0.99 for the p99 tail),
     * from a 20 ns-binned histogram up to 100 us.
     */
    double readLatencyQuantile(double q) const
    {
        return readLatencyHist_.quantile(q);
    }

    /** Queueing delay of scrub operations. */
    const SummaryStats &scrubDelay() const { return scrubDelay_; }

    /** Operation counts by request type and drain cause. */
    const CounterGroup &counters() const { return counters_; }

    /** Fraction of reads that hit an open row buffer. */
    double rowHitRate() const;

    /** Busy fraction given the span of submitted traffic. */
    double utilization() const;

  private:
    struct Bank
    {
        Tick freeAt = 0;
        std::uint64_t openRow = ~std::uint64_t{0}; //!< Closed.
        std::deque<MemRequest> writeQueue;
        std::deque<MemRequest> scrubQueue;
    };

    /** Execute one op on a bank at >= earliest; updates stats. */
    void execute(Bank &bank, MemRequest &request, Tick earliest);

    /** Opportunistic + forced draining before time `now`. */
    void drainBank(Bank &bank, Tick now);

    MemGeometry geometry_;
    BankTiming timing_;
    ControllerConfig config_;
    std::vector<Bank> banks_;
    SummaryStats readLatency_;
    Histogram readLatencyHist_{0.0, 100000.0, 5000};
    SummaryStats scrubDelay_;
    CounterGroup counters_{"controller"};
    Tick totalBusy_ = 0;
    Tick lastArrival_ = 0;
    Tick horizon_ = 0;
};

} // namespace pcmscrub

#endif // PCMSCRUB_MEM_CONTROLLER_HH
