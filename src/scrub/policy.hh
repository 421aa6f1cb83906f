/**
 * @file
 * Scrub-policy interface: a policy decides *when* lines are checked,
 * *how* a check proceeds (light detect, syndrome check, full
 * decode), and *whether* a rewrite is issued — the three dimensions
 * the paper explores.
 */

#ifndef PCMSCRUB_SCRUB_POLICY_HH
#define PCMSCRUB_SCRUB_POLICY_HH

#include <functional>
#include <string>

#include "common/types.hh"
#include "scrub/backend.hh"

namespace pcmscrub {

class SnapshotSink;
class SnapshotSource;

/**
 * A scrub algorithm driving a ScrubBackend.
 */
class ScrubPolicy
{
  public:
    virtual ~ScrubPolicy() = default;

    virtual std::string name() const = 0;

    /** Tick of the next scheduled scrub activity. */
    virtual Tick nextWake() const = 0;

    /**
     * Perform the work scheduled for `now` (== nextWake()) and
     * reschedule. The engine guarantees monotone `now`.
     */
    virtual void wake(ScrubBackend &backend, Tick now) = 0;

    /**
     * Serialize the policy's mutable scheduling state. Default:
     * fatal() naming the policy, so checkpoint requests against a
     * policy without checkpoint support fail loudly.
     */
    virtual void checkpointSave(SnapshotSink &sink) const;

    /** Restore state written by checkpointSave(). */
    virtual void checkpointLoad(SnapshotSource &source);
};

/**
 * Drive a policy against a backend until `horizon`.
 *
 * @return number of wakes executed
 */
std::uint64_t runScrub(ScrubBackend &backend, ScrubPolicy &policy,
                       Tick horizon);

/**
 * The wake loop behind runScrub() and runCheckpointed(): continue a
 * run whose last wake was at `last` after `wakes` wakes (0 and 0 for
 * a fresh run) until `horizon`. When set, `afterWake(when, wakes)`
 * runs at every wake boundary, after the wake at `when` and with the
 * cumulative wake count.
 *
 * @return cumulative wakes, the `wakes` passed in included
 */
std::uint64_t runScrubFrom(
    ScrubBackend &backend, ScrubPolicy &policy, Tick horizon, Tick last,
    std::uint64_t wakes,
    const std::function<void(Tick, std::uint64_t)> &afterWake);

} // namespace pcmscrub

#endif // PCMSCRUB_SCRUB_POLICY_HH
