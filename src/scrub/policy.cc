#include "scrub/policy.hh"

#include "common/logging.hh"

namespace pcmscrub {

void
ScrubPolicy::checkpointSave(SnapshotSink &sink) const
{
    (void)sink;
    fatal("policy %s does not support checkpointing "
          "(run without --checkpoint/--resume)",
          name().c_str());
}

void
ScrubPolicy::checkpointLoad(SnapshotSource &source)
{
    (void)source;
    fatal("policy %s does not support checkpointing "
          "(run without --checkpoint/--resume)",
          name().c_str());
}

std::uint64_t
runScrub(ScrubBackend &backend, ScrubPolicy &policy, Tick horizon)
{
    return runScrubFrom(backend, policy, horizon, 0, 0, nullptr);
}

std::uint64_t
runScrubFrom(ScrubBackend &backend, ScrubPolicy &policy, Tick horizon,
             Tick last, std::uint64_t wakes,
             const std::function<void(Tick, std::uint64_t)> &afterWake)
{
    for (;;) {
        const Tick when = policy.nextWake();
        if (when > horizon)
            break;
        PCMSCRUB_ASSERT(when >= last, "policy scheduled into the past");
        last = when;
        policy.wake(backend, when);
        PCMSCRUB_ASSERT(policy.nextWake() > when,
                        "policy %s failed to reschedule",
                        policy.name().c_str());
        ++wakes;
        if (afterWake)
            afterWake(when, wakes);
    }
    return wakes;
}

} // namespace pcmscrub
