/**
 * @file
 * Checkpoint/resume runtime: the glue between the CLI flags, the
 * snapshot container, and a running simulation.
 *
 * A harness calls CheckpointRuntime::global().configure(opts) once
 * after parsing flags. Each simulation run then goes through
 * runCheckpointed() instead of runScrub(). Both run the same wake
 * loop (runScrubFrom()); runCheckpointed() adds a restore before it
 * and a poll at each wake boundary, through which the runtime
 *
 *  - restores a pending `--resume` snapshot before the first wake
 *    (re-running earlier completed runs of a multi-run binary
 *    deterministically until the snapshot's run ordinal is reached),
 *  - writes a periodic snapshot whenever `--checkpoint-every`
 *    simulated hours have elapsed since the last one, and
 *  - honours SIGINT/SIGTERM: the handler only sets an async-signal-
 *    safe flag; the loop notices it at the next wake boundary (all
 *    shards of the previous wake have drained by then), flushes a
 *    final snapshot, and exits 0.
 *
 * Wake boundaries are the only checkpoint points, which is what
 * makes resume provably exact: PR 2's determinism contract means
 * the remaining wakes of a restored run replay bit-identically.
 *
 * Harnesses with state outside the backend + policy (e.g. a demand
 * workload and wear-level mapper) register extra save/load hooks.
 * Harnesses that cannot support checkpointing call
 * `configure(opts, false)`, which turns any checkpoint/resume flag
 * into a precise fatal() instead of a silently wrong resume.
 */

#ifndef PCMSCRUB_SNAPSHOT_CHECKPOINT_HH
#define PCMSCRUB_SNAPSHOT_CHECKPOINT_HH

#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/cli.hh"
#include "common/types.hh"
#include "scrub/policy.hh"
#include "snapshot/snapshot.hh"

namespace pcmscrub {

/**
 * Everything a snapshot stores besides backend and policy state.
 */
struct CheckpointMeta
{
    /** 0-based index of the run within a multi-run binary. */
    std::uint64_t runOrdinal = 0;

    /** Sim-time of the wake boundary the snapshot was taken at. */
    Tick simTime = 0;

    /** Wakes executed so far in this run. */
    std::uint64_t wakes = 0;

    /** Policy name, checked on restore. */
    std::string policyName;
};

/**
 * Write one snapshot of (meta, backend, policy, extra) atomically.
 * Exposed for tests; harness code goes through runCheckpointed().
 *
 * @param extraSave optional hook serializing harness-private state
 */
void writeCheckpoint(
    const std::string &path, const ScrubBackend &backend,
    const ScrubPolicy &policy, const CheckpointMeta &meta,
    const std::function<void(SnapshotSink &)> &extraSave = nullptr);

/**
 * Restore one snapshot into (backend, policy, extra). The snapshot's
 * fingerprint and policy name must match; anything else is fatal().
 *
 * @return the snapshot's meta block
 */
CheckpointMeta readCheckpoint(
    const SnapshotReader &reader, ScrubBackend &backend,
    ScrubPolicy &policy,
    const std::function<void(SnapshotSource &)> &extraLoad = nullptr);

/**
 * Process-wide checkpoint/resume coordinator.
 */
class CheckpointRuntime
{
  public:
    static CheckpointRuntime &global();

    /**
     * Apply parsed CLI flags. Installs SIGINT/SIGTERM handlers when
     * checkpointing is enabled; when @p supported is false, any
     * checkpoint/resume flag is fatal() with an explanation.
     */
    void configure(const CliOptions &opts, bool supported = true);

    /** Whether --checkpoint/--resume is active for this process. */
    bool enabled() const
    {
        return !checkpointPath_.empty() || !resumePath_.empty();
    }

    /**
     * Announce the start of one simulation run and return its
     * ordinal. Multi-run binaries call this once per run; snapshots
     * record the ordinal so a resume replays earlier runs untouched
     * and restores into the right one.
     */
    std::uint64_t beginRun();

    /**
     * Register hooks serializing harness state beyond backend +
     * policy. They stay registered until clearExtraState(); call it
     * once the run is over, before anything they capture dies.
     */
    void setExtraState(std::function<void(SnapshotSink &)> save,
                       std::function<void(SnapshotSource &)> load);

    /** Drop extra-state hooks registered by setExtraState(). */
    void clearExtraState();

    /**
     * Restore a pending --resume snapshot into this run, if its run
     * ordinal matches. Returns the restored meta when a restore
     * happened (the caller resumes the wake loop from meta.simTime).
     */
    std::optional<CheckpointMeta> tryRestore(ScrubBackend &backend,
                                             ScrubPolicy &policy,
                                             std::uint64_t runOrdinal);

    /**
     * Called at every wake boundary: writes a periodic checkpoint
     * when due, and on a delivered SIGINT/SIGTERM flushes a final
     * checkpoint and exits 0.
     */
    void poll(const ScrubBackend &backend, const ScrubPolicy &policy,
              const CheckpointMeta &meta);

    /** Signal flag, for harnesses with custom loops. */
    static bool signalled();

    /** Reset all state (tests only). */
    void resetForTest();

  private:
    CheckpointRuntime() = default;

    std::string checkpointPath_;
    std::string resumePath_;
    double everySimHours_ = 0.0;
    std::uint64_t nextRunOrdinal_ = 0;
    bool resumeConsumed_ = false;
    std::unique_ptr<SnapshotReader> pendingResume_;
    Tick lastCheckpointTick_ = 0;
    bool haveCheckpointed_ = false;
    std::function<void(SnapshotSink &)> extraSave_;
    std::function<void(SnapshotSource &)> extraLoad_;
};

/**
 * Drop-in replacement for runScrub() that honours the configured
 * checkpoint runtime: restores a pending --resume snapshot, then runs
 * runScrub()'s wake loop with CheckpointRuntime::poll() at every wake
 * boundary (periodic snapshots; SIGINT/SIGTERM becomes a final
 * snapshot + clean exit). With checkpointing unconfigured it is
 * runScrub().
 *
 * @return cumulative wakes executed (including wakes replayed from
 *         a restored snapshot, so totals match the straight run)
 */
std::uint64_t runCheckpointed(ScrubBackend &backend, ScrubPolicy &policy,
                              Tick horizon);

} // namespace pcmscrub

#endif // PCMSCRUB_SNAPSHOT_CHECKPOINT_HH
