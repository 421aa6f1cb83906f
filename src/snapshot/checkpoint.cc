#include "snapshot/checkpoint.hh"

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace pcmscrub {

namespace {

/**
 * Async-signal-safe delivery flag. The handler does nothing but set
 * it; the wake loop notices it at the next wake boundary, when every
 * shard of the previous wake has already drained.
 */
volatile std::sig_atomic_t gSignalled = 0;

extern "C" void
checkpointSignalHandler(int)
{
    gSignalled = 1;
}

/** Serialize the meta block. */
std::vector<std::uint8_t>
buildMetaSection(const CheckpointMeta &meta, bool extraPresent)
{
    SnapshotSink sink;
    sink.u64(meta.runOrdinal);
    sink.u64(meta.simTime);
    sink.u64(meta.wakes);
    sink.str(meta.policyName);
    sink.boolean(extraPresent);
    return sink.takeBytes();
}

/** Parse the meta block of a snapshot. */
CheckpointMeta
parseMetaSection(const SnapshotReader &reader, bool *extraPresent)
{
    SnapshotSource source = reader.section("meta");
    CheckpointMeta meta;
    meta.runOrdinal = source.u64();
    meta.simTime = source.u64();
    meta.wakes = source.u64();
    meta.policyName = source.str();
    const bool extra = source.boolean();
    source.finish();
    if (extraPresent != nullptr)
        *extraPresent = extra;
    return meta;
}

} // namespace

void
writeCheckpoint(const std::string &path, const ScrubBackend &backend,
                const ScrubPolicy &policy, const CheckpointMeta &meta,
                const std::function<void(SnapshotSink &)> &extraSave)
{
    SnapshotWriter writer(backend.checkpointFingerprint());
    writer.addSection("meta",
                      buildMetaSection(meta, extraSave != nullptr));

    SnapshotSink backendSink;
    backend.checkpointSave(backendSink);
    writer.addSection("backend", backendSink.takeBytes());

    SnapshotSink policySink;
    policy.checkpointSave(policySink);
    writer.addSection("policy", policySink.takeBytes());

    if (extraSave != nullptr) {
        SnapshotSink extraSink;
        extraSave(extraSink);
        writer.addSection("extra", extraSink.takeBytes());
    }

    writer.writeFile(path);
}

CheckpointMeta
readCheckpoint(const SnapshotReader &reader, ScrubBackend &backend,
               ScrubPolicy &policy,
               const std::function<void(SnapshotSource &)> &extraLoad)
{
    const std::uint64_t expected = backend.checkpointFingerprint();
    if (reader.fingerprint() != expected) {
        fatal("snapshot %s: configuration fingerprint %016llx does not "
              "match this run's %016llx (different geometry, scheme, "
              "seed, shard plan, or device physics)",
              reader.context().c_str(),
              static_cast<unsigned long long>(reader.fingerprint()),
              static_cast<unsigned long long>(expected));
    }

    bool extraPresent = false;
    const CheckpointMeta meta = parseMetaSection(reader, &extraPresent);
    if (meta.policyName != policy.name()) {
        fatal("snapshot %s: saved by policy '%s' but this run uses "
              "'%s'",
              reader.context().c_str(), meta.policyName.c_str(),
              policy.name().c_str());
    }

    if (extraPresent && extraLoad == nullptr) {
        fatal("snapshot %s: contains harness state this harness does "
              "not restore",
              reader.context().c_str());
    }
    if (!extraPresent && extraLoad != nullptr) {
        fatal("snapshot %s: is missing the harness state this harness "
              "needs",
              reader.context().c_str());
    }

    SnapshotSource backendSource = reader.section("backend");
    backend.checkpointLoad(backendSource);
    backendSource.finish();

    SnapshotSource policySource = reader.section("policy");
    policy.checkpointLoad(policySource);
    policySource.finish();

    if (extraLoad != nullptr) {
        SnapshotSource extraSource = reader.section("extra");
        extraLoad(extraSource);
        extraSource.finish();
    }

    return meta;
}

CheckpointRuntime &
CheckpointRuntime::global()
{
    static CheckpointRuntime instance;
    return instance;
}

void
CheckpointRuntime::configure(const CliOptions &opts, bool supported)
{
    if (!supported) {
        if (opts.checkpointingRequested()) {
            fatal("this harness does not support --checkpoint/--resume "
                  "(its simulation state lives outside the snapshot "
                  "runtime)");
        }
        return;
    }

    checkpointPath_ = opts.checkpointPath;
    resumePath_ = opts.resumePath;
    everySimHours_ = opts.checkpointEverySimHours;
    nextRunOrdinal_ = 0;
    resumeConsumed_ = false;
    lastCheckpointTick_ = 0;
    haveCheckpointed_ = false;

    if (!resumePath_.empty()) {
        // Load and validate eagerly: a bad snapshot should stop the
        // run before hours of simulation, not after. A corrupt newest
        // snapshot falls back to the rotated previous generation
        // (path + ".1"); only zero valid candidates is fatal.
        std::string failure;
        auto reader = openNewestValidSnapshot(resumePath_, nullptr,
                                              &failure);
        if (!reader.has_value()) {
            fatal("--resume %s: no valid checkpoint ordinal found "
                  "(%s)",
                  resumePath_.c_str(), failure.c_str());
        }
        pendingResume_ =
            std::make_unique<SnapshotReader>(std::move(*reader));
        std::atexit([] {
            CheckpointRuntime &runtime = CheckpointRuntime::global();
            if (runtime.pendingResume_ != nullptr &&
                !runtime.resumeConsumed_) {
                std::fprintf(
                    stderr,
                    "warning: --resume snapshot was never consumed "
                    "(its run ordinal was not reached); all runs "
                    "executed from scratch\n");
            }
        });
    }

    if (enabled()) {
        std::signal(SIGINT, checkpointSignalHandler);
        std::signal(SIGTERM, checkpointSignalHandler);
    }
}

std::uint64_t
CheckpointRuntime::beginRun()
{
    // Sim-time restarts at zero for each run of a multi-run binary,
    // so the periodic cadence must re-anchor too.
    lastCheckpointTick_ = 0;
    haveCheckpointed_ = false;
    return nextRunOrdinal_++;
}

void
CheckpointRuntime::setExtraState(
    std::function<void(SnapshotSink &)> save,
    std::function<void(SnapshotSource &)> load)
{
    extraSave_ = std::move(save);
    extraLoad_ = std::move(load);
}

void
CheckpointRuntime::clearExtraState()
{
    extraSave_ = nullptr;
    extraLoad_ = nullptr;
}

std::optional<CheckpointMeta>
CheckpointRuntime::tryRestore(ScrubBackend &backend, ScrubPolicy &policy,
                              std::uint64_t runOrdinal)
{
    if (pendingResume_ == nullptr || resumeConsumed_)
        return std::nullopt;

    CheckpointMeta peek = parseMetaSection(*pendingResume_, nullptr);
    if (peek.runOrdinal != runOrdinal) {
        // An earlier run of a multi-run binary: replay it from
        // scratch (deterministic), restore when the ordinal matches.
        return std::nullopt;
    }

    const std::uint64_t expected = backend.checkpointFingerprint();
    if (pendingResume_->fingerprint() != expected) {
        // The newest snapshot was written by a different
        // configuration — likely a torn or stale rotation state. Try
        // the previous generation before giving up.
        std::string failure;
        auto replacement =
            openNewestValidSnapshot(resumePath_, &expected, &failure);
        if (!replacement.has_value()) {
            fatal("snapshot %s: configuration fingerprint %016llx "
                  "does not match this run's %016llx and no valid "
                  "fallback ordinal exists (%s)",
                  pendingResume_->context().c_str(),
                  static_cast<unsigned long long>(
                      pendingResume_->fingerprint()),
                  static_cast<unsigned long long>(expected),
                  failure.c_str());
        }
        pendingResume_ =
            std::make_unique<SnapshotReader>(std::move(*replacement));
        peek = parseMetaSection(*pendingResume_, nullptr);
        if (peek.runOrdinal != runOrdinal)
            return std::nullopt;
    }

    const CheckpointMeta meta =
        readCheckpoint(*pendingResume_, backend, policy, extraLoad_);
    resumeConsumed_ = true;
    pendingResume_.reset();
    lastCheckpointTick_ = meta.simTime;
    return meta;
}

void
CheckpointRuntime::poll(const ScrubBackend &backend,
                        const ScrubPolicy &policy,
                        const CheckpointMeta &meta)
{
    if (gSignalled != 0) {
        if (pendingResume_ != nullptr && !resumeConsumed_) {
            // Interrupted while replaying earlier runs toward the
            // resume point: the on-disk snapshot is still the best
            // state, so leave it untouched.
            std::fprintf(stderr,
                         "interrupted while replaying toward the "
                         "resume point; snapshot left untouched\n");
            std::exit(0);
        }
        if (!checkpointPath_.empty()) {
            rotateSnapshot(checkpointPath_);
            writeCheckpoint(checkpointPath_, backend, policy, meta,
                            extraSave_);
            std::fprintf(stderr,
                         "interrupted at sim-time %.3f h; checkpoint "
                         "written to %s (resume with --resume %s)\n",
                         ticksToSeconds(meta.simTime) / 3600.0,
                         checkpointPath_.c_str(),
                         checkpointPath_.c_str());
        } else {
            std::fprintf(stderr,
                         "interrupted at sim-time %.3f h (no "
                         "--checkpoint path; state discarded)\n",
                         ticksToSeconds(meta.simTime) / 3600.0);
        }
        std::exit(0);
    }

    if (checkpointPath_.empty() || everySimHours_ <= 0.0)
        return;
    if (pendingResume_ != nullptr && !resumeConsumed_) {
        // Replaying toward the resume point: don't overwrite the
        // user's snapshot with older progress.
        return;
    }

    const Tick interval = secondsToTicks(everySimHours_ * 3600.0);
    if (!haveCheckpointed_ && lastCheckpointTick_ == 0) {
        // First poll of a fresh run: anchor the cadence without
        // writing a trivial sim-time-zero snapshot.
        lastCheckpointTick_ = meta.simTime;
        haveCheckpointed_ = true;
        return;
    }
    if (meta.simTime < lastCheckpointTick_ + interval)
        return;

    // Keep the previous good snapshot as `path + ".1"` so a corrupt
    // or torn newest write still leaves a resumable generation.
    rotateSnapshot(checkpointPath_);
    writeCheckpoint(checkpointPath_, backend, policy, meta, extraSave_);
    lastCheckpointTick_ = meta.simTime;
}

bool
CheckpointRuntime::signalled()
{
    return gSignalled != 0;
}

void
CheckpointRuntime::resetForTest()
{
    checkpointPath_.clear();
    resumePath_.clear();
    everySimHours_ = 0.0;
    nextRunOrdinal_ = 0;
    resumeConsumed_ = false;
    pendingResume_.reset();
    lastCheckpointTick_ = 0;
    haveCheckpointed_ = false;
    extraSave_ = nullptr;
    extraLoad_ = nullptr;
    gSignalled = 0;
}

std::uint64_t
runCheckpointed(ScrubBackend &backend, ScrubPolicy &policy, Tick horizon)
{
    CheckpointRuntime &runtime = CheckpointRuntime::global();
    const std::uint64_t ordinal = runtime.beginRun();
    if (!runtime.enabled())
        return runScrub(backend, policy, horizon);

    std::uint64_t wakes = 0;
    Tick last = 0;
    if (const auto restored =
            runtime.tryRestore(backend, policy, ordinal)) {
        wakes = restored->wakes;
        last = restored->simTime;
    }
    return runScrubFrom(
        backend, policy, horizon, last, wakes,
        [&](Tick when, std::uint64_t done) {
            runtime.poll(backend, policy,
                         CheckpointMeta{ordinal, when, done,
                                        policy.name()});
        });
}

} // namespace pcmscrub
