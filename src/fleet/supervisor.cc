#include "fleet/supervisor.hh"

#include <chrono>
#include <exception>
#include <new>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/snapshot.hh"

namespace pcmscrub {

namespace {

/** A failed attempt, caught by the supervisor's retry loop. */
struct AttemptFailure
{
    std::string reason;
};

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - start)
        .count();
}

void
saveSamples(SnapshotSink &sink, const std::vector<CurveSample> &samples)
{
    sink.u64(samples.size());
    for (const CurveSample &sample : samples) {
        sink.u64(sample.simTime);
        sink.u64(sample.ueSurfaced);
        sink.f64(sample.totalUncorrectable);
        sink.f64(sample.energyPj);
        sink.u64(sample.scrubRewrites);
    }
}

void
loadSamples(SnapshotSource &source, std::vector<CurveSample> &samples,
            unsigned curvePoints)
{
    const std::uint64_t count =
        source.u64Bounded(curvePoints, "fleet curve samples");
    samples.clear();
    samples.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        CurveSample sample;
        sample.simTime = source.u64();
        sample.ueSurfaced = source.u64();
        sample.totalUncorrectable = source.f64();
        sample.energyPj = source.f64();
        sample.scrubRewrites = source.u64();
        samples.push_back(sample);
    }
}

CurveSample
sampleNow(Tick at, const ScrubMetrics &metrics)
{
    CurveSample sample;
    sample.simTime = at;
    sample.ueSurfaced = metrics.ueSurfaced;
    sample.totalUncorrectable = metrics.totalUncorrectable();
    sample.energyPj = metrics.energy.total();
    sample.scrubRewrites = metrics.scrubRewrites;
    return sample;
}

/**
 * Digest of a finished device run: the wake count, the metrics'
 * snapshot bytes (every ScrubMetrics field, energy per category) and
 * the curve samples, hashed with FNV-1a.
 */
std::uint64_t
resultDigest(const ScrubMetrics &m, std::uint64_t wakes,
             const std::vector<CurveSample> &samples)
{
    SnapshotSink sink;
    sink.u64(wakes);
    m.saveState(sink);
    saveSamples(sink, samples);
    Fingerprint fp;
    for (const std::uint8_t byte : sink.bytes())
        fp.byte(byte);
    return fp.value();
}

const char *
chaosFailureReason(ChaosKind kind)
{
    switch (kind) {
      case ChaosKind::KillAtWake:
        return "task killed at wake boundary (chaos)";
      case ChaosKind::SnapshotCorruption:
        return "task killed, snapshot corrupted (chaos)";
      case ChaosKind::AllocFailure:
        return "allocation failure (chaos)";
      case ChaosKind::DeadlineOverrun:
        return "deadline overrun (chaos)";
      case ChaosKind::None:
        break;
    }
    return "chaos";
}

/**
 * Per-attempt state the runAttempt/supervisor pair share across the
 * retry loop.
 */
struct AttemptState
{
    bool resumedFromSnapshot = false;
    bool snapshotFellBack = false;
    bool wroteSnapshot = false;
    std::vector<CurveSample> samples;
    ScrubMetrics metrics;
    std::uint64_t wakes = 0;
};

} // namespace

const char *
deviceOutcomeName(DeviceOutcome outcome)
{
    switch (outcome) {
      case DeviceOutcome::Completed:
        return "completed";
      case DeviceOutcome::Resumed:
        return "resumed";
      case DeviceOutcome::Quarantined:
        return "quarantined";
      case DeviceOutcome::Skipped:
        return "skipped";
    }
    return "unknown";
}

namespace {

/**
 * One attempt: build the sim, fast-forward from the newest valid
 * snapshot, run the wake loop with watchdog/cancel/chaos hooks at
 * every boundary. Throws AttemptFailure on any failure; returns
 * false only when cancelled mid-run (state checkpointed).
 */
bool
runAttempt(const SupervisorConfig &config, const ChaosPlan &plan,
           const std::function<DeviceSim()> &makeSim,
           const std::atomic<bool> *cancel, unsigned attempt,
           AttemptState &state)
{
    const bool inject =
        plan.isVictim() && attempt <= plan.injuries;

    if (inject && plan.kind == ChaosKind::AllocFailure)
        throw std::bad_alloc();

    DeviceSim sim = makeSim();

    const std::string &path = config.snapshotPath;
    std::uint64_t wakes = 0;
    Tick last = 0;
    state.samples.clear();

    if (!path.empty()) {
        const std::uint64_t expected =
            sim.backend->checkpointFingerprint();
        std::string failure;
        auto reader = openNewestValidSnapshot(path, &expected, &failure);
        if (reader.has_value()) {
            const CheckpointMeta meta = readCheckpoint(
                *reader, *sim.backend, *sim.policy,
                [&](SnapshotSource &source) {
                    loadSamples(source, state.samples,
                                config.curvePoints);
                });
            wakes = meta.wakes;
            last = meta.simTime;
            state.resumedFromSnapshot = true;
            if (reader->context() != path)
                state.snapshotFellBack = true;
        } else if (state.wroteSnapshot) {
            // A snapshot was written but none parses any more: the
            // corruption took both generations. Restart from scratch
            // — graceful degradation, not a campaign abort.
            warn("fleet device %llu: %s; restarting from scratch",
                 static_cast<unsigned long long>(config.device),
                 failure.c_str());
            state.snapshotFellBack = true;
        }
    }

    const auto checkpoint = [&](Tick at) {
        if (path.empty())
            return;
        rotateSnapshot(path);
        writeCheckpoint(path, *sim.backend, *sim.policy,
                        CheckpointMeta{config.device, at, wakes,
                                       sim.policy->name()},
                        [&](SnapshotSink &sink) {
                            saveSamples(sink, state.samples);
                        });
        state.wroteSnapshot = true;
    };

    const auto chaosKill = [&](Tick at) {
        checkpoint(at);
        if (plan.kind == ChaosKind::SnapshotCorruption && !path.empty())
            corruptSnapshotFile(path, plan.truncate);
        throw AttemptFailure{chaosFailureReason(plan.kind)};
    };

    const bool killKind = inject &&
        (plan.kind == ChaosKind::KillAtWake ||
         plan.kind == ChaosKind::SnapshotCorruption ||
         plan.kind == ChaosKind::DeadlineOverrun);

    const Tick sampleStep =
        config.horizon / (config.curvePoints > 0 ? config.curvePoints
                                                 : 1);
    const auto recordSamples = [&](Tick now) {
        while (state.samples.size() < config.curvePoints &&
               now >= (state.samples.size() + 1) * sampleStep) {
            const Tick at = (state.samples.size() + 1) * sampleStep;
            state.samples.push_back(
                sampleNow(at, sim.backend->metrics()));
        }
    };

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t attemptWakes = 0;

    for (;;) {
        const Tick when = sim.policy->nextWake();
        if (when > config.horizon)
            break;

        // Wake boundaries are the only cancellation, watchdog, and
        // checkpoint points: all state is quiescent here, so the
        // snapshot the next attempt resumes from is exact.
        if (cancel != nullptr &&
            cancel->load(std::memory_order_acquire)) {
            checkpoint(last);
            return false;
        }
        if (config.deadlineMs > 0.0 &&
            elapsedMs(start) > config.deadlineMs) {
            checkpoint(last);
            throw AttemptFailure{"deadline overrun"};
        }

        sim.policy->wake(*sim.backend, when);
        last = when;
        ++wakes;
        ++attemptWakes;
        recordSamples(when);

        if (killKind && attemptWakes == plan.killWake)
            chaosKill(when);
        if (config.checkpointEveryWakes != 0 &&
            wakes % config.checkpointEveryWakes == 0) {
            checkpoint(when);
        }
    }

    if (killKind && attemptWakes < plan.killWake) {
        // The planned kill wake lies beyond this attempt's remaining
        // wakes; land the injury at the final boundary so a planned
        // failure never silently becomes a success.
        chaosKill(last);
    }

    // Pad the trajectory: thresholds past the last wake hold the
    // final state.
    while (state.samples.size() < config.curvePoints) {
        const Tick at = (state.samples.size() + 1) * sampleStep;
        state.samples.push_back(sampleNow(at, sim.backend->metrics()));
    }

    state.metrics = sim.backend->metrics();
    state.wakes = wakes;
    return true;
}

} // namespace

SupervisedResult
superviseDevice(const SupervisorConfig &config, const ChaosPlan &plan,
                const std::function<DeviceSim()> &makeSim,
                const std::atomic<bool> *cancel)
{
    PCMSCRUB_ASSERT(config.quarantineAfter >= 1 &&
                        config.retryMax >= config.quarantineAfter,
                    "supervisor retry/quarantine knobs inconsistent");

    SupervisedResult result;
    AttemptState state;

    for (unsigned attempt = 1;; ++attempt) {
        if (cancel != nullptr &&
            cancel->load(std::memory_order_acquire)) {
            result.outcome = DeviceOutcome::Skipped;
            return result;
        }

        ++result.attempts;
        std::string reason;
        try {
            if (!runAttempt(config, plan, makeSim, cancel, attempt,
                            state)) {
                result.outcome = DeviceOutcome::Skipped;
                return result;
            }
            // "Resumed" counts recovery after any failure — via a
            // snapshot resume or a fresh restart; the flags below
            // say which.
            result.outcome = result.failures > 0
                                 ? DeviceOutcome::Resumed
                                 : DeviceOutcome::Completed;
            result.resumedFromSnapshot = state.resumedFromSnapshot;
            result.snapshotFellBack = state.snapshotFellBack;
            result.metrics = state.metrics;
            result.wakes = state.wakes;
            result.samples = state.samples;
            result.digest = resultDigest(result.metrics, result.wakes,
                                         result.samples);
            if (!config.snapshotPath.empty()) {
                // In-campaign recovery artifacts only: a finished
                // device must not be "resumed" by a later campaign
                // reusing the directory.
                ::unlink(config.snapshotPath.c_str());
                ::unlink((config.snapshotPath + ".1").c_str());
            }
            return result;
        } catch (const AttemptFailure &failure) {
            reason = failure.reason;
        } catch (const std::bad_alloc &) {
            reason = plan.isVictim() &&
                             plan.kind == ChaosKind::AllocFailure
                         ? chaosFailureReason(plan.kind)
                         : "allocation failure";
        } catch (const std::exception &error) {
            reason = std::string("unhandled exception: ") +
                     error.what();
        }

        ++result.failures;
        result.failureReasons.push_back(reason);
        result.snapshotFellBack = state.snapshotFellBack;

        if (result.failures >= config.quarantineAfter) {
            result.outcome = DeviceOutcome::Quarantined;
            result.quarantineReason = reason;
            return result;
        }
        if (result.attempts >= config.retryMax) {
            result.outcome = DeviceOutcome::Quarantined;
            result.quarantineReason =
                "retry budget exhausted after: " + reason;
            return result;
        }

        if (config.backoffBaseMs > 0.0) {
            // Exponential backoff with deterministic jitter: the
            // delay of (device, failure #n) is a pure function of
            // the seeds, so campaign timing is reproducible.
            Random jitterRng = Random::stream(
                config.backoffSeed ^ (config.device << 20),
                result.failures);
            const double factor =
                static_cast<double>(1ULL << (result.failures - 1));
            double delay = config.backoffBaseMs * factor *
                           jitterRng.uniform(0.75, 1.25);
            if (delay > 1000.0)
                delay = 1000.0;
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay));
        }
    }
}

} // namespace pcmscrub
