#include "ras/control_plane.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mem/metadata.hh"
#include "mem/ppr.hh"

namespace pcmscrub {

RasControlPlane::RasControlPlane(ScrubBackend &backend,
                                 SweepScrubBase &policy,
                                 const RasSettings &settings)
    : backend_(backend),
      policy_(policy),
      settings_(settings),
      telemetry_(backend.lineCount(),
                 std::min<std::uint64_t>(settings.linesPerRegion,
                                         backend.lineCount()),
                 backend.shardPlan().count())
{
    // Settings normally arrive via applyRunConfig(), but the control
    // plane is also constructed directly; re-validate the invariants
    // its arithmetic depends on.
    if (!(settings_.minIntervalS > 0.0))
        fatal("ras: min_interval_s must be positive");
    if (!(settings_.maxIntervalS >= settings_.minIntervalS))
        fatal("ras: max_interval_s must be >= min_interval_s");
    if (!(settings_.sloUePerLineDay > 0.0))
        fatal("ras: slo_ue_per_line_day must be positive");
    if (!(settings_.sampleEveryS > 0.0))
        fatal("ras: sample_every_s must be positive");
    if (!(settings_.stepFactor > 1.0))
        fatal("ras: step_factor must be > 1");
    if (!(settings_.hysteresis >= 0.0 && settings_.hysteresis < 1.0))
        fatal("ras: hysteresis must be in [0, 1)");

    const double interval = scrubIntervalS();
    if (interval < settings_.minIntervalS ||
        interval > settings_.maxIntervalS) {
        fatal("ras: policy interval %.3f s starts outside the "
              "control-plane bounds [%.3f, %.3f] s",
              interval, settings_.minIntervalS,
              settings_.maxIntervalS);
    }

    backend_.setTelemetry(&telemetry_);
}

RasControlPlane::~RasControlPlane()
{
    backend_.setTelemetry(nullptr);
}

double
RasControlPlane::scrubIntervalS() const
{
    return ticksToSeconds(policy_.interval());
}

void
RasControlPlane::setScrubIntervalS(double seconds)
{
    if (!(seconds >= settings_.minIntervalS &&
          seconds <= settings_.maxIntervalS)) {
        fatal("ras: requested scrub interval %.3f s outside the "
              "control-plane bounds [%.3f, %.3f] s",
              seconds, settings_.minIntervalS,
              settings_.maxIntervalS);
    }
    policy_.setInterval(secondsToTicks(seconds));
}

void
RasControlPlane::requestPprRemap(LineIndex line, Tick now)
{
    if (line >= backend_.lineCount()) {
        fatal("ras: PPR remap target line %llu out of range "
              "(device has %llu lines)",
              static_cast<unsigned long long>(line),
              static_cast<unsigned long long>(backend_.lineCount()));
    }
    PprRemapTable *ppr = backend_.ppr();
    if (ppr == nullptr || ppr->capacity() == 0) {
        fatal("ras: backend has no PPR spare rows provisioned "
              "(set ras.ppr_spare_rows)");
    }
    if (ppr->isRemapped(line)) {
        fatal("ras: line %llu is already PPR-remapped; the fuse is "
              "one-shot per address",
              static_cast<unsigned long long>(line));
    }
    const SparePool *spares = backend_.spares();
    if (spares != nullptr && spares->isRetired(line)) {
        fatal("ras: line %llu is retired to a spare; retired "
              "addresses cannot be PPR-remapped",
              static_cast<unsigned long long>(line));
    }
    if (!ppr->remap(line)) {
        fatal("ras: PPR spare rows exhausted in the shard partition "
              "of line %llu (it holds %llu of the %llu rows "
              "configured)",
              static_cast<unsigned long long>(line),
              static_cast<unsigned long long>(
                  ppr->partitionCapacity(line)),
              static_cast<unsigned long long>(ppr->capacity()));
    }
    // Only the remap table records the fuse: the line is reloaded
    // through repairUncorrectable, which keeps its cells (stuck cells
    // stay stuck, the analytic weak-cell tail is not re-drawn). The
    // ladder's PPR rung instead moves the line onto fresh silicon.
    backend_.repairUncorrectable(line, now);
}

} // namespace pcmscrub
