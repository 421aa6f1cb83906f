#include "ras/control_plane.hh"

#include <algorithm>

#include "common/logging.hh"

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

} // namespace pcmscrub
