/**
 * @file
 * RAS control plane: the operator-facing surface of a scrubbed
 * device. One object ties together the three runtime verbs the
 * datacenter stack needs (Linux EDAC style):
 *
 *  - scrub-rate control: read and retune the sweep interval at
 *    runtime, bounded by a configured [min, max] window so neither
 *    an operator nor the closed-loop controller can push the device
 *    into a nonsensical regime;
 *  - telemetry: per-region corrected/uncorrected counters, ladder
 *    escalations, scrub writes, and energy, owned here and attached
 *    to the backend for the control plane's lifetime;
 *  - repair: an explicit post-package-repair verb that fuses a
 *    failing line over to a spare row on demand (the ladder does the
 *    same autonomously for chronic lines).
 *
 * Invalid control inputs are fatal(), never clamped silently: a
 * fleet agent that asks for an out-of-bounds interval or a repair of
 * an already-repaired line has a bug worth surfacing.
 */

#ifndef PCMSCRUB_RAS_CONTROL_PLANE_HH
#define PCMSCRUB_RAS_CONTROL_PLANE_HH

#include "mem/region_telemetry.hh"
#include "scrub/backend.hh"
#include "scrub/run_config.hh"
#include "scrub/sweep_scrub.hh"

namespace pcmscrub {

/**
 * Runtime control surface over one backend + sweep-policy pair.
 */
class RasControlPlane
{
  public:
    /**
     * Attaches a region-telemetry sink to the backend (detached
     * again on destruction). The policy's current interval must lie
     * inside the configured bounds.
     */
    RasControlPlane(ScrubBackend &backend, SweepScrubBase &policy,
                    const RasSettings &settings);
    ~RasControlPlane();

    RasControlPlane(const RasControlPlane &) = delete;
    RasControlPlane &operator=(const RasControlPlane &) = delete;

    const RasSettings &settings() const { return settings_; }

    // Scrub-rate knob ----------------------------------------------

    /** Current sweep interval in seconds. */
    double scrubIntervalS() const;

    /**
     * Retune the sweep interval. fatal() when `seconds` falls
     * outside [min_interval_s, max_interval_s].
     */
    void setScrubIntervalS(double seconds);

    // Telemetry -----------------------------------------------------

    const RegionTelemetry &telemetry() const { return telemetry_; }
    RegionTelemetry &telemetry() { return telemetry_; }

    // Repair --------------------------------------------------------

    /**
     * Operator-requested PPR: consume a spare row for `line` now,
     * without waiting for the chronic tracker, and reload its data
     * through ScrubBackend::repairUncorrectable. Unlike the ladder's
     * PPR rung, this does not move the line onto fresh silicon: its
     * stuck cells and (analytic) drift tail stay. fatal() on an
     * out-of-range line, a backend without provisioned PPR rows, a
     * line already remapped or retired, or an exhausted partition:
     * the line's shard has no row left (see PprRemapTable), even if
     * other shards still have some.
     */
    void requestPprRemap(LineIndex line, Tick now);

  private:
    ScrubBackend &backend_;
    SweepScrubBase &policy_;
    RasSettings settings_;
    RegionTelemetry telemetry_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_RAS_CONTROL_PLANE_HH
