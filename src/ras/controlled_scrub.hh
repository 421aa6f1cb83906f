/**
 * @file
 * ControlledScrub: a sweep policy under RAS management. Wraps any
 * SweepScrubBase and interleaves controller samples with its sweeps:
 * every sample_every_s of simulated time the ScrubRateController
 * reads the backend metrics and (when auto-tune is on) retunes the
 * sweep interval through the control plane's bounded knob.
 *
 * With auto-tune off the wrapper still samples and logs — that is
 * the fixed-interval baseline with identical telemetry, so closed
 * loop vs fixed runs produce directly comparable JSONL.
 *
 * Checkpointing covers the wrapped policy's schedule, the controller
 * loop state, and the sample schedule; the telemetry counters ride
 * in the backend section (the control plane attaches them). A killed
 * and resumed run therefore replays the identical decision sequence.
 */

#ifndef PCMSCRUB_RAS_CONTROLLED_SCRUB_HH
#define PCMSCRUB_RAS_CONTROLLED_SCRUB_HH

#include <memory>
#include <string>

#include "ras/control_plane.hh"
#include "ras/controller.hh"
#include "ras/telemetry_log.hh"
#include "scrub/sweep_scrub.hh"

namespace pcmscrub {

/**
 * RAS-managed sweep scrub.
 */
class ControlledScrub : public ScrubPolicy
{
  public:
    /**
     * @param inner the sweep policy under management
     * @param backend the device (retained; telemetry attaches here)
     * @param settings validated RAS knobs
     * @param auto_tune apply controller decisions (false = log-only
     *        fixed-interval baseline)
     * @param run_label telemetry run label
     * @param log optional JSONL sink (not owned; may be nullptr)
     */
    ControlledScrub(std::unique_ptr<SweepScrubBase> inner,
                    ScrubBackend &backend,
                    const RasSettings &settings, bool auto_tune,
                    std::string run_label = "ras",
                    TelemetryLogger *log = nullptr);

    std::string name() const override;
    Tick nextWake() const override;
    void wake(ScrubBackend &backend, Tick now) override;

    void checkpointSave(SnapshotSink &sink) const override;
    void checkpointLoad(SnapshotSource &source) override;

    RasControlPlane &controlPlane() { return plane_; }
    const RasControlPlane &controlPlane() const { return plane_; }
    const ScrubRateController &controller() const
    {
        return controller_;
    }
    const SweepScrubBase &inner() const { return *inner_; }

  private:
    std::unique_ptr<SweepScrubBase> inner_;
    RasControlPlane plane_;
    ScrubRateController controller_;
    bool autoTune_;
    std::string runLabel_;
    TelemetryLogger *log_; //!< Not owned.
    Tick sampleEvery_;
    Tick nextSample_;
    ControllerSample lastSample_{};
};

} // namespace pcmscrub

#endif // PCMSCRUB_RAS_CONTROLLED_SCRUB_HH
