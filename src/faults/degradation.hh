/**
 * @file
 * The uncorrectable-error degradation ladder: what a controller does
 * *after* ECC gives up, in escalation order.
 *
 *   1. Retry    — bounded re-reads with widened sensing margins.
 *                 Transient read-disturb faults vanish on a re-read,
 *                 and recently-drifted cells sit just past their
 *                 threshold, so a shifted-reference read often
 *                 recovers the codeword (drift re-read).
 *   2. EcpRepair — rewrite the line so write-verify re-learns its
 *                 stuck bits and repoints spare ECP entries at them.
 *   3. PprRemap — post-package repair: a line that keeps defeating
 *                 ECP (chronically erroring, per the UE-history
 *                 tracker) is permanently remapped to a dedicated
 *                 spare row, EDAC mem-repair style. One-shot per
 *                 address, bounded by the provisioned spare rows.
 *   4. Retire   — remap the line to a fresh spare from a finite
 *                 provisioned pool (HARP-style retirement of
 *                 UE-prone locations).
 *   5. SlcFallback — demote the line to SLC (1 bit/cell, extreme
 *                 levels only). Drift can no longer cross the wide
 *                 SLC margin, at the price of half the region's
 *                 storage capacity.
 *   6. HostVisible — nothing worked; the UE is surfaced to the host
 *                 (machine-check / page poison territory).
 *
 * Each stage is observable through dedicated ScrubMetrics counters
 * so experiments can measure the survival contribution of every
 * rung independently.
 */

#ifndef PCMSCRUB_FAULTS_DEGRADATION_HH
#define PCMSCRUB_FAULTS_DEGRADATION_HH

#include <cstdint>

namespace pcmscrub {

/** Ladder rung that disposed of an uncorrectable line. */
enum class DegradationStage : unsigned {
    None,        //!< No UE, or the ladder is disabled.
    Retry,       //!< A widened-margin re-read recovered the data.
    EcpRepair,   //!< Re-learned ECP entries absorbed the stuck bits.
    PprRemap,    //!< Chronic line remapped to a PPR spare row.
    Retire,      //!< Line remapped to a spare from the pool.
    SlcFallback, //!< Line demoted to drift-immune SLC mode.
    HostVisible, //!< Escalated to the host as a real UE.
};

/**
 * Configuration of the degradation ladder. Disabled by default so
 * the baseline simulator (count UEs, repair from host redundancy)
 * is unchanged unless an experiment opts in.
 */
struct DegradationConfig
{
    /** Master switch for the whole ladder. */
    bool enabled = false;

    /** Widened-margin re-reads attempted per failed decode. */
    unsigned maxRetries = 2;

    /**
     * Sensing-threshold shift per retry, log10 ohms (cell-accurate
     * backend). Retry k reads with thresholds raised by
     * k * retryMarginWiden, chasing the drifted population.
     */
    double retryMarginWiden = 0.10;

    /**
     * Analytic model of the same mechanism: probability that one
     * widened re-read recovers a drift-caused UE (given the stuck
     * errors alone still fit in the ECC budget).
     */
    double retryResolveProb = 0.5;

    /** Attempt ECP re-learning before retiring the line. */
    bool ecpRepair = true;

    /** Spare lines provisioned for retirement (0 = no retirement). */
    std::uint64_t spareLines = 0;

    /**
     * Post-package-repair spare rows (0 = no PPR rung). A line
     * qualifies once its UE history reaches pprUeThreshold; the
     * remap is permanent and one-shot per address, so a remapped
     * line that fails again falls through to retirement.
     */
    std::uint64_t pprSpareRows = 0;

    /** UE escalations a line must accumulate to qualify for PPR. */
    unsigned pprUeThreshold = 2;

    /** Demote chronically failing lines to SLC as the last resort. */
    bool slcFallback = false;
};

} // namespace pcmscrub

#endif // PCMSCRUB_FAULTS_DEGRADATION_HH
