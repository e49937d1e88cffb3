/**
 * @file
 * Per-stream outcome controller (rpx::fault).
 *
 * Related systems degrade instead of failing: time-shared FPGA vision
 * pipelines tolerate deadline misses without collapsing, and ROI-based
 * adaptive subsampling sheds resolution under pressure. The
 * DegradationController brings that behaviour to the rhythmic pipeline.
 * It is fed one FrameHealth per frame and keeps two things in one
 * transition table:
 *
 *   - the quality *level* (the escalation ladder): consecutive misses
 *     shrink the region budget and coarsen temporal skip factors so the
 *     encoder sheds work; clean streaks step back toward full quality;
 *     a quarantined decode holds the last good frame; transient faults
 *     are only counted;
 *   - the stream's *health state* (Healthy / Degraded / Quarantined /
 *     Evicted), judged after the level moved, with its transition and
 *     recovery counts.
 *
 * The controller is pure state — no clocks, no RNG — so same-seed runs
 * report identical level and health trajectories, and the table is
 * unit-testable frame by frame.
 */

#ifndef RPX_FAULT_DEGRADATION_HPP
#define RPX_FAULT_DEGRADATION_HPP

#include "common/types.hpp"
#include "obs/obs.hpp"

namespace rpx::fault {

/** Controller tuning. Defaults follow the DESIGN.md fault-tolerance section. */
struct DegradationConfig {
    /** Consecutive deadline misses before stepping one level down. */
    int escalate_after_misses = 2;
    /** Consecutive clean frames before stepping one level back up. */
    int recover_after_clean = 8;
    /** Deepest degradation level (0 = full quality). */
    int max_level = 3;
    /** Region-budget multiplier applied once per level (0 < scale <= 1). */
    double budget_scale_per_level = 0.5;
    /** Added to every region's temporal skip factor per level. */
    i32 skip_boost_per_level = 1;
    /** Decode-quarantined frames in a row before health is Quarantined. */
    int quarantine_streak = 3;
    /** Healthy frames in a row before health steps back toward Healthy. */
    int recover_streak = 4;
};

/** What one pipeline frame reported back. */
struct FrameHealth {
    bool deadline_missed = false;    //!< frame exceeded its deadline
    bool decode_quarantined = false; //!< decode rejected the frame
    u32 transient_faults = 0;        //!< retried/contained faults observed
    bool shed = false;    //!< dropped before decode (the ladder: a miss)
    bool errored = false; //!< a stage threw; no picture was produced
};

/**
 * Stream health, exported in rpx-fleet-report-v1.
 *
 *   Healthy ⇄ Degraded ⇄ Quarantined → Evicted
 *
 * Frame outcomes drive every transition except the last: Evicted is
 * terminal and only entered by evict() (the fleet applies the watchdog's
 * verdict when the stream's in-flight frame retires).
 */
enum class HealthState : u32 {
    Healthy = 0,
    Degraded,
    Quarantined,
    Evicted,
};

/** Printable state name ("healthy", ...). */
const char *healthStateName(HealthState state);

/** Lifetime action counters. */
struct DegradationStats {
    u64 frames = 0;          //!< frames the ladder saw (errored ones skip it)
    u64 deadline_misses = 0; //!< ladder misses: deadline missed or shed
    u64 quarantines = 0;
    u64 held_frames = 0;     //!< frames served as hold-last-good
    u64 transient_faults = 0;
    u64 escalations = 0;
    u64 recoveries = 0;
    u64 health_transitions = 0;
    u64 health_recoveries = 0; //!< Quarantined -> Degraded steps
};

/**
 * The per-stream outcome controller. Feed it exactly one FrameHealth per
 * frame via onFrame(); read the knobs before encoding the next frame.
 */
class DegradationController
{
  public:
    explicit DegradationController(const DegradationConfig &config);
    DegradationController() : DegradationController(DegradationConfig{}) {}

    const DegradationConfig &config() const { return config_; }

    /** Record one frame's outcome: move the level, then the health state. */
    void onFrame(const FrameHealth &health);

    /** External verdict (watchdog eviction). Terminal. */
    void evict() { moveTo(HealthState::Evicted); }

    /** Current degradation level; 0 = full quality. */
    int level() const { return level_; }

    /** Current health state. */
    HealthState health() const { return state_; }

    /** True when the frame just reported should be held-last-good. */
    bool holdLastGood() const { return hold_; }

    /** Region-count multiplier for the current level (1.0 at level 0). */
    double regionBudgetScale() const;

    /** Temporal-skip increment for the current level (0 at level 0). */
    i32 skipBoost() const;

    const DegradationStats &stats() const { return stats_; }

    /**
     * Attach an observability context: "degrade.escalations" and
     * "degrade.recoveries" counters plus a "degrade.level" gauge mirror
     * the ladder. Null detaches.
     */
    void attachObs(obs::ObsContext *ctx);

  private:
    void stepLevel(const FrameHealth &health);
    void stepHealth(bool quarantined, bool dirty);
    void moveTo(HealthState next);

    DegradationConfig config_;
    int level_ = 0;
    int miss_streak_ = 0;
    int clean_streak_ = 0; //!< ladder: frames since a miss or quarantine
    bool hold_ = false;
    HealthState state_ = HealthState::Healthy;
    int quarantine_run_ = 0; //!< consecutive decode-quarantined frames
    int decoded_run_ = 0;    //!< consecutive frames that decoded
    int healthy_run_ = 0;    //!< consecutive fully-clean frames at level 0
    DegradationStats stats_;

    obs::Counter *obs_escalations_ = nullptr;
    obs::Counter *obs_recoveries_ = nullptr;
    obs::Gauge *obs_level_ = nullptr;
};

} // namespace rpx::fault

#endif // RPX_FAULT_DEGRADATION_HPP
