#include "fault/degradation.hpp"

#include <cmath>

#include "common/error.hpp"

namespace rpx::fault {

const char *
healthStateName(HealthState state)
{
    switch (state) {
    case HealthState::Healthy:
        return "healthy";
    case HealthState::Degraded:
        return "degraded";
    case HealthState::Quarantined:
        return "quarantined";
    case HealthState::Evicted:
        return "evicted";
    }
    return "unknown";
}

DegradationController::DegradationController(const DegradationConfig &config)
    : config_(config)
{
    if (config.escalate_after_misses < 1)
        throwInvalid("escalate_after_misses must be >= 1");
    if (config.recover_after_clean < 1)
        throwInvalid("recover_after_clean must be >= 1");
    if (config.max_level < 0)
        throwInvalid("max_level must be >= 0");
    if (config.budget_scale_per_level <= 0.0 ||
        config.budget_scale_per_level > 1.0)
        throwInvalid("budget_scale_per_level must lie in (0, 1]");
    if (config.skip_boost_per_level < 0)
        throwInvalid("skip_boost_per_level must be >= 0");
    if (config.quarantine_streak < 1)
        throwInvalid("quarantine_streak must be >= 1");
    if (config.recover_streak < 1)
        throwInvalid("recover_streak must be >= 1");
}

void
DegradationController::onFrame(const FrameHealth &health)
{
    // An errored frame produced no picture: it skips the ladder and
    // reaches health as a decode quarantine.
    const bool quarantined = health.decode_quarantined || health.errored;
    if (!health.errored)
        stepLevel(health);
    stepHealth(quarantined, quarantined || health.deadline_missed ||
                                health.shed || level_ > 0);
}

void
DegradationController::stepLevel(const FrameHealth &health)
{
    const bool missed = health.deadline_missed || health.shed;
    ++stats_.frames;
    stats_.transient_faults += health.transient_faults;
    hold_ = health.decode_quarantined;
    if (hold_) {
        ++stats_.quarantines;
        ++stats_.held_frames;
    }
    if (missed)
        ++stats_.deadline_misses;

    if (!missed && !health.decode_quarantined) {
        miss_streak_ = 0;
        if (++clean_streak_ >= config_.recover_after_clean && level_ > 0) {
            --level_;
            ++stats_.recoveries;
            clean_streak_ = 0;
            if (obs_recoveries_)
                obs_recoveries_->inc();
        }
    } else {
        clean_streak_ = 0;
        if (missed && ++miss_streak_ >= config_.escalate_after_misses) {
            miss_streak_ = 0;
            if (level_ < config_.max_level) {
                ++level_;
                ++stats_.escalations;
                if (obs_escalations_)
                    obs_escalations_->inc();
            }
        }
    }
    if (obs_level_)
        obs_level_->set(level_);
}

void
DegradationController::stepHealth(bool quarantined, bool dirty)
{
    if (state_ == HealthState::Evicted)
        return;
    quarantine_run_ = quarantined ? quarantine_run_ + 1 : 0;
    decoded_run_ = quarantined ? 0 : decoded_run_ + 1;
    healthy_run_ = dirty ? 0 : healthy_run_ + 1;

    const bool quarantine = quarantine_run_ >= config_.quarantine_streak;
    switch (state_) {
    case HealthState::Healthy:
        if (quarantine)
            moveTo(HealthState::Quarantined);
        else if (dirty)
            moveTo(HealthState::Degraded);
        break;
    case HealthState::Degraded:
        if (quarantine)
            moveTo(HealthState::Quarantined);
        else if (healthy_run_ >= config_.recover_streak)
            moveTo(HealthState::Healthy);
        break;
    case HealthState::Quarantined:
        // Quarantined is about decode integrity, so probation only needs
        // frames that decoded for real — the stream may still be shedding
        // or running degraded. Full health is then judged from Degraded.
        if (decoded_run_ >= config_.recover_streak) {
            ++stats_.health_recoveries;
            moveTo(HealthState::Degraded);
        }
        break;
    case HealthState::Evicted:
        break;
    }
}

void
DegradationController::moveTo(HealthState next)
{
    if (next == state_)
        return;
    state_ = next;
    ++stats_.health_transitions;
}

double
DegradationController::regionBudgetScale() const
{
    return std::pow(config_.budget_scale_per_level, level_);
}

i32
DegradationController::skipBoost() const
{
    return config_.skip_boost_per_level * level_;
}

void
DegradationController::attachObs(obs::ObsContext *ctx)
{
    if (!ctx) {
        obs_escalations_ = obs_recoveries_ = nullptr;
        obs_level_ = nullptr;
        return;
    }
    obs::PerfRegistry &r = ctx->registry();
    obs_escalations_ = &r.counter("degrade.escalations");
    obs_recoveries_ = &r.counter("degrade.recoveries");
    obs_level_ = &r.gauge("degrade.level");
}

} // namespace rpx::fault
