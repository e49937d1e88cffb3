/** @file Unit tests for the overload-protection layer (rpx::guard) and
 *  the fleet chaos injector (rpx::fault::ChaosInjector). */

#include <gtest/gtest.h>

#include <string>

#include "fault/chaos.hpp"
#include "fault/degradation.hpp"
#include "fault/fault.hpp"
#include "guard/guard.hpp"

namespace rpx {
namespace {

// Stream health lives in the per-stream outcome controller; these feed it
// the frame outcomes the fleet reports and read back the health state.

fault::FrameHealth
cleanFrame()
{
    return {};
}

fault::FrameHealth
quarantinedFrame()
{
    fault::FrameHealth s;
    s.decode_quarantined = true;
    return s;
}

fault::FrameHealth
shedFrame()
{
    fault::FrameHealth s;
    s.shed = true;
    return s;
}

TEST(HealthMachine, StartsHealthyAndStaysOnCleanFrames)
{
    fault::DegradationController hm;
    for (int i = 0; i < 10; ++i)
        hm.onFrame(cleanFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Healthy);
    EXPECT_EQ(hm.stats().health_transitions, 0u);
    EXPECT_EQ(hm.stats().health_recoveries, 0u);
}

TEST(HealthMachine, SingleDirtyFrameDegrades)
{
    fault::DegradationController hm;
    hm.onFrame(shedFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Degraded);
    EXPECT_EQ(hm.stats().health_transitions, 1u);
}

TEST(HealthMachine, QuarantineStreakQuarantines)
{
    fault::DegradationConfig cfg;
    cfg.quarantine_streak = 3;
    fault::DegradationController hm(cfg);
    hm.onFrame(quarantinedFrame());
    hm.onFrame(quarantinedFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Degraded);
    hm.onFrame(quarantinedFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Quarantined);
}

TEST(HealthMachine, BrokenStreakDoesNotQuarantine)
{
    fault::DegradationConfig cfg;
    cfg.quarantine_streak = 3;
    fault::DegradationController hm(cfg);
    for (int i = 0; i < 6; ++i) {
        hm.onFrame(quarantinedFrame());
        hm.onFrame(quarantinedFrame());
        hm.onFrame(cleanFrame()); // streak broken every time
    }
    EXPECT_NE(hm.health(), fault::HealthState::Quarantined);
}

TEST(HealthMachine, RecoversThroughDegradedToHealthy)
{
    fault::DegradationConfig cfg;
    cfg.quarantine_streak = 2;
    cfg.recover_streak = 3;
    fault::DegradationController hm(cfg);
    hm.onFrame(quarantinedFrame());
    hm.onFrame(quarantinedFrame());
    ASSERT_EQ(hm.health(), fault::HealthState::Quarantined);

    // Three decoded frames step back to Degraded (the recovery the
    // counter tracks), three fully-clean frames then restore Healthy.
    hm.onFrame(cleanFrame());
    hm.onFrame(cleanFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Quarantined);
    hm.onFrame(cleanFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Degraded);
    EXPECT_EQ(hm.stats().health_recoveries, 1u);
    hm.onFrame(cleanFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Healthy);
    EXPECT_EQ(hm.stats().health_recoveries, 1u);
}

TEST(HealthMachine, QuarantineRecoveryToleratesShedFrames)
{
    // Quarantined is about decode integrity: a stream that sheds under
    // load but decodes what it keeps still earns probation.
    fault::DegradationConfig cfg;
    cfg.quarantine_streak = 2;
    cfg.recover_streak = 2;
    // The four shed frames would otherwise escalate the ladder, and a
    // degraded level keeps health out of Healthy.
    cfg.max_level = 0;
    fault::DegradationController hm(cfg);
    hm.onFrame(quarantinedFrame());
    hm.onFrame(quarantinedFrame());
    ASSERT_EQ(hm.health(), fault::HealthState::Quarantined);
    hm.onFrame(shedFrame());
    hm.onFrame(shedFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Degraded);
    EXPECT_EQ(hm.stats().health_recoveries, 1u);
    // But the final step to Healthy needs fully-clean frames.
    hm.onFrame(shedFrame());
    hm.onFrame(shedFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Degraded);
    hm.onFrame(cleanFrame());
    hm.onFrame(cleanFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Healthy);
}

TEST(HealthMachine, EvictIsTerminal)
{
    fault::DegradationController hm;
    hm.evict();
    EXPECT_EQ(hm.health(), fault::HealthState::Evicted);
    for (int i = 0; i < 20; ++i)
        hm.onFrame(cleanFrame());
    EXPECT_EQ(hm.health(), fault::HealthState::Evicted);
    EXPECT_EQ(hm.stats().health_transitions, 1u);
}

TEST(HealthMachine, DeterministicForSameSignalSequence)
{
    fault::DegradationController a, b;
    const fault::FrameHealth seq[] = {quarantinedFrame(), shedFrame(),
                                      cleanFrame(), quarantinedFrame(),
                                      quarantinedFrame(),
                                      quarantinedFrame(), cleanFrame()};
    for (const auto &s : seq) {
        a.onFrame(s);
        b.onFrame(s);
    }
    EXPECT_EQ(a.health(), b.health());
    EXPECT_EQ(a.stats().health_transitions, b.stats().health_transitions);
    EXPECT_EQ(a.stats().health_recoveries, b.stats().health_recoveries);
}

TEST(GuardNames, AllEnumeratorsHaveNames)
{
    EXPECT_STREQ(fault::healthStateName(fault::HealthState::Healthy),
                 "healthy");
    EXPECT_STREQ(fault::healthStateName(fault::HealthState::Degraded),
                 "degraded");
    EXPECT_STREQ(
        fault::healthStateName(fault::HealthState::Quarantined),
        "quarantined");
    EXPECT_STREQ(fault::healthStateName(fault::HealthState::Evicted),
                 "evicted");
    EXPECT_STREQ(
        guard::admissionPolicyName(guard::AdmissionPolicy::HardCapOnly),
        "hard_cap");
    EXPECT_STREQ(guard::admissionPolicyName(
                     guard::AdmissionPolicy::CapacityModel),
                 "capacity");
}

TEST(FaultStage, ShedStageIsNamedAndCounted)
{
    EXPECT_STREQ(fault::stageName(fault::Stage::Shed), "shed");
    EXPECT_EQ(static_cast<size_t>(fault::Stage::Shed) + 1,
              fault::kStageCount);
}

TEST(Chaos, SiteNamesCoverAllSites)
{
    EXPECT_STREQ(fault::chaosSiteName(fault::ChaosSite::CaptureJitter),
                 "capture_jitter");
    EXPECT_STREQ(fault::chaosSiteName(fault::ChaosSite::WorkerStall),
                 "worker_stall");
    EXPECT_STREQ(fault::chaosSiteName(fault::ChaosSite::SlowLease),
                 "slow_lease");
    EXPECT_STREQ(fault::chaosSiteName(fault::ChaosSite::QueueBurst),
                 "queue_burst");
}

TEST(Chaos, DecisionsAreDeterministicAndOrderFree)
{
    fault::ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 42;
    cfg.worker_stall_rate = 0.3;
    fault::ChaosInjector a(cfg), b(cfg);

    // Same (site, stream, frame) -> same verdict. `b` is consulted in
    // reverse order (and with extra interleaved draws) to show the
    // decision is a pure hash, not a shared RNG stream.
    for (u32 s = 0; s < 8; ++s)
        for (u64 f = 0; f < 64; ++f) {
            (void)b.wouldHit(fault::ChaosSite::WorkerStall, 7 - s,
                             63 - f);
            ASSERT_EQ(a.wouldHit(fault::ChaosSite::WorkerStall, s, f),
                      b.wouldHit(fault::ChaosSite::WorkerStall, s, f));
        }
}

TEST(Chaos, HitRateTracksConfiguredRate)
{
    fault::ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 7;
    cfg.worker_stall_rate = 0.25;
    fault::ChaosInjector inj(cfg);
    int hits = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        hits += inj.wouldHit(fault::ChaosSite::WorkerStall, 3,
                             static_cast<u64>(i))
                    ? 1
                    : 0;
    EXPECT_GT(hits, n / 8);     // well above half the rate
    EXPECT_LT(hits, (3 * n) / 8); // well below 1.5x the rate
}

TEST(Chaos, ReplacementStreamsDrawIndependentSchedules)
{
    // Stream ids are never reused across generations; a replacement
    // (fresh id) must not inherit the departed stream's chaos schedule.
    fault::ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 99;
    cfg.worker_stall_rate = 0.5;
    fault::ChaosInjector inj(cfg);
    int same = 0;
    const int n = 512;
    for (u64 f = 0; f < n; ++f)
        same += inj.wouldHit(fault::ChaosSite::WorkerStall, 11, f) ==
                        inj.wouldHit(fault::ChaosSite::WorkerStall, 12, f)
                    ? 1
                    : 0;
    // Identical schedules would agree on every frame; independent ones
    // agree about half the time.
    EXPECT_LT(same, (3 * n) / 4);
    EXPECT_GT(same, n / 4);
}

TEST(Chaos, SitesDrawIndependently)
{
    fault::ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 5;
    cfg.worker_stall_rate = 0.5;
    cfg.slow_lease_rate = 0.5;
    fault::ChaosInjector inj(cfg);
    int same = 0;
    const int n = 512;
    for (u64 f = 0; f < n; ++f)
        same += inj.wouldHit(fault::ChaosSite::WorkerStall, 1, f) ==
                        inj.wouldHit(fault::ChaosSite::SlowLease, 1, f)
                    ? 1
                    : 0;
    EXPECT_LT(same, (3 * n) / 4);
    EXPECT_GT(same, n / 4);
}

TEST(Chaos, PerturbSleepsAndCounts)
{
    fault::ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 3;
    cfg.worker_stall_rate = 1.0; // every draw hits
    cfg.worker_stall_us = 100;
    fault::ChaosInjector inj(cfg);
    u64 slept = 0;
    for (u64 f = 0; f < 5; ++f)
        slept += inj.perturb(fault::ChaosSite::WorkerStall, 0, f);
    EXPECT_EQ(slept, 500u);
    const fault::ChaosStats st =
        inj.statsFor(fault::ChaosSite::WorkerStall);
    EXPECT_EQ(st.events, 5u);
    EXPECT_EQ(st.hits, 5u);
    EXPECT_EQ(st.slept_us, 500u);
    EXPECT_EQ(inj.totalHits(), 5u);
    EXPECT_EQ(inj.totalSleptUs(), 500u);
}

TEST(Chaos, ZeroRateSiteNeverHits)
{
    fault::ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 17;
    cfg.worker_stall_rate = 1.0;
    fault::ChaosInjector inj(cfg);
    for (u64 f = 0; f < 256; ++f)
        EXPECT_FALSE(
            inj.wouldHit(fault::ChaosSite::CaptureJitter, 0, f));
    EXPECT_EQ(inj.perturb(fault::ChaosSite::CaptureJitter, 0, 0), 0u);
}

TEST(Chaos, RejectsOutOfRangeRates)
{
    fault::ChaosConfig cfg;
    cfg.enabled = true;
    cfg.worker_stall_rate = 1.5;
    EXPECT_THROW(fault::ChaosInjector{cfg}, std::invalid_argument);
}

} // namespace
} // namespace rpx
