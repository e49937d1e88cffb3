/**
 * @file
 * DegradationController ladder tests: escalation on consecutive deadline
 * misses, hold-last-good on quarantine, recovery after clean streaks, and
 * level clamping.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/degradation.hpp"

namespace rpx {
namespace {

using fault::DegradationConfig;
using fault::DegradationController;
using fault::FrameHealth;

constexpr FrameHealth kClean{};
constexpr FrameHealth kMissed{true, false, 0};
constexpr FrameHealth kQuarantined{false, true, 0};

DegradationConfig
testConfig()
{
    DegradationConfig c;
    c.escalate_after_misses = 2;
    c.recover_after_clean = 3;
    c.max_level = 3;
    c.budget_scale_per_level = 0.5;
    c.skip_boost_per_level = 1;
    return c;
}

TEST(Degradation, StartsAtFullQuality)
{
    DegradationController ctl(testConfig());
    EXPECT_EQ(ctl.level(), 0);
    EXPECT_DOUBLE_EQ(ctl.regionBudgetScale(), 1.0);
    EXPECT_EQ(ctl.skipBoost(), 0);
    EXPECT_FALSE(ctl.holdLastGood());
}

TEST(Degradation, EscalatesAfterConsecutiveMisses)
{
    DegradationController ctl(testConfig());
    ctl.onFrame(kMissed);
    EXPECT_EQ(ctl.level(), 0); // one miss is not a streak yet
    ctl.onFrame(kMissed);
    EXPECT_EQ(ctl.level(), 1);
    EXPECT_EQ(ctl.stats().escalations, 1u);
    EXPECT_DOUBLE_EQ(ctl.regionBudgetScale(), 0.5);
    EXPECT_EQ(ctl.skipBoost(), 1);
}

TEST(Degradation, CleanFrameBreaksMissStreak)
{
    DegradationController ctl(testConfig());
    ctl.onFrame(kMissed);
    ctl.onFrame(kClean);
    ctl.onFrame(kMissed);
    EXPECT_EQ(ctl.level(), 0); // never two misses in a row
    EXPECT_EQ(ctl.stats().escalations, 0u);
}

TEST(Degradation, QuarantineHoldsLastGoodWithoutEscalating)
{
    DegradationController ctl(testConfig());
    ctl.onFrame(kQuarantined);
    EXPECT_TRUE(ctl.holdLastGood());
    EXPECT_EQ(ctl.level(), 0); // quarantine alone does not escalate
    EXPECT_EQ(ctl.stats().quarantines, 1u);
    EXPECT_EQ(ctl.stats().held_frames, 1u);

    ctl.onFrame(kClean);
    EXPECT_FALSE(ctl.holdLastGood());
}

TEST(Degradation, QuarantineResetsCleanStreak)
{
    DegradationController ctl(testConfig());
    ctl.onFrame(kMissed);
    ctl.onFrame(kMissed); // level 1
    ctl.onFrame(kClean);
    ctl.onFrame(kClean);
    ctl.onFrame(kQuarantined); // interrupts recovery progress
    ctl.onFrame(kClean);
    ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 1); // streak restarted, not yet recovered
    ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 0);
}

TEST(Degradation, RecoversStepwiseAfterCleanStreaks)
{
    DegradationController ctl(testConfig());
    for (int i = 0; i < 4; ++i)
        ctl.onFrame(kMissed); // two escalations -> level 2
    EXPECT_EQ(ctl.level(), 2);

    for (int i = 0; i < 3; ++i)
        ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 1); // one step back per full clean streak
    for (int i = 0; i < 3; ++i)
        ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 0);
    EXPECT_EQ(ctl.stats().recoveries, 2u);

    for (int i = 0; i < 3; ++i)
        ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 0); // no underflow below full quality
}

TEST(Degradation, ClampsAtMaxLevel)
{
    DegradationController ctl(testConfig());
    for (int i = 0; i < 20; ++i)
        ctl.onFrame(kMissed);
    EXPECT_EQ(ctl.level(), 3);
    EXPECT_DOUBLE_EQ(ctl.regionBudgetScale(), 0.125);
    EXPECT_EQ(ctl.skipBoost(), 3);
    EXPECT_EQ(ctl.stats().escalations, 3u); // clamped, not counted past max
}

TEST(Degradation, TransientFaultsAreCountedNotEscalated)
{
    DegradationController ctl(testConfig());
    FrameHealth h;
    h.transient_faults = 5;
    for (int i = 0; i < 10; ++i)
        ctl.onFrame(h);
    EXPECT_EQ(ctl.level(), 0);
    EXPECT_EQ(ctl.stats().transient_faults, 50u);
    EXPECT_EQ(ctl.stats().frames, 10u);
}

TEST(Degradation, InvalidConfigRejected)
{
    DegradationConfig bad = testConfig();
    bad.escalate_after_misses = 0;
    EXPECT_THROW(DegradationController{bad}, std::invalid_argument);

    bad = testConfig();
    bad.budget_scale_per_level = 1.5;
    EXPECT_THROW(DegradationController{bad}, std::invalid_argument);

    // A zero quarantine streak would quarantine a stream on its first
    // clean frame; a zero recover streak would heal on a dirty one.
    bad = testConfig();
    bad.quarantine_streak = 0;
    EXPECT_THROW(DegradationController{bad}, std::invalid_argument);

    bad = testConfig();
    bad.recover_streak = 0;
    EXPECT_THROW(DegradationController{bad}, std::invalid_argument);
}

/** One fleet frame outcome, as the outcome path reports it. */
struct Outcome {
    bool missed = false;
    bool quarantined = false;
    bool shed = false;
    bool errored = false;
    u32 transient = 0;
};

u64
splitmix(u64 &state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * A seeded two-state (calm / burst) outcome source: long calm stretches
 * with rare faults, then bursts where most frames miss, shed, quarantine
 * or error. Bursts are long enough to escalate and quarantine, calm
 * stretches long enough to recover.
 */
std::vector<Outcome>
burstyOutcomes(u64 seed, size_t n)
{
    std::vector<Outcome> seq;
    seq.reserve(n);
    u64 state = seed;
    bool burst = false;
    for (size_t i = 0; i < n; ++i) {
        const u64 r = splitmix(state);
        if ((r & 0xff) < (burst ? 20u : 6u))
            burst = !burst;
        const u32 kind = static_cast<u32>((r >> 8) % 100);
        Outcome o;
        o.transient = (r >> 16) % 4 == 0 ? 1 : 0;
        if (burst) {
            o.missed = kind < 40 || (kind >= 80 && kind < 88);
            o.shed = kind >= 40 && kind < 60;
            o.quarantined = kind >= 60 && kind < 88;
            o.errored = kind >= 88 && kind < 95;
        } else {
            o.missed = kind < 3;
            o.shed = kind == 3;
            o.quarantined = kind == 4;
            o.errored = kind == 5;
        }
        if (o.errored)
            o = Outcome{false, false, false, true, 0};
        seq.push_back(o);
    }
    return seq;
}

void
fnv(u64 &h, u64 v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

/**
 * The controller reproduces, frame for frame, the trajectory of the two
 * machines it replaced: a ladder fed missed||shed that skipped errored
 * frames, then a health machine fed the post-update level (or a decode
 * quarantine for an errored frame). The constant hashes per-frame
 * (level, health) plus the final escalations, recoveries, health
 * transitions and health recoveries under the default and a
 * small-threshold config; it was computed from those two machines.
 */
TEST(Degradation, FoldedControllerMatchesPinnedTrajectory)
{
    DegradationConfig small;
    small.escalate_after_misses = 1;
    small.recover_after_clean = 2;
    small.max_level = 2;
    small.quarantine_streak = 1;
    small.recover_streak = 2;
    const std::vector<Outcome> seq = burstyOutcomes(20'240'611, 12'000);

    u64 hash = 0xcbf29ce484222325ull;
    for (const DegradationConfig &config : {DegradationConfig{}, small}) {
        DegradationController ctl(config);
        u64 quarantined_frames = 0;
        for (const Outcome &o : seq) {
            ctl.onFrame(FrameHealth{o.missed, o.quarantined, o.transient,
                                    o.shed, o.errored});
            fnv(hash, static_cast<u64>(ctl.level()));
            fnv(hash, static_cast<u64>(ctl.health()));
            quarantined_frames +=
                ctl.health() == fault::HealthState::Quarantined;
        }
        fnv(hash, ctl.stats().escalations);
        fnv(hash, ctl.stats().recoveries);
        fnv(hash, ctl.stats().health_transitions);
        fnv(hash, ctl.stats().health_recoveries);
        // The sequence exercises every edge the pin is meant to hold.
        EXPECT_GT(ctl.stats().escalations, 10u);
        EXPECT_GT(ctl.stats().recoveries, 10u);
        EXPECT_GT(ctl.stats().health_recoveries, 10u);
        EXPECT_GT(quarantined_frames, 0u);
        EXPECT_LT(ctl.stats().frames, seq.size()); // errored frames skip it
    }
    EXPECT_EQ(hash, 0xe811fb53677ae841ull);
}

} // namespace
} // namespace rpx
