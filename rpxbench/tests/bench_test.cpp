/**
 * @file
 * Tests of the benchmark's own logic: the ten-samples-beyond percentile
 * rule, the order-independent frame digest, metric naming (and that
 * BENCHMARK.json lists exactly the metrics the benchmark prints), and that
 * a fleet round delivers exactly what the serial stage replay does.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <sstream>

#include "common/json.hpp"
#include "workloads.hpp"

using namespace rpxbench;

namespace {

std::vector<double>
iota(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0); // 1..n
    std::shuffle(v.begin(), v.end(), std::mt19937(7));
    return v;
}

} // namespace

TEST(ExactQuantile, ReportsOnlyWithTenSamplesBeyond)
{
    // p99 of 1..1000 is 990: exactly ten samples lie beyond it.
    ASSERT_TRUE(exactQuantile(iota(1000), 0.99).has_value());
    EXPECT_EQ(*exactQuantile(iota(1000), 0.99), 990.0);
    EXPECT_FALSE(exactQuantile(iota(999), 0.99).has_value());

    ASSERT_TRUE(exactQuantile(iota(100), 0.9).has_value());
    EXPECT_EQ(*exactQuantile(iota(100), 0.9), 90.0);
    EXPECT_FALSE(exactQuantile(iota(99), 0.9).has_value());

    EXPECT_EQ(*exactQuantile(iota(20), 0.5), 10.0);
    EXPECT_FALSE(exactQuantile(iota(19), 0.5).has_value());
    EXPECT_FALSE(exactQuantile({}, 0.5).has_value());
}

TEST(ExactQuantile, IsARawSampleNotAnInterpolation)
{
    const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                   11, 12, 13, 14, 15, 16, 17, 18, 19, 1000};
    EXPECT_EQ(*exactQuantile(v, 0.5, 1), 10.0);
    EXPECT_EQ(median(v), 10.5);
}

TEST(FrameDigest, IsIndependentOfDeliveryOrder)
{
    rpx::Image a(8, 4), b(8, 4);
    b.fill(7);
    std::vector<u64> hashes;
    for (u32 s = 0; s < 3; ++s)
        for (u64 f = 0; f < 5; ++f)
            hashes.push_back(frameHash(s, f, (s + f) % 2 ? a : b));

    FrameDigest in_order, shuffled;
    for (u64 h : hashes)
        in_order.add(h);
    std::shuffle(hashes.begin(), hashes.end(), std::mt19937(11));
    for (u64 h : hashes)
        shuffled.add(h);
    EXPECT_EQ(in_order, shuffled);

    // Merging per-stream digests gives the same value as one digest.
    FrameDigest merged, part;
    for (size_t i = 0; i < hashes.size(); ++i) {
        part.add(hashes[i]);
        if (i % 4 == 3) {
            merged.merge(part);
            part = {};
        }
    }
    merged.merge(part);
    EXPECT_EQ(merged, in_order);

    // A frame delivered twice in place of another changes the digest.
    FrameDigest dup;
    for (size_t i = 0; i < hashes.size(); ++i)
        dup.add(hashes[i == 1 ? 0 : i]);
    EXPECT_NE(dup, in_order);
}

TEST(FrameDigest, KeysOnStreamFrameAndPixels)
{
    rpx::Image a(8, 4), b(8, 4);
    b.fill(1);
    EXPECT_NE(frameHash(0, 1, a), frameHash(1, 0, a));
    EXPECT_NE(frameHash(0, 0, a), frameHash(0, 0, b));
    EXPECT_EQ(frameHash(2, 3, b), frameHash(2, 3, b));
}

TEST(MetricNames, FollowTheCharset)
{
    EXPECT_TRUE(validMetricName("frames_per_s"));
    EXPECT_TRUE(validMetricName("fleet.decode_queue.pop_wait_ratio"));
    EXPECT_TRUE(validMetricName("9lives"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".hidden"));
    EXPECT_FALSE(validMetricName("_x"));
    EXPECT_FALSE(validMetricName("a b"));
    EXPECT_FALSE(validMetricName("a/b"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));

    EXPECT_TRUE(validUnit("1/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("m s"));
    EXPECT_FALSE(validUnit(std::string(17, 'u')));

    std::set<std::string> seen;
    for (const auto *catalog : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &m : *catalog) {
            EXPECT_TRUE(validMetricName(m.name)) << m.name;
            EXPECT_TRUE(validUnit(m.unit)) << m.name;
            EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
            EXPECT_TRUE(std::string(m.kind) == "wall" ||
                        std::string(m.kind) == "model");
        }
    }
}

TEST(MetricNames, MatchBenchmarkJson)
{
    std::ifstream in(RPXBENCH_BENCHMARK_JSON);
    ASSERT_TRUE(in.good()) << RPXBENCH_BENCHMARK_JSON;
    std::stringstream ss;
    ss << in.rdbuf();
    const rpx::json::Value doc = rpx::json::parse(ss.str());
    auto check = [&](const char *key, const std::vector<MetricSpec> &cat) {
        const auto &listed = doc.at(key).array();
        ASSERT_EQ(listed.size(), cat.size()) << key;
        for (size_t i = 0; i < cat.size(); ++i) {
            EXPECT_EQ(listed[i].at("name").str(), cat[i].name);
            EXPECT_EQ(listed[i].at("unit").str(), cat[i].unit);
            EXPECT_EQ(listed[i].at("better").str(), cat[i].better);
        }
    };
    check("end_to_end", endToEndMetrics());
    check("per_layer", perLayerMetrics());
}

TEST(ResultJson, HasExactlyTheContractKeys)
{
    RunResult r;
    r.attempted = 3;
    for (const MetricSpec &m : endToEndMetrics())
        r.end_to_end.set(m.name, 1.5);
    const rpx::json::Value v = rpx::json::parse(resultJson(r, false));
    EXPECT_EQ(v.object().size(), 4u);
    EXPECT_TRUE(v.at("correct").boolean());
    EXPECT_EQ(v.at("attempted").number(), 3.0);
    EXPECT_EQ(v.at("failed").number(), 0.0);
    EXPECT_EQ(v.at("metrics").object().size(), endToEndMetrics().size());
    EXPECT_EQ(v.at("metrics").at("setup_s").at("unit").str(), "s");

    r.fail("digest mismatch");
    const rpx::json::Value bad = rpx::json::parse(resultJson(r, false));
    EXPECT_FALSE(bad.at("correct").boolean());
    EXPECT_TRUE(bad.at("metrics").object().empty());
}

class ReplayVsFleet : public ::testing::TestWithParam<bool>
{
};

TEST_P(ReplayVsFleet, FleetDeliversWhatTheSerialReplayDelivers)
{
    FleetShape shape;
    shape.streams = 3;
    shape.frames_per_stream = 120;
    shape.engines = 2;
    shape.faulty = GetParam();
    const FleetInputs in = makeFleetInputs(5, shape);

    const SerialReplay plain = serialReplay(in, false);
    const SerialReplay traced = serialReplay(in, true);
    EXPECT_EQ(plain.out.delivered(), 360u);
    EXPECT_TRUE(traced.out.sameOutput(plain.out));
    EXPECT_EQ(traced.traced.totals().size() + traced.untraced.totals().size(),
              360u);

    for (int round = 0; round < 2; ++round) {
        const FleetRound r = runFleetRound(in);
        EXPECT_EQ(r.report.frames, 360u);
        EXPECT_EQ(r.report.errors, 0u);
        EXPECT_EQ(r.latency_us.size(), 360u);
        EXPECT_EQ(r.out.digest, plain.out.digest);
        EXPECT_TRUE(r.out.sameOutput(plain.out));
        EXPECT_EQ(r.report.quarantined, plain.out.quarantined);
    }
    if (GetParam()) {
        EXPECT_GT(plain.out.quarantined, 0u);
        EXPECT_LT(plain.out.quarantined, 360u);
    } else {
        EXPECT_EQ(plain.out.held, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(FaultFreeAndFaulty, ReplayVsFleet,
                         ::testing::Values(false, true));

TEST(Canary, MatchesThePinnedDigest)
{
    EXPECT_EQ(canaryDigest(), kPinnedCanary);
}
