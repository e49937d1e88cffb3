/** @file Unit tests for the brute-force descriptor matcher. */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "datasets/slam_dataset.hpp"
#include "vision/matcher.hpp"

namespace rpx {
namespace {

Descriptor
pattern(u8 seed)
{
    Descriptor d{};
    for (size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<u8>(seed * 37 + i * 11);
    return d;
}

/** Flip `bits` low bits of a descriptor. */
Descriptor
corrupt(Descriptor d, int bits)
{
    for (int i = 0; i < bits; ++i)
        d[static_cast<size_t>(i / 8)] ^= static_cast<u8>(1u << (i % 8));
    return d;
}

TEST(Matcher, ExactMatches)
{
    const std::vector<Descriptor> train{pattern(1), pattern(2),
                                        pattern(3)};
    const std::vector<Descriptor> query{pattern(2)};
    const auto matches = matchDescriptors(query, train);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].train_index, 1u);
    EXPECT_EQ(matches[0].distance, 0);
}

TEST(Matcher, MaxDistanceRejects)
{
    const std::vector<Descriptor> train{pattern(1)};
    const std::vector<Descriptor> query{corrupt(pattern(1), 100)};
    MatchOptions opts;
    opts.max_distance = 50;
    opts.ratio = 0.0;
    EXPECT_TRUE(matchDescriptors(query, train, opts).empty());
    opts.max_distance = 128;
    EXPECT_EQ(matchDescriptors(query, train, opts).size(), 1u);
}

TEST(Matcher, RatioTestRejectsAmbiguous)
{
    // Two near-identical train entries make the best/second-best ratio
    // approach 1 and fail Lowe's test.
    const Descriptor base = pattern(7);
    const std::vector<Descriptor> train{corrupt(base, 4),
                                        corrupt(base, 5)};
    const std::vector<Descriptor> query{base};
    MatchOptions opts;
    opts.ratio = 0.8;
    opts.cross_check = false;
    EXPECT_TRUE(matchDescriptors(query, train, opts).empty());
    opts.ratio = 0.0; // disabled
    EXPECT_EQ(matchDescriptors(query, train, opts).size(), 1u);
}

TEST(Matcher, CrossCheckRequiresMutual)
{
    // q0 is closest to t0, but t0 is closer to q1: cross-check kills q0.
    const Descriptor t0 = pattern(9);
    const std::vector<Descriptor> train{t0};
    const std::vector<Descriptor> query{corrupt(t0, 6), corrupt(t0, 2)};
    MatchOptions opts;
    opts.ratio = 0.0;
    const auto matches = matchDescriptors(query, train, opts);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].query_index, 1u);
}

TEST(Matcher, EmptyInputs)
{
    EXPECT_TRUE(matchDescriptors({}, {pattern(1)}).empty());
    EXPECT_TRUE(matchDescriptors({pattern(1)}, {}).empty());
}

TEST(Matcher, DescriptorsOfExtracts)
{
    std::vector<OrbFeature> features(2);
    features[0].descriptor = pattern(1);
    features[1].descriptor = pattern(2);
    const auto d = descriptorsOf(features);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0], pattern(1));
    EXPECT_EQ(d[1], pattern(2));
}

TEST(Matcher, ManyToManyConsistency)
{
    std::vector<Descriptor> train;
    for (u8 i = 0; i < 20; ++i)
        train.push_back(pattern(i));
    std::vector<Descriptor> query;
    for (u8 i = 0; i < 20; ++i)
        query.push_back(corrupt(pattern(i), 1));
    const auto matches = matchDescriptors(query, train);
    EXPECT_GT(matches.size(), 15u);
    for (const auto &m : matches)
        EXPECT_EQ(m.query_index, m.train_index);
}

// --- Differential test against the two-scan matcher ----------------------

/** Byte-wise Hamming distance, independent of simd::hamming256. */
int
referenceDistance(const Descriptor &a, const Descriptor &b)
{
    int dist = 0;
    for (size_t i = 0; i < a.size(); ++i)
        dist += std::popcount(static_cast<unsigned>(a[i] ^ b[i]));
    return dist;
}

struct OracleBest {
    int best = std::numeric_limits<int>::max();
    int second = std::numeric_limits<int>::max();
    size_t best_index = 0;
};

OracleBest
oracleNearest(const Descriptor &d, const std::vector<Descriptor> &pool)
{
    OracleBest out;
    for (size_t i = 0; i < pool.size(); ++i) {
        const int dist = referenceDistance(d, pool[i]);
        if (dist < out.best) {
            out.second = out.best;
            out.best = dist;
            out.best_index = i;
        } else if (dist < out.second) {
            out.second = dist;
        }
    }
    return out;
}

/**
 * The original matcher: a full forward scan per query, and a full reverse
 * scan per surviving candidate for the cross-check.
 */
std::vector<Match>
oracleMatch(const std::vector<Descriptor> &query,
            const std::vector<Descriptor> &train,
            const MatchOptions &options)
{
    std::vector<Match> matches;
    if (query.empty() || train.empty())
        return matches;
    for (size_t qi = 0; qi < query.size(); ++qi) {
        const OracleBest fwd = oracleNearest(query[qi], train);
        if (fwd.best > options.max_distance)
            continue;
        if (options.ratio > 0.0 &&
            fwd.second != std::numeric_limits<int>::max() &&
            static_cast<double>(fwd.best) >=
                options.ratio * static_cast<double>(fwd.second)) {
            continue;
        }
        if (options.cross_check) {
            const OracleBest back = oracleNearest(train[fwd.best_index],
                                                  query);
            if (back.best_index != qi)
                continue;
        }
        matches.push_back({qi, fwd.best_index, fwd.best});
    }
    return matches;
}

using MatchTuple = std::tuple<size_t, size_t, int>;

std::vector<MatchTuple>
tuples(const std::vector<Match> &matches)
{
    std::vector<MatchTuple> out;
    for (const Match &m : matches)
        out.emplace_back(m.query_index, m.train_index, m.distance);
    return out;
}

/** Every ratio on/off x cross_check on/off x max_distance 0/64/256. */
std::vector<MatchOptions>
allOptions()
{
    std::vector<MatchOptions> out;
    for (const double ratio : {0.0, 0.8})
        for (const bool cross : {false, true})
            for (const int max_distance : {0, 64, 256}) {
                MatchOptions o;
                o.ratio = ratio;
                o.cross_check = cross;
                o.max_distance = max_distance;
                out.push_back(o);
            }
    return out;
}

std::string
describe(const MatchOptions &o)
{
    return "ratio=" + std::to_string(o.ratio) +
           " cross=" + std::to_string(o.cross_check) +
           " max=" + std::to_string(o.max_distance);
}

/** RAII SIMD level override; restores the startup level. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(simd::Level level) { ok_ = simd::setLevel(level); }
    ~ScopedLevel() { simd::resetLevel(); }
    bool ok() const { return ok_; }

  private:
    bool ok_ = false;
};

/**
 * Descriptors that tie a lot: a few random centres, each copied with 0..3
 * flipped bits (so many pairs sit at the same small distance), plus exact
 * duplicates of earlier entries.
 */
std::vector<Descriptor>
clustered(Rng &rng, size_t n, const std::vector<Descriptor> &centres)
{
    std::vector<Descriptor> out;
    for (size_t i = 0; i < n; ++i) {
        if (!out.empty() && rng.uniformInt(0, 4) == 0) {
            out.push_back(out[static_cast<size_t>(
                rng.uniformInt(0, static_cast<i64>(out.size()) - 1))]);
            continue;
        }
        Descriptor d = centres[static_cast<size_t>(
            rng.uniformInt(0, static_cast<i64>(centres.size()) - 1))];
        const i64 flips = rng.uniformInt(0, 3);
        for (i64 f = 0; f < flips; ++f) {
            const i64 bit = rng.uniformInt(0, 255);
            d[static_cast<size_t>(bit / 8)] ^=
                static_cast<u8>(1u << (bit % 8));
        }
        out.push_back(d);
    }
    return out;
}

void
expectSameAsOracleAtEveryLevel(const std::vector<Descriptor> &query,
                               const std::vector<Descriptor> &train,
                               const std::string &what)
{
    for (const MatchOptions &o : allOptions()) {
        const auto want = tuples(oracleMatch(query, train, o));
        for (const simd::Level level : simd::supportedLevels()) {
            ScopedLevel guard(level);
            ASSERT_TRUE(guard.ok()) << simd::levelName(level);
            ASSERT_EQ(tuples(matchDescriptors(query, train, o)), want)
                << what << " " << describe(o) << " level "
                << simd::levelName(level);
        }
    }
}

TEST(Matcher, SinglePassMatchesTwoScanOracleOnTies)
{
    Rng rng(1234);
    std::vector<Descriptor> centres;
    for (int c = 0; c < 4; ++c) {
        Descriptor d{};
        for (u8 &b : d)
            b = static_cast<u8>(rng.uniformInt(0, 255));
        centres.push_back(d);
    }
    const std::pair<size_t, size_t> shapes[] = {
        {0, 5}, {5, 0}, {1, 1}, {1, 9}, {9, 1},
        {2, 2}, {13, 40}, {40, 13}, {64, 64}, {100, 37},
    };
    for (const auto &[nq, nt] : shapes) {
        for (int rep = 0; rep < 4; ++rep) {
            const auto query = clustered(rng, nq, centres);
            const auto train = clustered(rng, nt, centres);
            expectSameAsOracleAtEveryLevel(
                query, train,
                "q=" + std::to_string(nq) + " t=" + std::to_string(nt));
        }
    }
}

TEST(Matcher, SinglePassMatchesTwoScanOracleOnExtremes)
{
    Descriptor zeros{};
    Descriptor ones{};
    ones.fill(0xFF);
    // All-equal pools: every distance ties at 0 (or 256).
    expectSameAsOracleAtEveryLevel({zeros, zeros, zeros},
                                   {zeros, zeros, ones, zeros}, "equal");
    expectSameAsOracleAtEveryLevel({ones, zeros}, {zeros, ones}, "swap");
    expectSameAsOracleAtEveryLevel({ones}, {zeros}, "distance 256");
}

TEST(Matcher, SinglePassMatchesTwoScanOracleOnSlamFrames)
{
    // Real ORB descriptors of two consecutive frames: the query/train pair
    // FeaturePolicy::observe matches.
    SlamSequenceConfig cfg;
    cfg.frames = 2;
    const SlamSequence seq(cfg);
    const auto query = descriptorsOf(detectOrb(seq.renderFrame(1)));
    const auto train = descriptorsOf(detectOrb(seq.renderFrame(0)));
    ASSERT_GT(query.size(), 100u);
    ASSERT_GT(train.size(), 100u);
    expectSameAsOracleAtEveryLevel(query, train, "slam frames 1 vs 0");
}

} // namespace
} // namespace rpx
