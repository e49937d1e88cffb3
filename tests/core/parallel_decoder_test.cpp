/**
 * @file
 * Decode-path identity suite, modeled on the encoder's band-parallel
 * suite: the reference per-pixel walk, the vectorised row-run fast path,
 * and the band-parallel decoder (Config::threads > 1) must produce
 * byte-identical images (and matching history/black tallies) for every
 * comparison mode, thread count, awkward geometry, and SIMD level —
 * including the corruption-safe tryDecode path with quarantined frames.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "core/encoder.hpp"
#include "core/sw_decoder.hpp"
#include "frame/draw.hpp"

namespace rpx {
namespace {

Image
noiseFrame(i32 w, i32 h, u64 seed)
{
    Rng rng(seed);
    Image img(w, h);
    for (i32 y = 0; y < h; ++y)
        for (i32 x = 0; x < w; ++x)
            img.set(x, y, static_cast<u8>(rng.uniformInt(0, 255)));
    return img;
}

/** A varied, overlapping, y-sorted label list for a w x h frame. */
std::vector<RegionLabel>
scatterRegions(i32 w, i32 h, u64 seed, int count)
{
    Rng rng(seed);
    std::vector<RegionLabel> regions;
    for (int i = 0; i < count; ++i) {
        RegionLabel r;
        r.w = static_cast<i32>(rng.uniformInt(1, std::max<i64>(1, w / 2)));
        r.h = static_cast<i32>(rng.uniformInt(1, std::max<i64>(1, h / 2)));
        r.x = static_cast<i32>(rng.uniformInt(0, w - r.w));
        r.y = static_cast<i32>(rng.uniformInt(0, h - r.h));
        r.stride = static_cast<i32>(rng.uniformInt(1, 3));
        r.skip = static_cast<i32>(rng.uniformInt(1, 3));
        r.phase = static_cast<i32>(rng.uniformInt(0, r.skip - 1));
        regions.push_back(r);
    }
    sortRegionsByY(regions);
    return regions;
}

/** Encode a 4-frame rhythmic sequence; frames[0] is the newest. */
std::vector<EncodedFrame>
encodeSequence(i32 w, i32 h, ComparisonMode mode, u64 seed)
{
    RhythmicEncoder::Config cfg;
    cfg.mode = mode;
    RhythmicEncoder enc(w, h, cfg);
    enc.setRegionLabels(scatterRegions(w, h, seed, 12));
    std::vector<EncodedFrame> frames;
    for (FrameIndex t = 0; t < 4; ++t)
        frames.push_back(
            enc.encodeFrame(noiseFrame(w, h, seed + t), t));
    std::reverse(frames.begin(), frames.end());
    return frames;
}

std::vector<const EncodedFrame *>
historyOf(const std::vector<EncodedFrame> &frames)
{
    std::vector<const EncodedFrame *> history;
    for (size_t i = 1; i < frames.size(); ++i)
        history.push_back(&frames[i]);
    return history;
}

/**
 * The headline property: for every comparison mode, thread count, and
 * awkward geometry, the reference per-pixel walk, the serial fast path,
 * and the band-parallel decoder reconstruct byte-identical images with
 * matching fill tallies.
 */
TEST(ParallelDecoder, BitIdenticalToSerialAcrossModesAndThreads)
{
    const ComparisonMode modes[] = {ComparisonMode::Naive,
                                    ComparisonMode::RowSublist,
                                    ComparisonMode::Hybrid};
    const int thread_counts[] = {1, 2, 7};
    // Odd widths exercise mask rows that are not byte-aligned; odd heights
    // exercise a final band shorter than the others.
    const std::pair<i32, i32> geometries[] = {{57, 33}, {64, 47}, {31, 64}};

    for (const ComparisonMode mode : modes) {
        for (const auto &[w, h] : geometries) {
            const std::vector<EncodedFrame> frames =
                encodeSequence(w, h, mode, 0xD3u * static_cast<u64>(w + h));
            const std::vector<const EncodedFrame *> history =
                historyOf(frames);

            SoftwareDecoder::Config ref_cfg;
            ref_cfg.fast_path = false; // the per-pixel reference walk
            const SoftwareDecoder reference(ref_cfg);
            const Image want = reference.decode(frames[0], history);

            const SoftwareDecoder fast;
            EXPECT_EQ(fast.decode(frames[0], history).data(), want.data())
                << "fast path diverged at " << w << "x" << h;
            EXPECT_EQ(fast.lastHistoryFills(),
                      reference.lastHistoryFills());
            EXPECT_EQ(fast.lastBlackPixels(), reference.lastBlackPixels());

            for (const int threads : thread_counts) {
                SoftwareDecoder::Config pcfg;
                pcfg.threads = threads;
                pcfg.min_band_rows = 4; // force many bands on small frames
                const SoftwareDecoder parallel(pcfg);
                Image got;
                parallel.decodeInto(frames[0], history, got);
                EXPECT_EQ(got.data(), want.data())
                    << "threads=" << threads << " at " << w << "x" << h;
                EXPECT_EQ(parallel.lastHistoryFills(),
                          reference.lastHistoryFills())
                    << "threads=" << threads;
                EXPECT_EQ(parallel.lastBlackPixels(),
                          reference.lastBlackPixels())
                    << "threads=" << threads;
            }
        }
    }
}

/** The identity holds at every SIMD level the host supports. */
TEST(ParallelDecoder, BitIdenticalAtEverySimdLevel)
{
    const std::vector<EncodedFrame> frames =
        encodeSequence(57, 33, ComparisonMode::Hybrid, 77);
    const std::vector<const EncodedFrame *> history = historyOf(frames);

    SoftwareDecoder::Config ref_cfg;
    ref_cfg.fast_path = false;
    const SoftwareDecoder reference(ref_cfg);
    const Image want = reference.decode(frames[0], history);

    for (const simd::Level level : simd::supportedLevels()) {
        ASSERT_TRUE(simd::setLevel(level));
        SoftwareDecoder::Config pcfg;
        pcfg.threads = 2;
        pcfg.min_band_rows = 4;
        const SoftwareDecoder parallel(pcfg);
        Image got;
        parallel.decodeInto(frames[0], history, got);
        EXPECT_EQ(got.data(), want.data())
            << "level=" << simd::levelName(level);
    }
    simd::resetLevel();
}

/**
 * The corruption-safe path: a quarantined current frame leaves the
 * output untouched, unusable history frames are skipped and counted,
 * and the surviving decode is still byte-identical to serial — whether
 * the fan-out runs one band or many.
 */
TEST(ParallelDecoder, TryDecodeMatchesSerialWithQuarantinedFrames)
{
    const i32 w = 64, h = 47;
    std::vector<EncodedFrame> frames =
        encodeSequence(w, h, ComparisonMode::Hybrid, 13);

    // Corrupt one history frame (payload no longer matches the offsets)
    // and append a geometry mismatch; both must be skipped, not fatal.
    frames[2].pixels.resize(frames[2].pixels.size() / 2);
    const std::vector<EncodedFrame> other =
        encodeSequence(w + 8, h, ComparisonMode::Hybrid, 14);
    std::vector<const EncodedFrame *> history = historyOf(frames);
    history.push_back(&other[0]);

    const SoftwareDecoder serial;
    Image want;
    const SwDecodeStatus want_st =
        serial.tryDecode(frames[0], history, want);
    ASSERT_TRUE(want_st.ok);
    EXPECT_EQ(want_st.history_skipped, 2u);

    for (const int threads : {1, 2, 7}) {
        SoftwareDecoder::Config pcfg;
        pcfg.threads = threads;
        pcfg.min_band_rows = 4;
        const SoftwareDecoder parallel(pcfg);
        Image got;
        const SwDecodeStatus st =
            parallel.tryDecode(frames[0], history, got);
        EXPECT_TRUE(st.ok) << "threads=" << threads;
        EXPECT_EQ(st.history_skipped, want_st.history_skipped);
        EXPECT_EQ(got.data(), want.data()) << "threads=" << threads;
        EXPECT_EQ(parallel.lastHistoryFills(),
                  serial.lastHistoryFills());
        EXPECT_EQ(parallel.lastBlackPixels(), serial.lastBlackPixels());

        // A corrupt *current* frame quarantines instead of decoding.
        EncodedFrame bad = frames[0];
        bad.pixels.resize(bad.pixels.size() / 2);
        Image untouched(3, 3, PixelFormat::Gray8, 200);
        const SwDecodeStatus bad_st =
            parallel.tryDecode(bad, history, untouched);
        EXPECT_FALSE(bad_st.ok);
        EXPECT_TRUE(bad_st.quarantined);
        EXPECT_FALSE(bad_st.reason.empty());
        EXPECT_EQ(untouched.at(1, 1), 200)
            << "quarantine must not touch the output image";
    }
}

TEST(ParallelDecoder, BandsAlignWithEncoderPartition)
{
    for (const i32 rows : {1, 3, 4, 16, 17, 33, 47, 480, 1080}) {
        for (const int bands : {1, 2, 3, 7, 16}) {
            std::vector<std::pair<i32, i32>> ranges;
            BandPool::partition(rows, bands, 4, ranges);
            ASSERT_FALSE(ranges.empty());
            i32 next = 0;
            for (const auto &[y0, y1] : ranges) {
                EXPECT_EQ(y0, next);
                EXPECT_LT(y0, y1);
                EXPECT_EQ(y0 % 4, 0);
                next = y1;
            }
            EXPECT_EQ(next, rows);
            EXPECT_LE(static_cast<int>(ranges.size()), bands);
        }
    }
}

TEST(ParallelDecoder, ZeroThreadsResolvesToHardwareConcurrency)
{
    SoftwareDecoder::Config cfg;
    cfg.threads = 0;
    const SoftwareDecoder dec(cfg);
    EXPECT_GE(dec.threadCount(), 1);
}

TEST(ParallelDecoder, RejectsBadConfig)
{
    SoftwareDecoder::Config cfg;
    cfg.threads = -1;
    EXPECT_THROW(SoftwareDecoder{cfg}, std::invalid_argument);
    cfg.threads = 2;
    cfg.min_band_rows = 6; // not a multiple of 4
    EXPECT_THROW(SoftwareDecoder{cfg}, std::invalid_argument);
    cfg.min_band_rows = 0;
    EXPECT_THROW(SoftwareDecoder{cfg}, std::invalid_argument);
}

/**
 * The entry checks run once, before any band does, at every thread count:
 * decodeInto rejects a wrong-geometry history frame, and tryDecode
 * quarantines a corrupt frame with the reason validate() gives.
 */
TEST(ParallelDecoder, EntryChecksHoldAtEveryThreadCount)
{
    const i32 w = 64, h = 47;
    const std::vector<EncodedFrame> frames =
        encodeSequence(w, h, ComparisonMode::Hybrid, 21);
    const std::vector<EncodedFrame> other =
        encodeSequence(w + 8, h, ComparisonMode::Hybrid, 22);
    std::vector<const EncodedFrame *> history = historyOf(frames);
    history.push_back(&other[0]);

    EncodedFrame bad = frames[0];
    bad.pixels.resize(bad.pixels.size() / 2);
    std::string want_reason;
    ASSERT_FALSE(bad.validate(&want_reason));

    for (const int threads : {1, 4}) {
        SoftwareDecoder::Config cfg;
        cfg.threads = threads;
        cfg.min_band_rows = 4;
        const SoftwareDecoder dec(cfg);
        Image out;
        EXPECT_THROW(dec.decodeInto(frames[0], history, out),
                     std::runtime_error)
            << "threads=" << threads;

        Image untouched(3, 3, PixelFormat::Gray8, 200);
        const SwDecodeStatus st =
            dec.tryDecode(bad, historyOf(frames), untouched);
        EXPECT_FALSE(st.ok) << "threads=" << threads;
        EXPECT_TRUE(st.quarantined);
        EXPECT_EQ(st.reason, want_reason) << "threads=" << threads;
        EXPECT_EQ(untouched.at(1, 1), 200);
    }
}

} // namespace
} // namespace rpx
