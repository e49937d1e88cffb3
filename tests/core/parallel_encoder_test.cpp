/**
 * @file Serial-vs-parallel bit-identity tests for RhythmicEncoder's row-band
 * fan-out (Config::threads > 1).
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/encoder.hpp"
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

void
expectStatsEqual(const EncoderStats &a, const EncoderStats &b)
{
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.pixels_in, b.pixels_in);
    EXPECT_EQ(a.pixels_encoded, b.pixels_encoded);
    EXPECT_EQ(a.region_comparisons, b.region_comparisons);
    EXPECT_EQ(a.selector_examined, b.selector_examined);
    EXPECT_EQ(a.rows_with_regions, b.rows_with_regions);
    EXPECT_EQ(a.rows_skipped, b.rows_skipped);
    EXPECT_EQ(a.run_reuses, b.run_reuses);
    EXPECT_EQ(a.compare_cycles, b.compare_cycles);
    EXPECT_EQ(a.stream_cycles, b.stream_cycles);
}

void
expectFramesIdentical(const EncodedFrame &s, const EncodedFrame &p)
{
    EXPECT_EQ(p.index, s.index);
    EXPECT_EQ(p.pixels, s.pixels);
    EXPECT_EQ(p.mask, s.mask);
    EXPECT_EQ(p.mask.bytes(), s.mask.bytes());
    EXPECT_EQ(p.offsets, s.offsets);
}

/**
 * The headline property (ISSUE 4): for every comparison mode, thread
 * count, and awkward frame geometry, the parallel encoder's output is
 * byte-identical to the serial encoder's — pixels, packed mask bytes, row
 * offsets, and the full stats block.
 */
TEST(ParallelEncoder, BitIdenticalToSerialAcrossModesAndThreads)
{
    const ComparisonMode modes[] = {ComparisonMode::Naive,
                                    ComparisonMode::RowSublist,
                                    ComparisonMode::Hybrid};
    const int thread_counts[] = {1, 2, 7};
    // Odd widths exercise mask rows that are not byte-aligned; odd heights
    // exercise a final band shorter than the others.
    const std::pair<i32, i32> geometries[] = {{57, 33}, {64, 47}, {31, 64}};

    for (const ComparisonMode mode : modes) {
        for (const int threads : thread_counts) {
            for (const auto &[w, h] : geometries) {
                RhythmicEncoder::Config scfg;
                scfg.mode = mode;
                RhythmicEncoder serial(w, h, scfg);

                RhythmicEncoder::Config pcfg;
                pcfg.mode = mode;
                pcfg.threads = threads;
                pcfg.min_band_rows = 4; // force many bands on small frames
                RhythmicEncoder parallel(w, h, pcfg);

                const auto regions = scatterRegions(
                    w, h, 0xA5u * static_cast<u64>(w + h), 12);
                serial.setRegionLabels(regions);
                parallel.setRegionLabels(regions);

                for (FrameIndex t = 0; t < 4; ++t) {
                    const Image frame =
                        noiseFrame(w, h, 17u * static_cast<u64>(t) + 3u);
                    const EncodedFrame s = serial.encodeFrame(frame, t);
                    const EncodedFrame p = parallel.encodeFrame(frame, t);
                    s.checkConsistency();
                    p.checkConsistency();
                    expectFramesIdentical(s, p);
                }
                expectStatsEqual(serial.stats(), parallel.stats());
                EXPECT_EQ(serial.withinCycleBudget(),
                          parallel.withinCycleBudget());
            }
        }
    }
}

TEST(ParallelEncoder, HandlesEmptyRegionListAndFullFrame)
{
    const i32 w = 40, h = 37;
    RhythmicEncoder serial(w, h);
    RhythmicEncoder::Config pcfg;
    pcfg.threads = 3;
    pcfg.min_band_rows = 4;
    RhythmicEncoder parallel(w, h, pcfg);
    const Image frame = noiseFrame(w, h, 99);

    for (const std::vector<RegionLabel> &regions :
         {std::vector<RegionLabel>{},
          std::vector<RegionLabel>{fullFrameRegion(w, h)}}) {
        serial.setRegionLabels(regions);
        parallel.setRegionLabels(regions);
        expectFramesIdentical(serial.encodeFrame(frame, 0),
                              parallel.encodeFrame(frame, 0));
    }
    expectStatsEqual(serial.stats(), parallel.stats());
}

TEST(ParallelEncoder, PartitionCoversAllRowsWithAlignedBands)
{
    for (const i32 rows : {1, 3, 4, 16, 17, 33, 47, 480, 1080}) {
        for (const int bands : {1, 2, 3, 7, 16}) {
            std::vector<std::pair<i32, i32>> ranges;
            BandPool::partition(rows, bands, 4, ranges);
            ASSERT_FALSE(ranges.empty());
            i32 next = 0;
            for (const auto &[y0, y1] : ranges) {
                EXPECT_EQ(y0, next) << "gap/overlap at band start";
                EXPECT_LT(y0, y1);
                EXPECT_EQ(y0 % 4, 0)
                    << "band start must stay byte-aligned in the mask";
                next = y1;
            }
            EXPECT_EQ(next, rows) << "bands must cover every row";
            EXPECT_LE(static_cast<int>(ranges.size()), bands);
        }
    }
}

TEST(ParallelEncoder, ZeroThreadsResolvesToHardwareConcurrency)
{
    RhythmicEncoder::Config cfg;
    cfg.threads = 0;
    RhythmicEncoder enc(32, 32, cfg);
    EXPECT_GE(enc.threadCount(), 1);
}

TEST(ParallelEncoder, RejectsBadConfig)
{
    RhythmicEncoder::Config cfg;
    cfg.threads = -1;
    EXPECT_THROW(RhythmicEncoder(32, 32, cfg), std::invalid_argument);
    cfg.threads = 2;
    cfg.min_band_rows = 6; // not a multiple of 4
    EXPECT_THROW(RhythmicEncoder(32, 32, cfg), std::invalid_argument);
    cfg.min_band_rows = 0;
    EXPECT_THROW(RhythmicEncoder(32, 32, cfg), std::invalid_argument);
}

/** The entry checks run before any band does, at every thread count. */
TEST(ParallelEncoder, EntryChecksHoldAtEveryThreadCount)
{
    const i32 w = 32, h = 32;
    for (const int threads : {1, 4}) {
        RhythmicEncoder::Config cfg;
        cfg.threads = threads;
        cfg.min_band_rows = 4;
        RhythmicEncoder enc(w, h, cfg);
        enc.setRegionLabels({fullFrameRegion(w, h)});
        const Image rgb(w, h, PixelFormat::Rgb8);
        EXPECT_THROW(enc.encodeFrame(rgb, 0), std::invalid_argument)
            << "threads=" << threads;
        EXPECT_THROW(enc.encodeFrame(noiseFrame(w, h / 2, 5), 0),
                     std::invalid_argument)
            << "threads=" << threads;
        EXPECT_EQ(enc.stats().frames, 0u) << "a rejected frame counts";
    }
}

} // namespace
} // namespace rpx
