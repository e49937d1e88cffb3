/**
 * @file
 * SIMD dispatch-shim tests: every kernel must be bit-identical to the
 * scalar reference at every supported level, including unaligned start
 * indices, misaligned base pointers and awkward tail lengths, and the
 * level override machinery must behave (setLevel rejects unsupported
 * levels, resetLevel restores the environment-resolved default).
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace rpx::simd {
namespace {

/** RAII level override so a failing test cannot leak its level. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(Level level) { ok_ = setLevel(level); }
    ~ScopedLevel() { resetLevel(); }
    bool ok() const { return ok_; }

  private:
    bool ok_ = false;
};

std::vector<u8>
randomPacked(size_t bytes, u64 seed)
{
    Rng rng(seed);
    std::vector<u8> packed(bytes);
    for (u8 &b : packed)
        b = static_cast<u8>(rng.uniformInt(0, 255));
    return packed;
}

/** Pure reference unpack: code i is bits [2i, 2i+2) of the packed run. */
u8
referenceCode(const std::vector<u8> &packed, size_t index)
{
    return static_cast<u8>((packed[index / 4] >> (2 * (index % 4))) & 3u);
}

TEST(Simd, LevelQueryBasics)
{
    EXPECT_TRUE(levelSupported(Level::Scalar));
    EXPECT_GE(static_cast<int>(bestSupported()),
              static_cast<int>(Level::Scalar));
    const std::vector<Level> levels = supportedLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), Level::Scalar);
    for (const Level level : levels) {
        EXPECT_TRUE(levelSupported(level));
        EXPECT_NE(levelName(level), nullptr);
    }
}

TEST(Simd, SetLevelRejectsUnsupported)
{
    // Scalar is always accepted and always restorable.
    EXPECT_TRUE(setLevel(Level::Scalar));
    EXPECT_EQ(activeLevel(), Level::Scalar);
#if defined(__x86_64__)
    EXPECT_FALSE(setLevel(Level::Neon));
    EXPECT_EQ(activeLevel(), Level::Scalar) << "failed set must not stick";
#endif
    resetLevel();
}

TEST(Simd, UnpackMatchesReferenceAtEveryLevel)
{
    const std::vector<u8> packed = randomPacked(1024, 7);
    const size_t total = packed.size() * 4;
    // Odd start offsets exercise the head peel; odd counts the tail.
    const std::pair<size_t, size_t> spans[] = {
        {0, total},   {0, 1},    {1, 1},     {3, 5},    {1, 63},
        {5, 64},      {7, 129},  {63, 64},   {64, 64},  {129, 511},
        {total - 3, 3}, {total, 0},
    };
    for (const Level level : supportedLevels()) {
        ScopedLevel guard(level);
        ASSERT_TRUE(guard.ok()) << levelName(level);
        for (const auto &[first, count] : spans) {
            std::vector<u8> out(count + 2, 0xEE);
            unpackMask2bpp(packed.data(), first, count, out.data());
            for (size_t i = 0; i < count; ++i)
                ASSERT_EQ(out[i], referenceCode(packed, first + i))
                    << levelName(level) << " first=" << first
                    << " count=" << count << " i=" << i;
            // The kernel must not write past count.
            EXPECT_EQ(out[count], 0xEE) << levelName(level);
            EXPECT_EQ(out[count + 1], 0xEE) << levelName(level);
        }
    }
}

TEST(Simd, CountRMatchesReferenceAtEveryLevel)
{
    const std::vector<u8> packed = randomPacked(512, 21);
    const size_t total = packed.size() * 4;
    const std::pair<size_t, size_t> spans[] = {
        {0, total}, {0, 1},   {1, 2},   {2, 62},  {3, 65},
        {64, 128},  {65, 127}, {511, 513}, {total, 0},
    };
    for (const Level level : supportedLevels()) {
        ScopedLevel guard(level);
        ASSERT_TRUE(guard.ok()) << levelName(level);
        for (const auto &[first, count] : spans) {
            u32 want = 0;
            for (size_t i = 0; i < count; ++i)
                if (referenceCode(packed, first + i) == 3u)
                    ++want;
            EXPECT_EQ(countR2bpp(packed.data(), first, count), want)
                << levelName(level) << " first=" << first
                << " count=" << count;
        }
    }
}

TEST(Simd, ApplyLutMatchesReferenceAtEveryLevel)
{
    // A table that visits every input byte value, plus a permutation-ish
    // map so mistakes in any lane show up.
    std::vector<u8> lut(256);
    for (int i = 0; i < 256; ++i)
        lut[static_cast<size_t>(i)] = static_cast<u8>((i * 37 + 11) & 0xFF);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                           size_t{31}, size_t{257}, size_t{4096}}) {
        std::vector<u8> input(n);
        for (size_t i = 0; i < n; ++i)
            input[i] = static_cast<u8>(i * 101 + 7);
        std::vector<u8> want(input);
        for (u8 &b : want)
            b = lut[b];
        for (const Level level : supportedLevels()) {
            ScopedLevel guard(level);
            ASSERT_TRUE(guard.ok()) << levelName(level);
            std::vector<u8> got(input);
            applyLut256(got.data(), got.size(), lut.data());
            ASSERT_EQ(got, want) << levelName(level) << " n=" << n;
        }
    }
}

TEST(Simd, AllInputByteValuesThroughLut)
{
    std::vector<u8> lut(256);
    for (int i = 0; i < 256; ++i)
        lut[static_cast<size_t>(i)] = static_cast<u8>(255 - i);
    std::vector<u8> input(256);
    for (int i = 0; i < 256; ++i)
        input[static_cast<size_t>(i)] = static_cast<u8>(i);
    for (const Level level : supportedLevels()) {
        ScopedLevel guard(level);
        ASSERT_TRUE(guard.ok()) << levelName(level);
        std::vector<u8> got(input);
        applyLut256(got.data(), got.size(), lut.data());
        for (int i = 0; i < 256; ++i)
            ASSERT_EQ(got[static_cast<size_t>(i)],
                      static_cast<u8>(255 - i))
                << levelName(level);
    }
}

/** Byte-wise Hamming distance between two 32-byte runs. */
u32
referenceHamming(const u8 *a, const u8 *b)
{
    u32 dist = 0;
    for (size_t i = 0; i < 32; ++i)
        dist += static_cast<u32>(
            std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
    return dist;
}

TEST(Simd, Hamming256MatchesReferenceAtEveryLevel)
{
    constexpr size_t kMaxCount = 67;
    // Room for a 3-byte misalignment of both the query and the train run.
    const std::vector<u8> bytes =
        randomPacked(32 * (kMaxCount + 2) + 3, 5);
    for (const Level level : supportedLevels()) {
        ScopedLevel guard(level);
        ASSERT_TRUE(guard.ok()) << levelName(level);
        for (const size_t misalign : {size_t{0}, size_t{1}, size_t{3}}) {
            const u8 *query = bytes.data() + misalign;
            const u8 *train = query + 32;
            for (const size_t count : {size_t{0}, size_t{1}, size_t{2},
                                       size_t{5}, kMaxCount}) {
                std::vector<u32> out(count + 1, 0xDEADBEEFu);
                hamming256(query, train, count, out.data());
                for (size_t i = 0; i < count; ++i)
                    ASSERT_EQ(out[i],
                              referenceHamming(query, train + 32 * i))
                        << levelName(level) << " misalign=" << misalign
                        << " count=" << count << " i=" << i;
                // The kernel must not write past count.
                EXPECT_EQ(out[count], 0xDEADBEEFu) << levelName(level);
            }
        }
    }
}

TEST(Simd, Hamming256ExtremesAtEveryLevel)
{
    // Query all-zero against {zeros, ones, zeros, ones}: 0, 256, 0, 256.
    std::vector<u8> run(32 * 5, 0);
    for (size_t i = 64; i < 96; ++i)
        run[i] = 0xFF;
    for (size_t i = 128; i < 160; ++i)
        run[i] = 0xFF;
    const std::vector<u32> want = {0, 256, 0, 256};
    for (const Level level : supportedLevels()) {
        ScopedLevel guard(level);
        ASSERT_TRUE(guard.ok()) << levelName(level);
        std::vector<u32> out(4);
        hamming256(run.data(), run.data() + 32, 4, out.data());
        EXPECT_EQ(out, want) << levelName(level);
        // All-ones query: the complement.
        hamming256(run.data() + 64, run.data() + 32, 4, out.data());
        EXPECT_EQ(out, (std::vector<u32>{256, 0, 256, 0}))
            << levelName(level);
    }
}

} // namespace
} // namespace rpx::simd
