#include "core/encoded_frame.hpp"

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"

namespace rpx {

std::vector<u8>
EncodedFrame::packOffsets() const
{
    std::vector<u8> bytes(static_cast<size_t>(height > 0 ? height : 0) *
                          sizeof(u32));
    for (i32 y = 0; y < height; ++y)
        storeLE32(offsets.offsetOf(y), &bytes[static_cast<size_t>(y) * 4]);
    return bytes;
}

void
EncodedFrame::unpackOffsets(const u8 *bytes)
{
    offsets.reset(height);
    for (i32 y = 0; y + 1 < height; ++y) {
        const u8 *word = bytes + static_cast<size_t>(y) * 4;
        offsets.setRowCount(y, loadLE32(word + 4) - loadLE32(word));
    }
    if (height > 0)
        offsets.setRowCount(height - 1, mask.encodedInRow(height - 1));
}

u32
EncodedFrame::computeMetadataCrc() const
{
    Crc32 crc;
    crc.update(mask.bytes());
    // Stream the row-offset table in its packed little-endian layout
    // instead of materialising packOffsets(): this runs on every sealed
    // decode (validate) and must not allocate.
    for (i32 y = 0; y < height; ++y) {
        u8 word[4];
        storeLE32(offsets.offsetOf(y), word);
        crc.update(word, sizeof(word));
    }
    return crc.value();
}

bool
EncodedFrame::validate(std::string *reason, bool check_payload) const
{
    const auto fail = [&](const char *why) {
        if (reason)
            *reason = why;
        return false;
    };
    if (width <= 0 || height <= 0)
        return fail("non-positive frame geometry");
    if (mask.width() != width || mask.height() != height)
        return fail("mask geometry disagrees with frame geometry");
    if (offsets.height() != height)
        return fail("row-offset table height disagrees with frame height");
    if (offsets.offsetOf(0) != 0)
        return fail("row-offset table does not start at 0");
    const u64 capacity = static_cast<u64>(width) * static_cast<u64>(height);
    u32 prev = 0;
    for (i32 y = 1; y < height; ++y) {
        const u32 off = offsets.offsetOf(y);
        if (off < prev)
            return fail("row offsets are not monotone");
        if (off - prev > static_cast<u32>(width))
            return fail("per-row encoded count exceeds the frame width");
        prev = off;
    }
    const u32 total = offsets.total();
    if (total < prev || total - prev > static_cast<u32>(width))
        return fail("last-row encoded count is out of range");
    if (static_cast<u64>(total) > capacity)
        return fail("encoded total exceeds the frame capacity");
    if (check_payload && pixels.size() != total)
        return fail("payload size disagrees with the row-offset total");
    if (metadata_crc != 0 && computeMetadataCrc() != metadata_crc)
        return fail("metadata CRC mismatch");
    return true;
}

void
EncodedFrame::checkConsistency() const
{
    RPX_ASSERT(mask.width() == width && mask.height() == height,
               "EncMask geometry mismatch");
    RPX_ASSERT(offsets.height() == height, "RowOffsets geometry mismatch");
    RPX_ASSERT(offsets.total() == pixels.size(),
               "offset total disagrees with encoded pixel count");
    u32 running = 0;
    for (i32 y = 0; y < height; ++y) {
        RPX_ASSERT(offsets.offsetOf(y) == running,
                   "per-row offset is not the R-code prefix sum");
        running += mask.encodedInRow(y);
    }
    RPX_ASSERT(running == pixels.size(),
               "mask R count disagrees with encoded pixel count");
}

void
MaskPrefixCache::rebind(const EncodedFrame *frame)
{
    frame_ = frame;
    const size_t rows =
        frame ? static_cast<size_t>(frame->height) : size_t{0};
    if (rows_.size() > rows)
        rows_.resize(rows);
    // clear() (not resize(0)) keeps each row's capacity for the next frame.
    for (auto &row : rows_)
        row.clear();
    while (rows_.size() < rows)
        rows_.emplace_back();
}

const std::vector<u32> &
MaskPrefixCache::rowPrefix(i32 y)
{
    RPX_ASSERT(frame_ != nullptr, "MaskPrefixCache is unbound");
    RPX_ASSERT(y >= 0 && y < frame_->height, "prefix row out of bounds");
    auto &row = rows_[static_cast<size_t>(y)];
    if (row.empty()) {
        const size_t w = static_cast<size_t>(frame_->width);
        row.resize(w + 1);
        codes_.resize(w);
        simd::unpackMask2bpp(frame_->mask.bytes().data(),
                             static_cast<size_t>(y) * w, w, codes_.data());
        u32 running = 0;
        for (size_t x = 0; x < w; ++x) {
            row[x] = running;
            if (codes_[x] == static_cast<u8>(PixelCode::R))
                ++running;
        }
        row.back() = running;
    }
    return row;
}

u32
MaskPrefixCache::encodedBefore(i32 x, i32 y)
{
    const auto &row = rowPrefix(y);
    RPX_ASSERT(x >= 0 && static_cast<size_t>(x) < row.size(),
               "prefix column out of bounds");
    return row[static_cast<size_t>(x)];
}

i32
MaskPrefixCache::lastEncodedAtOrBefore(i32 x, i32 y)
{
    const auto &row = rowPrefix(y);
    const u32 count = row[static_cast<size_t>(x) + 1];
    if (count == 0)
        return -1;
    // The last R at or before x is the largest column whose prefix entry is
    // count - 1 followed by count; binary search the monotone prefix.
    i32 lo = 0, hi = x;
    while (lo < hi) {
        const i32 mid = lo + (hi - lo + 1) / 2;
        if (row[static_cast<size_t>(mid)] < count)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

std::optional<PixelSource>
findPixelSource(MaskPrefixCache &cache, i32 x, i32 y, int max_upscan)
{
    const EncodedFrame &f = cache.frame();
    RPX_ASSERT(x >= 0 && x < f.width && y >= 0 && y < f.height,
               "findPixelSource out of bounds");
    for (int dy = 0; dy <= max_upscan; ++dy) {
        const i32 yy = y - dy;
        if (yy < 0)
            break;
        const i32 xx = cache.lastEncodedAtOrBefore(x, yy);
        if (xx >= 0) {
            const u32 offset =
                f.offsets.offsetOf(yy) + cache.encodedBefore(xx, yy);
            return PixelSource{xx, yy, offset};
        }
    }
    return std::nullopt;
}

} // namespace rpx
