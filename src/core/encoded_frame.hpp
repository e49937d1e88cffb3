/**
 * @file
 * The encoded frame (§3.2): the tightly packed sequence of regional pixels
 * in original raster-scan order, together with its metadata and the frame
 * index it was captured at.
 */

#ifndef RPX_CORE_ENCODED_FRAME_HPP
#define RPX_CORE_ENCODED_FRAME_HPP

#include <optional>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "common/types.hpp"
#include "core/encmask.hpp"

namespace rpx {

/**
 * One encoded frame plus its metadata.
 *
 * Invariants (checked by checkConsistency):
 *  - pixels.size() == offsets.total() == number of R codes in the mask
 *  - offsets.offsetOf(y) equals the number of R codes in rows [0, y)
 */
struct EncodedFrame {
    FrameIndex index = 0;     //!< capture frame number
    i32 width = 0;            //!< original (decoded-space) width
    i32 height = 0;           //!< original height
    std::vector<u8> pixels;   //!< packed regional pixels, raster order
    EncMask mask;             //!< 2-bit per-pixel status
    RowOffsets offsets;       //!< per-row encoded-pixel prefix counts
    /**
     * CRC-32 over the packed metadata (mask bytes, then the serialized
     * row-offset table), sealed when the frame is committed to a
     * CRC-protected FrameStore. 0 = unsealed; validate() then skips the
     * CRC comparison, so unprotected pipelines pay nothing.
     */
    u32 metadata_crc = 0;

    /** Bytes of pixel payload. */
    Bytes pixelBytes() const { return pixels.size(); }

    /** Bytes of metadata (mask + row offsets). */
    Bytes
    metadataBytes() const
    {
        return mask.packedBytes() + offsets.packedBytes();
    }

    /** Fraction of original pixels kept (0..1). */
    double
    keptFraction() const
    {
        const double denom =
            static_cast<double>(width) * static_cast<double>(height);
        return denom > 0 ? static_cast<double>(pixels.size()) / denom : 0.0;
    }

    /**
     * The byte order of every stored metadata word (row-start table, CRC
     * cell): little-endian u32.
     */
    static u32
    loadLE32(const u8 *p)
    {
        return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
               (static_cast<u32>(p[2]) << 16) |
               (static_cast<u32>(p[3]) << 24);
    }
    static void
    storeLE32(u32 v, u8 *p)
    {
        p[0] = static_cast<u8>(v);
        p[1] = static_cast<u8>(v >> 8);
        p[2] = static_cast<u8>(v >> 16);
        p[3] = static_cast<u8>(v >> 24);
    }

    /**
     * Serialize the row-offset table to its DRAM byte layout (one
     * little-endian u32 start offset per row) — the representation the
     * frame store writes and the metadata CRC covers.
     */
    std::vector<u8> packOffsets() const;

    /**
     * The inverse of packOffsets(), as the decoder's metadata scratchpad
     * reads it: rebuild `offsets` (height rows, storage reused) from a
     * packed table of `height` words. Row counts are differences of
     * adjacent starts (u32 wrap-around, like the hardware); the last
     * row's count comes from `mask`, which must already be set.
     */
    void unpackOffsets(const u8 *bytes);

    /** CRC-32 over mask bytes + packOffsets() (the sealable metadata). */
    u32 computeMetadataCrc() const;

    /** Seal the metadata: metadata_crc = computeMetadataCrc(). */
    void sealMetadata() { metadata_crc = computeMetadataCrc(); }

    /**
     * Bounds-safety check against arbitrary (possibly corrupt) metadata:
     * geometry, row-offset monotonicity, per-row counts within width,
     * totals within frame capacity, payload size (when `check_payload`),
     * and — when the frame is sealed — the metadata CRC. O(height) plus
     * the CRC pass for sealed frames; never throws. A frame that passes
     * with check_payload=true cannot drive a decoder read outside
     * pixels[0, total) provided the decoder also range-checks the
     * mask-derived column prefix (the hardened decode paths do).
     *
     * @param reason  when non-null, receives a description on failure
     * @return true when the frame is safe to decode
     */
    bool validate(std::string *reason = nullptr,
                  bool check_payload = true) const;

    /** Throws std::runtime_error when the invariants do not hold. */
    void checkConsistency() const;
};

/** Location of the R pixel that sources a reconstructed pixel value. */
struct PixelSource {
    i32 x = 0;          //!< column of the source R pixel
    i32 y = 0;          //!< row of the source R pixel
    u32 offset = 0;     //!< index into the encoded pixel payload
};

/**
 * Per-frame accelerator for mask prefix queries.
 *
 * Decoding needs "number of R codes before column x in row y" and "nearest
 * R at or before column x" repeatedly; this cache materialises a per-row
 * prefix-count array on first touch (the hardware keeps the equivalent in
 * its metadata scratchpad).
 */
class MaskPrefixCache
{
  public:
    /** Unbound cache; rebind() before use. Lets owners pool instances. */
    MaskPrefixCache() = default;

    explicit MaskPrefixCache(const EncodedFrame &frame) { rebind(&frame); }

    /**
     * Point the cache at a (new) frame and invalidate all materialised
     * rows. Row storage is retained, so rebinding a pooled cache to the
     * next frame of the same geometry allocates nothing once warm.
     * Pass nullptr to unbind.
     */
    void rebind(const EncodedFrame *frame);

    const EncodedFrame &frame() const
    {
        RPX_ASSERT(frame_ != nullptr, "MaskPrefixCache is unbound");
        return *frame_;
    }

    /** Number of R codes in row y strictly before column x. */
    u32 encodedBefore(i32 x, i32 y);

    /** Column of the nearest R at or before x in row y; -1 when none. */
    i32 lastEncodedAtOrBefore(i32 x, i32 y);

  private:
    const std::vector<u32> &rowPrefix(i32 y);

    const EncodedFrame *frame_ = nullptr;
    /** Per-row R prefix; an empty inner vector marks a row not yet built. */
    std::vector<std::vector<u32>> rows_;
    /** Unpacked code bytes for the row being materialised. */
    std::vector<u8> codes_;
};

/**
 * Resolve the source R pixel for a regional pixel (x, y) of `frame`.
 *
 * Implements the reconstruction semantics of §4.2.2 with a resampling
 * buffer: an R pixel sources itself; an St pixel sources the nearest R at
 * or to the left in the nearest row at or above it (searched up to
 * `max_upscan` rows). For stride-s regions this yields exact s x s
 * nearest-neighbour block replication. Returns nullopt when no source
 * exists within the scan bound (the caller falls back to history or black).
 */
std::optional<PixelSource> findPixelSource(MaskPrefixCache &cache, i32 x,
                                           i32 y, int max_upscan = 64);

/**
 * A frame the segment resolver may source from. A null `cache` marks it
 * unusable (quarantined or failing validation). A derived payload offset
 * at or past `limit` is out of range and demotes the pixel to the next
 * rule: SoftwareDecoder bounds by the payload size, RhythmicDecoder (whose
 * payload stays in DRAM) by the offset table total.
 */
struct SourceFrame {
    MaskPrefixCache *cache = nullptr;
    size_t limit = 0;
};

/** A decoded pixel's source: payload[offset] of frames[frame], or black. */
struct ResolvedSource {
    static constexpr size_t kBlack = static_cast<size_t>(-1);
    size_t frame = kBlack;
    size_t offset = 0;
};

/**
 * The history rule for one pixel: the first usable frames[k], k >= 1,
 * that sampled (x, y) (R or St) and whose findPixelSource answer is in
 * range; black when none is.
 */
inline ResolvedSource
resolveFromHistory(const std::vector<SourceFrame> &frames, i32 x, i32 y,
                   int max_upscan)
{
    for (size_t k = 1; k < frames.size(); ++k) {
        MaskPrefixCache *cache = frames[k].cache;
        if (!cache)
            continue;
        const PixelCode code = cache->frame().mask.at(x, y);
        if (code != PixelCode::R && code != PixelCode::St)
            continue;
        const auto src = findPixelSource(*cache, x, y, max_upscan);
        if (src && src->offset < frames[k].limit)
            return ResolvedSource{k, src->offset};
    }
    return ResolvedSource{};
}

/**
 * The pixel-source rule of the FIFO sampling unit (§4.2.2) for the row
 * segment [x0, x1) of row y, over the newest frame frames[0] and history
 * frames[1..] (most recent first); both decoders share it. R sources
 * itself and St the nearest R at or left of it, both answered by an
 * in-row R count (seeded from the prefix cache when x0 > 0), else by the
 * findPixelSource upscan. Sk, out-of-range sources and every pixel of an
 * unusable frames[0] take resolveFromHistory(); N is black. `codes` is
 * scratch for x1 - x0 mask codes (may be null if frames[0] is unusable).
 * Calls sink(x, code, source) left to right; code is frames[0]'s code, or
 * Sk when frames[0] is unusable.
 */
template <class Sink>
void
resolveSegment(const std::vector<SourceFrame> &frames, i32 y, i32 x0,
               i32 x1, int max_upscan, u8 *codes, Sink &&sink)
{
    const SourceFrame &cur = frames[0];
    if (!cur.cache) {
        for (i32 x = x0; x < x1; ++x)
            sink(x, PixelCode::Sk,
                 resolveFromHistory(frames, x, y, max_upscan));
        return;
    }
    const EncodedFrame &f = cur.cache->frame();
    simd::unpackMask2bpp(f.mask.bytes().data(),
                         static_cast<size_t>(y) * f.width + x0,
                         static_cast<size_t>(x1 - x0), codes);
    // The r_count'th R of the row sits at row_off + r_count - 1.
    const size_t row_off = f.offsets.offsetOf(y);
    u32 r_count = x0 > 0 ? cur.cache->encodedBefore(x0, y) : 0;
    size_t last_off = r_count > 0 ? row_off + r_count - 1 : 0;
    for (i32 x = x0; x < x1; ++x) {
        const PixelCode code = static_cast<PixelCode>(codes[x - x0]);
        if (code == PixelCode::N) {
            sink(x, code, ResolvedSource{});
            continue;
        }
        if (code != PixelCode::Sk) {
            bool found = true;
            size_t offset = last_off;
            if (code == PixelCode::R) {
                offset = last_off = row_off + r_count++;
            } else if (r_count == 0) {
                // St with no R at or left in the row: the upscan walk
                // (its dy == 0 probe finds nothing, so answers coincide).
                const auto up = findPixelSource(*cur.cache, x, y,
                                                max_upscan);
                found = up.has_value();
                offset = found ? up->offset : 0;
            }
            if (found && offset < cur.limit) {
                sink(x, code, ResolvedSource{0, offset});
                continue;
            }
        }
        sink(x, code, resolveFromHistory(frames, x, y, max_upscan));
    }
}

} // namespace rpx

#endif // RPX_CORE_ENCODED_FRAME_HPP
