/**
 * @file
 * The alternative software decoder (§5.1): reconstructs a whole frame from
 * an encoded frame plus history on the CPU. Used by workloads that want a
 * full frame-based image (our from-scratch stand-in for the paper's
 * C++/OpenCV software decoder).
 *
 * Two entry points share one bounds-checked core:
 *  - decode()/decodeInto(): the strict path — throws on malformed input
 *    (legacy behaviour, used when corrupt data indicates a programming
 *    error);
 *  - tryDecode(): the corruption-safe path — validates the current frame
 *    (including its metadata CRC when sealed) and quarantines it instead
 *    of throwing, and silently skips unusable history frames, so a
 *    pipeline facing injected or real faults keeps producing frames.
 *
 * The core takes each pixel's source from resolveSegment()
 * (encoded_frame.hpp), the rule the hardware decoder shares, one row at a
 * time. Config::fast_path = false runs the independent reference instead:
 * a per-pixel findPixelSource walk that shares no code with the resolver,
 * which the identity tests compare both decoders against.
 *
 * Config::threads > 1 decodes 4-row-aligned horizontal bands (the
 * encoder's BandPool partition) on a pool. Each band writes its own output
 * rows and only reads the shared encoded frames, and every band's prefix
 * caches span the whole frame, so upscans and history lookups across a
 * band boundary see what a one-band decode sees: the image and the
 * history/black tallies are byte-identical for every thread count.
 *
 * Decode scratch (prefix caches, row code buffers, source lists, tallies)
 * is pooled per band in the instance, so steady-state decoding on one
 * band performs zero heap allocations (asserted by
 * tests/core/decode_alloc_test.cpp). The flip side: a SoftwareDecoder
 * instance is NOT safe for concurrent use — give each thread its own.
 */

#ifndef RPX_CORE_SW_DECODER_HPP
#define RPX_CORE_SW_DECODER_HPP

#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/encoded_frame.hpp"
#include "frame/image.hpp"

namespace rpx {

/** Outcome of SoftwareDecoder::tryDecode. */
struct SwDecodeStatus {
    bool ok = true;           //!< out image holds a decode of the frame
    bool quarantined = false; //!< current frame rejected (out untouched)
    std::string reason;       //!< failure description when quarantined
    size_t history_skipped = 0; //!< history frames dropped as unusable
};

/**
 * Whole-frame software decoder.
 */
class SoftwareDecoder
{
  public:
    struct Config {
        u8 black_value = 0;
        int max_upscan = 64;
        /**
         * Decode through resolveSegment(). false = run the per-pixel
         * reference walk, kept for differential testing.
         */
        bool fast_path = true;
        /** Band worker threads; 1 = serial, 0 = one per hardware thread. */
        int threads = 1;
        /** Minimum rows per band, a positive multiple of 4. */
        i32 min_band_rows = 16;
    };

    explicit SoftwareDecoder(const Config &config);
    SoftwareDecoder() : SoftwareDecoder(Config{}) {}

    /** Resolved band worker count (>= 1; Config::threads 0 resolves here). */
    int threadCount() const { return pool_.threadCount(); }

    /**
     * Decode `current` into a full grayscale frame. `history` lists older
     * encoded frames, most recent first (up to the hardware's four-frame
     * window; extras are used if given). Skipped pixels resolve to the most
     * recent history frame that sampled them; unresolvable pixels are black.
     * Throws std::runtime_error on malformed current or history frames.
     */
    Image decode(const EncodedFrame &current,
                 const std::vector<const EncodedFrame *> &history = {}) const;

    /**
     * decode() into a caller-owned image, reusing its allocation when
     * possible (`out` is re-shaped to the frame geometry).
     */
    void decodeInto(const EncodedFrame &current,
                    const std::vector<const EncodedFrame *> &history,
                    Image &out) const;

    /**
     * Corruption-safe decode. Validates `current` (bounds safety plus the
     * metadata CRC when sealed); on failure returns quarantined=true and
     * leaves `out` untouched — never throws on corrupt metadata, never
     * reads out of range. Unusable history frames (null, wrong geometry,
     * failing validation) are skipped and counted, not fatal.
     */
    SwDecodeStatus tryDecode(const EncodedFrame &current,
                             const std::vector<const EncodedFrame *> &history,
                             Image &out) const;

    /** Number of pixels the last decode filled from history frames. */
    u64 lastHistoryFills() const { return last_history_fills_; }

    /** Number of pixels the last decode left black. */
    u64 lastBlackPixels() const { return last_black_; }

  private:
    /** One band's decode scratch, pooled across frames. */
    struct Band {
        std::vector<MaskPrefixCache> caches; //!< [0] current frame
        std::vector<SourceFrame> sources;
        std::vector<u8> row_codes;
        u64 history_fills = 0;
        u64 black = 0;
    };

    /**
     * Reshape `out` to the frame, black-fill it and reconstruct every band
     * over pre-validated frames, then sum the band tallies.
     */
    void decodeValidatedInto(const EncodedFrame &current,
                             const std::vector<const EncodedFrame *> &history,
                             Image &out) const;
    /** Reconstruct rows [y0, y1) of `out` with `band`'s scratch. */
    void decodeBand(Band &band, const EncodedFrame &current,
                    const std::vector<const EncodedFrame *> &history,
                    i32 y0, i32 y1, Image &out) const;
    /** The Config::fast_path = false per-pixel reference walk. */
    void referenceWalk(Band &band, const EncodedFrame &current,
                       const std::vector<const EncodedFrame *> &history,
                       i32 y0, i32 y1, Image &out) const;

    Config config_;
    BandPool pool_;
    mutable u64 last_history_fills_ = 0;
    mutable u64 last_black_ = 0;
    // Pooled decode scratch (rebound per frame, never shrunk) — what makes
    // steady-state decode allocation-free and the instance
    // single-threaded.
    mutable std::vector<std::pair<i32, i32>> ranges_;
    mutable std::vector<Band> bands_;
    mutable std::vector<const EncodedFrame *> usable_;
};

} // namespace rpx

#endif // RPX_CORE_SW_DECODER_HPP
