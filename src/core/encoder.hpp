/**
 * @file
 * The rhythmic pixel encoder (§4.1).
 *
 * A fully streaming block that intercepts the dense raster-scan pixel stream
 * at the ISP output and, guided by developer-specified region labels,
 * produces: (i) the tightly packed encoded frame, (ii) the 2-bit EncMask,
 * and (iii) the per-row offsets.
 *
 * Architecture (Fig. 5), modelled structurally:
 *  - Sequencer: tracks row/pixel position in the stream.
 *  - RoI Selector: once per row, shortlists the y-sorted region list down to
 *    the regions whose y-range covers the row.
 *  - Comparison Engine: per pixel, checks the x-ranges/strides of the
 *    shortlisted regions only.
 *  - Sampler: forwards regional pixels, reusing a comparison result across a
 *    region's width (run-length reuse) and emitting metadata.
 *
 * Functional output is identical across comparison modes; the modes differ
 * in the *work accounting* (comparison counts, cycles), which is what the
 * paper's scalability evaluation (Table 5 and §6.2/§6.3) is about.
 *
 * encodeFrame() and summarizeFrame() split each row into spans through one
 * sweep (sweepSpans). classify() and StreamingEncoder stay independent of
 * it: they are the per-pixel references the identity tests compare against.
 *
 * Config::threads > 1 is the software analogue of Table 5's parallel
 * comparison engine at the row level: encodeFrame() cuts the frame into
 * 4-row-aligned bands (BandPool), encodes each on a pool thread with the
 * same per-row code, and stitches the shards. Output and stats are
 * byte-identical for every thread count, because rows share no output
 * state, each band's mask bits are whole bytes, and every work counter is
 * a per-row sum. One thread is the same code with one band and no pool.
 */

#ifndef RPX_CORE_ENCODER_HPP
#define RPX_CORE_ENCODER_HPP

#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/encoded_frame.hpp"
#include "core/region.hpp"
#include "frame/image.hpp"
#include "obs/obs.hpp"
#include "stream/fifo.hpp"
#include "stream/pixel_stream.hpp"

namespace rpx {

/** Comparison-engine organisation (work model; results are identical). */
enum class ComparisonMode {
    /** Check every region label for every pixel (strawman of §4.1.1). */
    Naive,
    /** RoI-selector row shortlist, no sampler reuse. */
    RowSublist,
    /** Row shortlist + run-length reuse within a region's width (hybrid). */
    Hybrid,
};

/** Work/performance counters for one or more encoded frames. */
struct EncoderStats {
    u64 frames = 0;
    u64 pixels_in = 0;           //!< dense pixels consumed
    u64 pixels_encoded = 0;      //!< R pixels emitted
    u64 region_comparisons = 0;  //!< comparison-engine region checks
    u64 selector_examined = 0;   //!< regions examined by the RoI selector
    u64 rows_with_regions = 0;   //!< rows whose shortlist was non-empty
    u64 rows_skipped = 0;        //!< rows skipped entirely (empty shortlist)
    u64 run_reuses = 0;          //!< pixels classified via run-length reuse
    /**
     * Modelled encoder cycles: per row, the larger of the stream time
     * (w / ppc) and the comparison-engine time. Every row is charged,
     * including rows with an empty shortlist — they still stream through
     * the sequencer at line rate.
     */
    Cycles compare_cycles = 0;
    /**
     * The pixel-clock budget: sum of per-row stream times (w / ppc,
     * rounded up per row) over the same rows compare_cycles covers.
     * compare_cycles == stream_cycles iff no row was engine-bound.
     */
    Cycles stream_cycles = 0;

    void reset() { *this = EncoderStats{}; }

    /**
     * Fold another stats block into this one (all counters are additive).
     * Used to merge per-band shard stats into frame totals.
     */
    void accumulate(const EncoderStats &other);
};

/**
 * Per-region attribution of encoder work: slot i corresponds to
 * regionLabels()[i] of the encoder that produced it.
 *
 * Attribution is deterministic and conserving — every counted unit lands in
 * exactly one slot, so the vectors sum back to the frame aggregates:
 *   sum(kept)        == EncoderStats::pixels_encoded
 *   sum(comparisons) == EncoderStats::region_comparisons
 * An R pixel claimed by several overlapping grids is attributed to the
 * region the comparison engine matched first (the sweep's break target);
 * the stride-1 fast path attributes its whole span to the first stride-1
 * region covering it — the same region the per-pixel loop would match.
 */
struct RegionAttribution {
    std::vector<u64> kept;        //!< R pixels attributed to each region
    std::vector<u64> comparisons; //!< engine checks attributed to each region

    /** Zero `regions` slots (0 releases storage = attribution off). */
    void reset(size_t regions);
    /** Elementwise add; other must be empty or the same size. */
    void accumulate(const RegionAttribution &other);
    bool empty() const { return kept.empty(); }
};

/**
 * Streaming rhythmic pixel encoder.
 */
class RhythmicEncoder
{
  public:
    struct Config {
        ComparisonMode mode = ComparisonMode::Hybrid;
        double pixels_per_clock = 2.0;  //!< ISP line rate to keep up with
        size_t fifo_depth = 16;         //!< input/output FIFO depth (§5.1)
        int engine_lanes = 16;          //!< parallel comparators per cycle
        bool require_sorted = true;     //!< insist on y-sorted label lists
        /** Band worker threads; 1 = serial, 0 = one per hardware thread. */
        int threads = 1;
        /** Minimum rows per band, a positive multiple of 4. */
        i32 min_band_rows = 16;
    };

    /**
     * @param frame_w decoded-space frame width
     * @param frame_h decoded-space frame height
     */
    RhythmicEncoder(i32 frame_w, i32 frame_h, const Config &config);
    RhythmicEncoder(i32 frame_w, i32 frame_h)
        : RhythmicEncoder(frame_w, frame_h, Config{})
    {
    }

    i32 frameWidth() const { return frame_w_; }
    i32 frameHeight() const { return frame_h_; }
    const Config &config() const { return config_; }
    /** Resolved band worker count (>= 1; Config::threads 0 resolves here). */
    int threadCount() const { return pool_.threadCount(); }

    /**
     * Load a region label list (the runtime writes these into the encoder's
     * memory-mapped registers). Validates geometry and, when
     * require_sorted, the y-ordering precondition.
     */
    void setRegionLabels(std::vector<RegionLabel> regions);

    const std::vector<RegionLabel> &regionLabels() const { return regions_; }

    /**
     * Encode one dense grayscale frame captured at frame index `t`.
     * The frame must match the configured geometry.
     */
    EncodedFrame encodeFrame(const Image &gray, FrameIndex t);

    /** Per-code pixel counts of one frame (analytic, no pixel payload). */
    struct FrameSummary {
        u64 r = 0;   //!< encoded pixels
        u64 st = 0;  //!< strided-out regional pixels
        u64 sk = 0;  //!< temporally skipped regional pixels
        u64 n = 0;   //!< non-regional pixels
        Bytes metadata_bytes = 0; //!< EncMask + per-row offsets

        u64 total() const { return r + st + sk + n; }
    };

    /**
     * Compute the per-code pixel counts the current label list would
     * produce at frame `t`, without touching pixel data. Exactly matches
     * what encodeFrame() would emit; used by the throughput simulator to
     * evaluate 4K-scale traces quickly (§5.3.1).
     */
    FrameSummary summarizeFrame(FrameIndex t) const;

    /**
     * Toggle per-region work attribution (off by default: the hot loops
     * then skip every attribution branch via a null pointer, keeping the
     * non-telemetry path cost-free). When on, each encoded frame also
     * fills lastFrameAttribution().
     */
    void enableRegionAttribution(bool on) { attribute_regions_ = on; }
    bool regionAttributionEnabled() const { return attribute_regions_; }

    /**
     * Per-region attribution of the most recently encoded frame
     * (empty when attribution is disabled). Indexed like regionLabels()
     * as of that frame — read it before the next setRegionLabels().
     */
    const RegionAttribution &lastFrameAttribution() const
    {
        return last_attr_;
    }

    /**
     * Classify a single pixel against a label list — the reference
     * semantics every comparison mode must reproduce.
     *
     * Priority for overlapping regions: R > St > Sk > N. A pixel is R when
     * any active covering region has it on its stride grid; St when it is
     * covered by an active region but on no grid; Sk when covered only by
     * inactive regions.
     */
    static PixelCode classify(const std::vector<RegionLabel> &regions,
                              i32 x, i32 y, FrameIndex t);

    const EncoderStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /**
     * Attach an observability context: "encoder.*" counters mirror the
     * per-frame work/traffic deltas. Null detaches (default, zero-cost).
     */
    void attachObs(obs::ObsContext *ctx);

    /**
     * True when the modelled comparison work fit the pixel-clock budget:
     * no processed row took longer than its stream time, i.e.
     * compare_cycles == stream_cycles.
     */
    bool withinCycleBudget() const;

  private:
    /**
     * One horizontally-stitchable slice of an encoded frame: the rows
     * [y0, y1) encoded exactly as a whole-frame pass would, with the mask
     * and row counts rebased to the band (mask row 0 == frame row y0) and
     * all work counters accumulated into a band-local stats block.
     */
    struct BandShard {
        i32 y0 = 0;                  //!< first frame row of the band
        i32 y1 = 0;                  //!< one past the last frame row
        EncMask mask;                //!< (frame_w, y1 - y0) band mask
        std::vector<u8> pixels;      //!< packed band payload, raster order
        std::vector<u32> row_counts; //!< encoded pixels per band row
        EncoderStats work;           //!< band-local work counters
        /** Band-local per-region work; empty unless attribution enabled. */
        RegionAttribution attr;
    };

    /**
     * Encode rows [y0, y1) of `gray` into `out`. Thread-safe: const, and
     * all mutable state lives in the shard, so disjoint bands of the same
     * frame encode concurrently.
     */
    void encodeBand(const Image &gray, FrameIndex t, i32 y0, i32 y1,
                    BandShard &out) const;

    /** Row-shortlist entry with per-frame/per-row precomputation. */
    struct ShortlistEntry {
        const RegionLabel *region;
        bool active;        //!< temporal rhythm samples this frame
        bool row_on_stride; //!< row matches the vertical stride
    };

    /**
     * RoI-selector pass for one row. When `stats` is non-null, regions the
     * selector examined are counted there (the analytic summarizeFrame()
     * passes null: it models output, not work).
     */
    void buildShortlist(i32 row, FrameIndex t,
                        std::vector<ShortlistEntry> &out,
                        EncoderStats *stats) const;
    /** A run of a row over which the covering set is constant. */
    struct Span {
        i32 a, b;     //!< columns [a, b)
        bool covered; //!< some shortlisted region covers the span
        bool active;  //!< some covering region samples this frame
        /** First active on-stride stride-1 cover (attribution's owner). */
        const RegionLabel *stride1;
        /** Active covers on this row's stride, in shortlist order. */
        const std::vector<const RegionLabel *> &grid;
    };
    /** Span sweep storage, reused from row to row. */
    struct SpanScratch {
        std::vector<i32> edges;
        std::vector<const RegionLabel *> grid;
    };

    /**
     * The one span sweep behind encodeRow() and summarizeFrame(): call
     * fn(const Span &) for each span of the row, left to right, covered
     * or not.
     */
    template <class Fn>
    void sweepSpans(const std::vector<ShortlistEntry> &shortlist,
                    SpanScratch &scratch, Fn &&fn) const;
    /**
     * Encode one row into a band-local mask/payload. `mask_y` is the row's
     * position inside `mask` (bands rebase their rows to 0).
     */
    void encodeRow(const Image &gray, i32 y,
                   const std::vector<ShortlistEntry> &shortlist,
                   SpanScratch &scratch, EncMask &mask, i32 mask_y,
                   std::vector<u8> &pixels, u32 &row_count,
                   EncoderStats &stats, RegionAttribution *attr) const;
    /** Per-row cycle model: stream time vs comparison-engine time. */
    void chargeRowCycles(u64 row_comparisons, EncoderStats &stats) const;

    i32 frame_w_;
    i32 frame_h_;
    Config config_;
    std::vector<RegionLabel> regions_;
    EncoderStats stats_;
    bool attribute_regions_ = false;
    RegionAttribution last_attr_;
    BandPool pool_;
    /** Per-frame band ranges and shards, reused across frames. */
    std::vector<std::pair<i32, i32>> ranges_;
    std::vector<BandShard> shards_;

    // Cached counter handles; null when no observer is attached.
    obs::Counter *obs_frames_ = nullptr;
    obs::Counter *obs_pixels_in_ = nullptr;
    obs::Counter *obs_pixels_kept_ = nullptr;
    obs::Counter *obs_comparisons_ = nullptr;
    obs::Counter *obs_compare_cycles_ = nullptr;
};

} // namespace rpx

#endif // RPX_CORE_ENCODER_HPP
