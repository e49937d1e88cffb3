#include "core/encoder.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rpx {

RhythmicEncoder::RhythmicEncoder(i32 frame_w, i32 frame_h,
                                 const Config &config)
    : frame_w_(frame_w), frame_h_(frame_h), config_(config),
      pool_(config.threads, config.min_band_rows)
{
    if (frame_w <= 0 || frame_h <= 0)
        throwInvalid("encoder frame geometry must be positive: ", frame_w,
                     "x", frame_h);
    if (config.engine_lanes <= 0)
        throwInvalid("engine_lanes must be positive");
    if (config.pixels_per_clock <= 0.0)
        throwInvalid("pixels_per_clock must be positive");
}

void
RhythmicEncoder::setRegionLabels(std::vector<RegionLabel> regions)
{
    validateRegions(regions, frame_w_, frame_h_);
    if (!regionsSortedByY(regions)) {
        if (config_.require_sorted) {
            throwInvalid("region label list must be y-sorted; call "
                         "sortRegionsByY() (the app runtime does this)");
        }
        // The RoI selector's early-out depends on y-order; when the
        // hardware precondition is relaxed, sort here instead.
        sortRegionsByY(regions);
    }
    regions_ = std::move(regions);
}

PixelCode
RhythmicEncoder::classify(const std::vector<RegionLabel> &regions, i32 x,
                          i32 y, FrameIndex t)
{
    PixelCode best = PixelCode::N;
    for (const auto &r : regions) {
        if (!r.rect().contains(x, y))
            continue;
        if (r.activeAt(t)) {
            if (r.onStrideGrid(x, y))
                return PixelCode::R; // highest priority, done
            if (best != PixelCode::St)
                best = PixelCode::St;
        } else if (best == PixelCode::N) {
            best = PixelCode::Sk;
        } else if (best == PixelCode::Sk) {
            // keep Sk
        }
        // St dominates Sk: covered-by-active wins over covered-by-inactive.
    }
    return best;
}

void
EncoderStats::accumulate(const EncoderStats &other)
{
    frames += other.frames;
    pixels_in += other.pixels_in;
    pixels_encoded += other.pixels_encoded;
    region_comparisons += other.region_comparisons;
    selector_examined += other.selector_examined;
    rows_with_regions += other.rows_with_regions;
    rows_skipped += other.rows_skipped;
    run_reuses += other.run_reuses;
    compare_cycles += other.compare_cycles;
    stream_cycles += other.stream_cycles;
}

void
RegionAttribution::reset(size_t regions)
{
    kept.assign(regions, 0);
    comparisons.assign(regions, 0);
}

void
RegionAttribution::accumulate(const RegionAttribution &other)
{
    if (other.empty())
        return;
    if (empty())
        reset(other.kept.size());
    RPX_ASSERT(kept.size() == other.kept.size(),
               "attribution region-count mismatch");
    for (size_t i = 0; i < kept.size(); ++i) {
        kept[i] += other.kept[i];
        comparisons[i] += other.comparisons[i];
    }
}

void
RhythmicEncoder::buildShortlist(i32 row, FrameIndex t,
                                std::vector<ShortlistEntry> &out,
                                EncoderStats *stats) const
{
    out.clear();
    // The list is y-sorted, so the selector stops at the first region that
    // starts below this row; everything examined before that is counted as
    // selector work (once per row, §4.1.1).
    for (const auto &r : regions_) {
        if (r.y > row)
            break;
        if (stats)
            ++stats->selector_examined;
        if (r.rect().containsRow(row))
            out.push_back({&r, r.activeAt(t), r.rowOnStride(row)});
    }
}

template <class Fn>
void
RhythmicEncoder::sweepSpans(const std::vector<ShortlistEntry> &shortlist,
                            SpanScratch &scratch, Fn &&fn) const
{
    // Boundary sweep: split the row into spans with a constant covering set
    // of shortlisted regions. Within a span only x-stride checks vary, which
    // is exactly the locality the hardware sampler exploits.
    const i32 w = frame_w_;
    std::vector<i32> &edges = scratch.edges;
    edges.clear();
    edges.push_back(0);
    edges.push_back(w);
    for (const auto &e : shortlist) {
        const i32 lo = std::clamp(e.region->x, 0, w);
        const i32 hi = std::clamp(e.region->x + e.region->w, 0, w);
        if (lo < hi) {
            edges.push_back(lo);
            edges.push_back(hi);
        }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    for (size_t s = 0; s + 1 < edges.size(); ++s) {
        Span span{edges[s], edges[s + 1], false, false, nullptr,
                  scratch.grid};
        scratch.grid.clear();
        for (const auto &e : shortlist) {
            if (span.a < e.region->x || span.a >= e.region->x + e.region->w)
                continue;
            span.covered = true;
            if (!e.active)
                continue;
            span.active = true;
            if (e.row_on_stride) {
                scratch.grid.push_back(e.region);
                if (e.region->stride == 1 && !span.stride1)
                    span.stride1 = e.region;
            }
        }
        fn(span);
    }
}

RhythmicEncoder::FrameSummary
RhythmicEncoder::summarizeFrame(FrameIndex t) const
{
    FrameSummary sum;
    std::vector<ShortlistEntry> shortlist;
    SpanScratch scratch;

    for (i32 y = 0; y < frame_h_; ++y) {
        buildShortlist(y, t, shortlist, nullptr);
        sweepSpans(shortlist, scratch, [&sum](const Span &s) {
            const u64 span = static_cast<u64>(s.b - s.a);
            if (!s.covered) {
                sum.n += span;
                return;
            }
            u64 r_count = 0;
            if (s.stride1) {
                r_count = span;
            } else if (s.grid.size() == 1) {
                // Count multiples of the stride inside [a, b).
                const i32 s0 = s.grid[0]->stride;
                const i32 rx = s.grid[0]->x;
                const i32 rem = ((s.a - rx) % s0 + s0) % s0;
                const i32 first = rem == 0 ? s.a : s.a + (s0 - rem);
                if (first < s.b)
                    r_count = static_cast<u64>((s.b - 1 - first) / s0) + 1;
            } else if (!s.grid.empty()) {
                // Rare overlap of several strided grids: exact per-pixel.
                for (i32 x = s.a; x < s.b; ++x) {
                    for (const RegionLabel *g : s.grid) {
                        if ((x - g->x) % g->stride == 0) {
                            ++r_count;
                            break;
                        }
                    }
                }
            }
            sum.r += r_count;
            if (s.active)
                sum.st += span - r_count;
            else
                sum.sk += span - r_count;
        });
    }
    sum.metadata_bytes =
        (static_cast<Bytes>(frame_w_) * frame_h_ * 2 + 7) / 8 +
        static_cast<Bytes>(frame_h_) * sizeof(u32);
    return sum;
}

void
RhythmicEncoder::chargeRowCycles(u64 row_comparisons,
                                 EncoderStats &stats) const
{
    // Cycle model: the row needs w / ppc cycles to stream through; the
    // comparison engine needs comparisons / lanes cycles. Whichever is
    // larger limits the row. Every row streams, even region-free ones, so
    // both accumulators advance for every row of the frame.
    const Cycles stream_cycles = static_cast<Cycles>(
        static_cast<double>(frame_w_) / config_.pixels_per_clock + 0.999);
    const Cycles engine_cycles =
        (row_comparisons + config_.engine_lanes - 1) /
        static_cast<u64>(config_.engine_lanes);
    stats.stream_cycles += stream_cycles;
    stats.compare_cycles += std::max(stream_cycles, engine_cycles);
}

void
RhythmicEncoder::encodeRow(const Image &gray, i32 y,
                           const std::vector<ShortlistEntry> &shortlist,
                           SpanScratch &scratch, EncMask &mask, i32 mask_y,
                           std::vector<u8> &pixels, u32 &row_count,
                           EncoderStats &stats, RegionAttribution *attr) const
{
    row_count = 0;
    const u8 *row = gray.row(y);

    // Attribution slot for a shortlist/grid pointer (they point into
    // regions_, so pointer arithmetic recovers the label index).
    const auto slot = [this](const RegionLabel *r) {
        return static_cast<size_t>(r - regions_.data());
    };

    // A region-free row is a single uncovered span: it still streams
    // through the sequencer, and the naive engine still checks every
    // region against each of its pixels.
    if (shortlist.empty())
        ++stats.rows_skipped;
    else
        ++stats.rows_with_regions;

    u64 row_comparisons = 0;
    sweepSpans(shortlist, scratch, [&](const Span &s) {
        const i32 span = s.b - s.a;

        // Work accounting by mode. One sublist scan happens per span
        // (hybrid), per pixel (row-sublist), or against the full region
        // list per pixel (naive). Attribution mirrors each charge exactly
        // so per-region comparisons sum back to region_comparisons.
        switch (config_.mode) {
          case ComparisonMode::Naive:
            row_comparisons +=
                static_cast<u64>(regions_.size()) * static_cast<u64>(span);
            if (attr) {
                for (size_t i = 0; i < regions_.size(); ++i)
                    attr->comparisons[i] += static_cast<u64>(span);
            }
            break;
          case ComparisonMode::RowSublist:
            row_comparisons +=
                static_cast<u64>(shortlist.size()) * static_cast<u64>(span);
            if (attr) {
                for (const auto &e : shortlist)
                    attr->comparisons[slot(e.region)] +=
                        static_cast<u64>(span);
            }
            break;
          case ComparisonMode::Hybrid:
            row_comparisons += shortlist.size();
            if (attr) {
                for (const auto &e : shortlist)
                    attr->comparisons[slot(e.region)] += 1;
            }
            // No shortlisted region, no comparison result to reuse.
            if (span > 1 && !shortlist.empty())
                stats.run_reuses += static_cast<u64>(span - 1);
            break;
        }

        if (!s.covered)
            return; // span stays N

        if (s.stride1) {
            // Fast path: the entire span is R; attribution claims it for
            // the first stride-1 region covering the span (deterministic,
            // and independent of which overlapping grid happens to match
            // a given x first).
            for (i32 x = s.a; x < s.b; ++x) {
                mask.set(x, mask_y, PixelCode::R);
                pixels.push_back(row[x]);
                ++row_count;
            }
            if (attr)
                attr->kept[slot(s.stride1)] += static_cast<u64>(span);
            return;
        }

        const PixelCode base = s.active ? PixelCode::St : PixelCode::Sk;
        for (i32 x = s.a; x < s.b; ++x) {
            PixelCode code = base;
            for (const RegionLabel *r : s.grid) {
                if (config_.mode == ComparisonMode::Hybrid) {
                    ++row_comparisons;
                    if (attr)
                        attr->comparisons[slot(r)] += 1;
                }
                if ((x - r->x) % r->stride == 0) {
                    code = PixelCode::R;
                    if (attr)
                        attr->kept[slot(r)] += 1;
                    break;
                }
            }
            mask.set(x, mask_y, code);
            if (code == PixelCode::R) {
                pixels.push_back(row[x]);
                ++row_count;
            }
        }
    });

    stats.region_comparisons += row_comparisons;
    chargeRowCycles(row_comparisons, stats);
}

void
RhythmicEncoder::encodeBand(const Image &gray, FrameIndex t, i32 y0, i32 y1,
                            BandShard &out) const
{
    RPX_ASSERT(y0 >= 0 && y0 < y1 && y1 <= frame_h_,
               "encodeBand row range out of frame");
    out.y0 = y0;
    out.y1 = y1;
    out.mask = EncMask(frame_w_, y1 - y0);
    out.pixels.clear();
    out.pixels.reserve(static_cast<size_t>(frame_w_) * 4);
    out.row_counts.assign(static_cast<size_t>(y1 - y0), 0);
    out.work.reset();
    out.attr.reset(attribute_regions_ ? regions_.size() : 0);
    RegionAttribution *attr = attribute_regions_ ? &out.attr : nullptr;

    std::vector<ShortlistEntry> shortlist;
    SpanScratch scratch;
    for (i32 y = y0; y < y1; ++y) {
        buildShortlist(y, t, shortlist, &out.work);
        u32 row_count = 0;
        encodeRow(gray, y, shortlist, scratch, out.mask, y - y0, out.pixels,
                  row_count, out.work, attr);
        out.row_counts[static_cast<size_t>(y - y0)] = row_count;
    }
}

EncodedFrame
RhythmicEncoder::encodeFrame(const Image &gray, FrameIndex t)
{
    if (gray.channels() != 1)
        throwInvalid("encoder consumes grayscale (post-ISP luma) frames");
    if (gray.width() != frame_w_ || gray.height() != frame_h_)
        throwInvalid("frame geometry mismatch: got ", gray.width(), "x",
                     gray.height(), ", configured ", frame_w_, "x",
                     frame_h_);

    // Fan out one encodeBand job per band: encodeBand is const over the
    // shared state (regions, config) and writes only its own shard.
    pool_.partition(frame_h_, ranges_);
    shards_.resize(ranges_.size());
    pool_.run(ranges_.size(), [&](size_t b) {
        encodeBand(gray, t, ranges_[b].first, ranges_[b].second, shards_[b]);
    });

    // Stitch: bands are in raster order and start on whole mask bytes, so
    // concatenating their payloads and masks reproduces the one-band byte
    // stream. A single band (the serial case) is moved, not copied.
    EncodedFrame out;
    out.index = t;
    out.width = frame_w_;
    out.height = frame_h_;
    out.offsets = RowOffsets(frame_h_);
    if (shards_.size() == 1) {
        out.mask = std::move(shards_[0].mask);
        out.pixels = std::move(shards_[0].pixels);
    } else {
        out.mask = EncMask(frame_w_, frame_h_);
        size_t total_pixels = 0;
        for (const auto &shard : shards_)
            total_pixels += shard.pixels.size();
        out.pixels.reserve(total_pixels);
        for (const auto &shard : shards_) {
            out.mask.blitRows(shard.mask, shard.y0);
            out.pixels.insert(out.pixels.end(), shard.pixels.begin(),
                              shard.pixels.end());
        }
    }

    // Every counter is a per-row sum, so the band sums are the frame's.
    EncoderStats work;
    RegionAttribution attr;
    for (const auto &shard : shards_) {
        for (i32 y = shard.y0; y < shard.y1; ++y)
            out.offsets.setRowCount(
                y, shard.row_counts[static_cast<size_t>(y - shard.y0)]);
        work.accumulate(shard.work);
        attr.accumulate(shard.attr);
    }
    const u64 pixels_in = static_cast<u64>(gray.pixelCount());
    stats_.accumulate(work);
    ++stats_.frames;
    stats_.pixels_in += pixels_in;
    stats_.pixels_encoded += out.pixels.size();
    if (attribute_regions_)
        last_attr_ = std::move(attr);
    if (obs_frames_) {
        obs_frames_->inc();
        obs_pixels_in_->add(pixels_in);
        obs_pixels_kept_->add(out.pixels.size());
        obs_comparisons_->add(work.region_comparisons);
        obs_compare_cycles_->add(work.compare_cycles);
    }
    return out;
}

void
RhythmicEncoder::attachObs(obs::ObsContext *ctx)
{
    if (!ctx) {
        obs_frames_ = obs_pixels_in_ = obs_pixels_kept_ = nullptr;
        obs_comparisons_ = obs_compare_cycles_ = nullptr;
        return;
    }
    obs::PerfRegistry &r = ctx->registry();
    obs_frames_ = &r.counter("encoder.frames");
    obs_pixels_in_ = &r.counter("encoder.pixels_in");
    obs_pixels_kept_ = &r.counter("encoder.pixels_kept");
    obs_comparisons_ = &r.counter("encoder.region_comparisons");
    obs_compare_cycles_ = &r.counter("encoder.compare_cycles");
}

bool
RhythmicEncoder::withinCycleBudget() const
{
    // Every row now charges at least its stream time to compare_cycles
    // (see chargeRowCycles), so the budget is the accumulated stream time
    // of the same rows — not a pixels_in estimate, which over-granted
    // headroom on sparse frames whose skipped rows charged nothing.
    return stats_.compare_cycles <= stats_.stream_cycles;
}

} // namespace rpx
