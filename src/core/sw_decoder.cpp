#include "core/sw_decoder.hpp"

#include "common/error.hpp"

namespace rpx {

SoftwareDecoder::SoftwareDecoder(const Config &config)
    : config_(config), pool_(config.threads, config.min_band_rows)
{
    if (config.max_upscan < 0)
        throwInvalid("max_upscan must be non-negative");
}

void
SoftwareDecoder::decodeValidatedInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, Image &out) const
{
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.black_value);
    pool_.partition(current.height, ranges_);
    if (bands_.size() < ranges_.size())
        bands_.resize(ranges_.size());
    pool_.run(ranges_.size(), [&](size_t b) {
        decodeBand(bands_[b], current, history, ranges_[b].first,
                   ranges_[b].second, out);
    });
    // Both tallies count pixels, so the band sums are the frame's.
    last_history_fills_ = 0;
    last_black_ = 0;
    for (size_t b = 0; b < ranges_.size(); ++b) {
        last_history_fills_ += bands_[b].history_fills;
        last_black_ += bands_[b].black;
    }
}

void
SoftwareDecoder::decodeBand(Band &band, const EncodedFrame &current,
                            const std::vector<const EncodedFrame *> &history,
                            i32 y0, i32 y1, Image &out) const
{
    // caches[0] serves the current frame, caches[k] history[k - 1].
    // validate() keeps the offset table inside the payload, but a corrupt
    // mask can still disagree with it, so each frame's payload size bounds
    // every derived index: an out-of-range source falls back, unread.
    while (band.caches.size() < history.size() + 1)
        band.caches.emplace_back();
    band.caches[0].rebind(&current);
    band.sources.assign(1, {&band.caches[0], current.pixels.size()});
    for (size_t k = 0; k < history.size(); ++k) {
        band.caches[k + 1].rebind(history[k]);
        band.sources.push_back(
            {&band.caches[k + 1], history[k]->pixels.size()});
    }
    band.history_fills = 0;
    band.black = 0;
    if (!config_.fast_path) {
        referenceWalk(band, current, history, y0, y1, out);
        return;
    }
    band.row_codes.resize(static_cast<size_t>(current.width));
    for (i32 y = y0; y < y1; ++y) {
        u8 *row = out.row(y);
        resolveSegment(
            band.sources, y, 0, current.width, config_.max_upscan,
            band.row_codes.data(),
            [&](i32 x, PixelCode, const ResolvedSource &src) {
                if (src.frame == ResolvedSource::kBlack) {
                    ++band.black; // already black
                } else if (src.frame == 0) {
                    row[x] = current.pixels[src.offset];
                } else {
                    row[x] = history[src.frame - 1]->pixels[src.offset];
                    ++band.history_fills;
                }
            });
    }
}

void
SoftwareDecoder::referenceWalk(
    Band &band, const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, i32 y0, i32 y1,
    Image &out) const
{
    // Every regional pixel asks findPixelSource on its own: no in-row
    // tracker and no shared resolver, so the fast path has an oracle
    // that does not run its code.
    for (i32 y = y0; y < y1; ++y) {
        u8 *row = out.row(y);
        for (i32 x = 0; x < current.width; ++x) {
            const PixelCode code = current.mask.at(x, y);
            if (code == PixelCode::N) {
                ++band.black;
                continue; // already black
            }
            if (code == PixelCode::R || code == PixelCode::St) {
                auto src = findPixelSource(band.caches[0], x, y,
                                           config_.max_upscan);
                if (src && src->offset < current.pixels.size()) {
                    row[x] = current.pixels[src->offset];
                    continue;
                }
            }
            // Sk (or unresolvable St): most recent history frame that
            // sampled this pixel wins.
            bool filled = false;
            for (size_t k = 0; k < history.size() && !filled; ++k) {
                const EncodedFrame &past = *history[k];
                const PixelCode pcode = past.mask.at(x, y);
                if (pcode != PixelCode::R && pcode != PixelCode::St)
                    continue;
                auto src = findPixelSource(band.caches[k + 1], x, y,
                                           config_.max_upscan);
                if (src && src->offset < past.pixels.size()) {
                    row[x] = past.pixels[src->offset];
                    ++band.history_fills;
                    filled = true;
                }
            }
            if (!filled)
                ++band.black;
        }
    }
}

Image
SoftwareDecoder::decode(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history) const
{
    Image out;
    decodeInto(current, history, out);
    return out;
}

void
SoftwareDecoder::decodeInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, Image &out) const
{
    current.checkConsistency();
    for (const EncodedFrame *f : history) {
        RPX_ASSERT(f != nullptr, "null history frame");
        RPX_ASSERT(f->width == current.width && f->height == current.height,
                   "history frame geometry mismatch");
    }
    decodeValidatedInto(current, history, out);
}

SwDecodeStatus
SoftwareDecoder::tryDecode(const EncodedFrame &current,
                           const std::vector<const EncodedFrame *> &history,
                           Image &out) const
{
    SwDecodeStatus status;
    std::string why;
    if (!current.validate(&why)) {
        status.ok = false;
        status.quarantined = true;
        status.reason = std::move(why);
        return status;
    }
    // Decode over the usable history (non-null, matching geometry,
    // passing validate()) and count the rest as skipped.
    usable_.clear();
    if (usable_.capacity() < history.size())
        usable_.reserve(history.size());
    for (const EncodedFrame *f : history) {
        if (f != nullptr && f->width == current.width &&
            f->height == current.height && f->validate())
            usable_.push_back(f);
        else
            ++status.history_skipped;
    }
    decodeValidatedInto(current, usable_, out);
    return status;
}

} // namespace rpx
