#include "core/sw_decoder.hpp"

#include "common/error.hpp"

namespace rpx {

SoftwareDecoder::SoftwareDecoder(const Config &config) : config_(config)
{
    if (config.max_upscan < 0)
        throwInvalid("max_upscan must be non-negative");
}

void
SoftwareDecoder::decodeCoreInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, i32 y0, i32 y1,
    Image &out) const
{
    // caches_[0] serves the current frame, caches_[k] history[k - 1].
    // validate() keeps the offset table inside the payload, but a corrupt
    // mask can still disagree with it, so each frame's payload size bounds
    // every derived index: an out-of-range source falls back, unread.
    while (caches_.size() < history.size() + 1)
        caches_.emplace_back();
    caches_[0].rebind(&current);
    sources_.assign(1, {&caches_[0], current.pixels.size()});
    for (size_t k = 0; k < history.size(); ++k) {
        caches_[k + 1].rebind(history[k]);
        sources_.push_back({&caches_[k + 1], history[k]->pixels.size()});
    }
    last_history_fills_ = 0;
    last_black_ = 0;
    if (!config_.fast_path) {
        referenceWalk(current, history, y0, y1, out);
        return;
    }
    row_codes_.resize(static_cast<size_t>(current.width));
    for (i32 y = y0; y < y1; ++y) {
        u8 *row = out.row(y);
        resolveSegment(
            sources_, y, 0, current.width, config_.max_upscan,
            row_codes_.data(),
            [&](i32 x, PixelCode, const ResolvedSource &src) {
                if (src.frame == ResolvedSource::kBlack) {
                    ++last_black_; // already black
                } else if (src.frame == 0) {
                    row[x] = current.pixels[src.offset];
                } else {
                    row[x] = history[src.frame - 1]->pixels[src.offset];
                    ++last_history_fills_;
                }
            });
    }
}

void
SoftwareDecoder::referenceWalk(
    const EncodedFrame &current,
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
                ++last_black_;
                continue; // already black
            }
            if (code == PixelCode::R || code == PixelCode::St) {
                auto src =
                    findPixelSource(caches_[0], x, y, config_.max_upscan);
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
                auto src = findPixelSource(caches_[k + 1], x, y,
                                           config_.max_upscan);
                if (src && src->offset < past.pixels.size()) {
                    row[x] = past.pixels[src->offset];
                    ++last_history_fills_;
                    filled = true;
                }
            }
            if (!filled)
                ++last_black_;
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
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.black_value);
    decodeCoreInto(current, history, 0, current.height, out);
}

void
SoftwareDecoder::decodeBandInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, i32 y0, i32 y1,
    Image &out) const
{
    RPX_ASSERT(out.width() == current.width &&
                   out.height() == current.height &&
                   out.format() == PixelFormat::Gray8,
               "decodeBandInto output geometry mismatch");
    RPX_ASSERT(y0 >= 0 && y0 <= y1 && y1 <= current.height,
               "decodeBandInto band out of range");
    decodeCoreInto(current, history, y0, y1, out);
}

void
SoftwareDecoder::filterUsableHistory(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history,
    std::vector<const EncodedFrame *> &usable, size_t &skipped)
{
    for (const EncodedFrame *f : history) {
        if (f != nullptr && f->width == current.width &&
            f->height == current.height && f->validate())
            usable.push_back(f);
        else
            ++skipped;
    }
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
    usable_.clear();
    if (usable_.capacity() < history.size())
        usable_.reserve(history.size());
    filterUsableHistory(current, history, usable_, status.history_skipped);
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.black_value);
    decodeCoreInto(current, usable_, 0, current.height, out);
    return status;
}

} // namespace rpx
