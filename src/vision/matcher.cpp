#include "vision/matcher.hpp"

#include <limits>

#include "common/simd.hpp"

namespace rpx {

std::vector<Match>
matchDescriptors(const std::vector<Descriptor> &query,
                 const std::vector<Descriptor> &train,
                 const MatchOptions &options)
{
    std::vector<Match> matches;
    if (query.empty() || train.empty())
        return matches;

    constexpr int kNone = std::numeric_limits<int>::max();
    const size_t n_train = train.size();
    std::vector<u32> row(n_train);
    // Reverse nearest neighbour of each train descriptor over all queries
    // (strict < keeps the lowest query index among equal distances).
    std::vector<int> rev_best(options.cross_check ? n_train : 0, kNone);
    std::vector<size_t> rev_index(rev_best.size(), 0);

    for (size_t qi = 0; qi < query.size(); ++qi) {
        simd::hamming256(query[qi].data(), train.front().data(), n_train,
                         row.data());
        // Forward nearest: strict < keeps the lowest train index among
        // equal best distances, and a duplicate of the best still lowers
        // the second-best.
        int best = kNone, second = kNone;
        size_t best_index = 0;
        for (size_t ti = 0; ti < n_train; ++ti) {
            const int dist = static_cast<int>(row[ti]);
            if (dist < best) {
                second = best;
                best = dist;
                best_index = ti;
            } else if (dist < second) {
                second = dist;
            }
            if (options.cross_check && dist < rev_best[ti]) {
                rev_best[ti] = dist;
                rev_index[ti] = qi;
            }
        }
        if (best > options.max_distance)
            continue;
        if (options.ratio > 0.0 && second != kNone &&
            static_cast<double>(best) >=
                options.ratio * static_cast<double>(second)) {
            continue;
        }
        matches.push_back({qi, best_index, best});
    }

    if (options.cross_check) {
        std::erase_if(matches, [&](const Match &m) {
            return rev_index[m.train_index] != m.query_index;
        });
    }
    return matches;
}

std::vector<Match>
matchDescriptors(const std::vector<Descriptor> &query,
                 const std::vector<Descriptor> &train)
{
    return matchDescriptors(query, train, MatchOptions{});
}

std::vector<Descriptor>
descriptorsOf(const std::vector<OrbFeature> &features)
{
    std::vector<Descriptor> out;
    out.reserve(features.size());
    for (const auto &f : features)
        out.push_back(f.descriptor);
    return out;
}

} // namespace rpx
