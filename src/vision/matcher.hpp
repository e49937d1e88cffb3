/**
 * @file
 * Brute-force binary descriptor matching with Lowe ratio and cross checks —
 * the data-association step of the SLAM workload.
 */

#ifndef RPX_VISION_MATCHER_HPP
#define RPX_VISION_MATCHER_HPP

#include <vector>

#include "vision/orb.hpp"

namespace rpx {

/** One descriptor match. */
struct Match {
    size_t query_index = 0;
    size_t train_index = 0;
    int distance = 0;
};

/** Matcher options. */
struct MatchOptions {
    int max_distance = 64;       //!< reject matches above this Hamming dist
    double ratio = 0.8;          //!< Lowe ratio (best/second-best); <=0 off
    bool cross_check = true;     //!< require mutual nearest neighbours
};

/**
 * Match query descriptors against train descriptors, exhaustively and in
 * one pass: each query's distances to the whole train set come from one
 * simd::hamming256 call, folded into that query's best/second-best and
 * into every train descriptor's running nearest query (the cross-check's
 * reverse search, so it costs no second scan).
 *
 * Tie-break contract (the same at every SIMD level):
 *  - the forward winner is the lowest train index among equal best
 *    distances; a second descriptor at the best distance makes the
 *    second-best equal to the best (so the ratio test rejects the tie);
 *  - with one train descriptor there is no second-best and the ratio test
 *    passes;
 *  - a query is kept iff best <= max_distance, then (ratio > 0) best <
 *    ratio * second, then (cross_check) it is the train winner's nearest
 *    query, the lowest query index among equal distances, taken over all
 *    queries, including ones the first two tests rejected.
 * Matches come out in ascending query order.
 */
std::vector<Match> matchDescriptors(const std::vector<Descriptor> &query,
                                    const std::vector<Descriptor> &train,
                                    const MatchOptions &options);

std::vector<Match> matchDescriptors(const std::vector<Descriptor> &query,
                                    const std::vector<Descriptor> &train);

/** Convenience: pull the descriptors out of a feature list. */
std::vector<Descriptor>
descriptorsOf(const std::vector<OrbFeature> &features);

} // namespace rpx

#endif // RPX_VISION_MATCHER_HPP
