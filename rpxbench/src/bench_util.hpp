/**
 * @file
 * Workload-independent pieces of the repo benchmark: exact quantiles
 * with the ten-samples-beyond rule, the order-independent decoded-frame
 * digest, per-layer span accumulation, metric naming rules and the
 * result report with its one-line JSON form.
 */

#ifndef RPXBENCH_BENCH_UTIL_HPP
#define RPXBENCH_BENCH_UTIL_HPP

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "frame/image.hpp"

namespace rpxbench {

using rpx::u32;
using rpx::u64;
using rpx::u8;
using Clock = std::chrono::steady_clock;

/** Microseconds between two steady-clock instants. */
inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** SplitMix64 finaliser: derives independent seeds from (seed, k). */
u64 mix(u64 a, u64 b);

/** Samples a tail percentile needs beyond it before it is reported. */
constexpr size_t kMinSamplesBeyond = 10;

/**
 * Exact nearest-rank q-quantile of raw samples (no interpolation, no
 * bucketing), or nothing when fewer than `min_beyond` samples lie above
 * the chosen rank (so a median needs 2 * min_beyond samples).
 */
std::optional<double> exactQuantile(std::vector<double> samples, double q,
                                    size_t min_beyond = kMinSamplesBeyond);

/** Median of raw samples (exact; mean of the middle pair when even). */
double median(std::vector<double> samples);

/** 64-bit hash of one decoded frame, keyed by (stream, frame index). */
u64 frameHash(u32 stream, u64 frame, const rpx::Image &img);

/**
 * Order-independent multiset digest of (stream, frame, pixels) hashes:
 * frames may be delivered in any interleaving across streams and
 * workers and still fold to the same value. A repeated or missing frame
 * changes both the sum and the count.
 */
struct FrameDigest {
    u64 sum = 0;
    u64 count = 0;

    void
    add(u64 frame_hash)
    {
        sum += frame_hash;
        ++count;
    }
    void
    merge(const FrameDigest &o)
    {
        sum += o.sum;
        count += o.count;
    }
    bool operator==(const FrameDigest &) const = default;
};

/** Sum of squared pixel differences of two same-shape gray images. */
u64 sumSquaredError(const rpx::Image &a, const rpx::Image &b);

/** PSNR in dB of a pooled squared error over `pixels` 8-bit pixels. */
double psnrDb(u64 sse, u64 pixels);

/** Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]. */
bool validMetricName(std::string_view name);
/** Units: 1..16 of [A-Za-z0-9_/%.-]. */
bool validUnit(std::string_view unit);

/** VmHWM of this process in MB (0 when /proc is unavailable). */
double peakRssMb();

/**
 * Host-wide CPU time counters from /proc/stat (all zero when
 * unavailable). Hypervisor steal shows up as wall time the program did
 * not get; the runs print it so a disturbed run can be recognised.
 */
struct HostCpuTimes {
    u64 steal = 0;
    u64 total = 0;

    static HostCpuTimes now();
    /** Share of CPU time stolen between `earlier` and this sample. */
    double stealSince(const HostCpuTimes &earlier) const;
};

/** `v` in fixed notation with `prec` decimals, for text notes. */
std::string fixed(double v, int prec = 1);

/**
 * Per-layer span accumulator for one frame sequence: each span's
 * duration is its layer's self time because the benchmark's spans
 * around the calls into each layer are contiguous and never nested.
 */
class LayerSpans
{
  public:
    explicit LayerSpans(size_t layers);

    /** Start a frame; the first span of the frame starts here. */
    void beginFrame();
    /** Close the current span, charging it to `layer`. */
    void lap(size_t layer);
    /** Close the frame; its total runs from beginFrame() to now. */
    void endFrame();

    /** Per-frame self times of `layer` in µs, one entry per frame. */
    const std::vector<double> &samples(size_t layer) const
    {
        return per_layer_[layer];
    }
    /** Per-frame totals in µs. */
    const std::vector<double> &totals() const { return totals_; }
    double sumUs(size_t layer) const;
    double totalUs() const;

  private:
    std::vector<std::vector<double>> per_layer_;
    std::vector<double> current_;
    std::vector<double> totals_;
    Clock::time_point frame_start_{};
    Clock::time_point lap_start_{};
};

/** A metric's fixed definition; "kind" is "wall" or "model". */
struct MetricSpec {
    const char *name;
    const char *unit;
    const char *better; //!< "higher" or "lower"
    const char *kind;
};

/** The end-to-end metrics every workload reports (trace off). */
const std::vector<MetricSpec> &endToEndMetrics();
/** The per-layer metrics every workload reports (trace on). */
const std::vector<MetricSpec> &perLayerMetrics();

/**
 * Values for one metric catalog. Printing and JSON follow catalog order;
 * a metric never set prints as 0 ("layer not exercised").
 */
class MetricSet
{
  public:
    explicit MetricSet(const std::vector<MetricSpec> &catalog);

    /**
     * Set a catalog metric; throws for a name not in the catalog or a
     * value that is not finite.
     */
    void set(std::string_view name, double value, std::string note = "");
    /** Names of catalog metrics that were never set. */
    std::vector<std::string> unset() const;
    /** Human-readable "name = value unit [kind] note" lines. */
    std::string text(std::string_view indent) const;
    /** JSON object body: {"name": {"value": v, "unit": "u"}, ...}. */
    std::string json() const;

  private:
    size_t index(std::string_view name) const;

    const std::vector<MetricSpec> *catalog_;
    std::vector<double> values_;
    std::vector<bool> is_set_;
    std::vector<std::string> notes_;
};

/** Outcome of one benchmark run. */
struct RunResult {
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> check_failures;
    std::vector<std::string> notes; //!< recorded discrepancies etc.
    MetricSet end_to_end{endToEndMetrics()};
    MetricSet per_layer{perLayerMetrics()};

    bool correct() const { return check_failures.empty(); }
    /**
     * Record a failed output check (the run then reports no numbers);
     * a check repeated every round is recorded once.
     */
    void fail(std::string what);
};

/** The final stdout line the benchmark contract asks for. */
std::string resultJson(const RunResult &r, bool trace);

} // namespace rpxbench

#endif // RPXBENCH_BENCH_UTIL_HPP
