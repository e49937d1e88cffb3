/**
 * @file
 * Hierarchical performance-counter registry (gem5-Stats-style).
 *
 * Components register named counters/gauges/histograms once (dotted paths,
 * e.g. "pipeline.encoder.pixels_kept" or "dram.write_bytes") and keep the
 * returned handle; hot-path updates are a relaxed atomic add through the
 * handle, never a name lookup. The registry owns the storage (node-based
 * map, so handles stay valid for its lifetime) and renders deterministic,
 * name-sorted dumps plus JSON/CSV snapshots (see metrics_export.hpp).
 */

#ifndef RPX_OBS_PERF_REGISTRY_HPP
#define RPX_OBS_PERF_REGISTRY_HPP

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rpx::obs {

/** Monotonic event counter. Thread-safe, relaxed ordering. */
class Counter
{
  public:
    void add(u64 delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
    void inc() { add(1); }
    u64 value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<u64> value_{0};
};

/** Last-value gauge for non-monotonic quantities (footprint, fractions). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket latency/size histogram.
 *
 * Buckets are defined by their inclusive upper bounds; a value lands in the
 * first bucket whose bound is >= value, or in the implicit overflow bucket.
 * Also tracks count/sum/min/max so mean latency survives bucket coarseness.
 */
class Histogram
{
  public:
    /** @param bounds ascending inclusive upper bounds (one bucket each). */
    explicit Histogram(std::vector<double> bounds);

    /** Default buckets for stage latencies in microseconds: 1us..1s. */
    static std::vector<double> defaultLatencyBoundsUs();

    void record(double v);

    u64 count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const;
    double mean() const;
    double min() const;
    double max() const;

    /**
     * Bucket-interpolated quantile estimate, q in [0, 1] (0.99 = p99).
     *
     * Edge cases are pinned down (they used to be easy to get wrong when
     * consumers hand-rolled this from bucket counts):
     *  - empty histogram -> 0.0 (matches mean()/min()/max());
     *  - every estimate is clamped into [min(), max()], so a single
     *    sample returns exactly that sample and p999 on a handful of
     *    samples returns max() instead of extrapolating past it;
     *  - the overflow bucket interpolates toward max(), not infinity.
     */
    double quantile(double q) const;

    const std::vector<double> &bounds() const { return bounds_; }
    /** Per-bucket counts; index bounds().size() is the overflow bucket. */
    std::vector<u64> bucketCounts() const;

  private:
    std::vector<double> bounds_;
    std::vector<std::unique_ptr<std::atomic<u64>>> buckets_;
    std::atomic<u64> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_;
    std::atomic<double> max_;
};

/** One row of a metrics snapshot (see PerfRegistry::snapshot). */
struct MetricSample {
    enum class Kind { Counter, Gauge, Histogram };
    std::string name;
    Kind kind = Kind::Counter;
    double value = 0.0;           //!< counter/gauge value, histogram count
    // Histogram-only detail.
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> bounds;
    std::vector<u64> buckets;
};

/**
 * Quantile estimate from a histogram snapshot (same algorithm and edge-case
 * behaviour as Histogram::quantile, for consumers that only hold a
 * MetricSample — exporters, bench reports, trend tooling).
 */
double sampleQuantile(const MetricSample &sample, double q);

/**
 * The registry: name -> metric, thread-safe registration, stable handles.
 */
class PerfRegistry
{
  public:
    /** Get-or-create; kind mismatches on an existing name throw. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds = {});

    /** Number of registered metrics (all kinds). */
    size_t size() const;

    /**
     * Name-sorted snapshot of every metric. Deterministic: two registries
     * with the same registrations and updates snapshot identically.
     */
    std::vector<MetricSample> snapshot() const;

    /** Human-readable name-sorted dump ("name = value" per line). */
    void dump(std::ostream &os) const;

  private:
    struct Entry {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

} // namespace rpx::obs

#endif // RPX_OBS_PERF_REGISTRY_HPP
