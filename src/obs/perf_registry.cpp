#include "obs/perf_registry.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace rpx::obs {

namespace {

/** Relaxed fetch-add for atomic<double> (pre-C++20-library fallback). */
void
atomicAdd(std::atomic<double> &a, double delta)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + delta,
                                    std::memory_order_relaxed)) {
    }
}

void
atomicMin(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

} // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity())
{
    RPX_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must be ascending");
    buckets_.reserve(bounds_.size() + 1); // + overflow
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_.push_back(std::make_unique<std::atomic<u64>>(0));
}

std::vector<double>
Histogram::defaultLatencyBoundsUs()
{
    // 1us .. 1s in half-decade steps.
    return {1,    3,    10,    30,    100,    300,   1000,
            3000, 10000, 30000, 100000, 300000, 1000000};
}

void
Histogram::record(double v)
{
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const size_t idx = static_cast<size_t>(it - bounds_.begin());
    buckets_[idx]->fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, v);
    atomicMin(min_, v);
    atomicMax(max_, v);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    const u64 n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
}

double
Histogram::min() const
{
    return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double
Histogram::max() const
{
    return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

namespace {

/**
 * Shared bucket-interpolation core for Histogram::quantile and
 * sampleQuantile. `q` is clamped to [0, 1]; the estimate is clamped to
 * [lo, hi] (the observed min/max), which resolves every small-N edge case:
 * one sample returns that sample, and p999 of three samples returns the
 * largest sample rather than a value interpolated past it.
 */
double
bucketQuantile(const std::vector<double> &bounds,
               const std::vector<u64> &buckets, u64 count, double lo,
               double hi, double q)
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);

    // Rank of the requested quantile among the recorded samples (1-based).
    const double rank = q * static_cast<double>(count);
    u64 cum = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        const u64 in_bucket = buckets[i];
        if (in_bucket == 0)
            continue;
        if (static_cast<double>(cum + in_bucket) >= rank) {
            // Linear interpolation inside the bucket. Bucket i spans
            // (bounds[i-1], bounds[i]]; the first bucket starts at the
            // observed min and the overflow bucket ends at the observed
            // max (not infinity).
            const double b_lo = i == 0 ? lo : bounds[i - 1];
            const double b_hi = i < bounds.size() ? bounds[i] : hi;
            const double into =
                in_bucket == 0
                    ? 0.0
                    : (rank - static_cast<double>(cum)) /
                          static_cast<double>(in_bucket);
            const double est = b_lo + (b_hi - b_lo) * std::clamp(into, 0.0, 1.0);
            return std::clamp(est, lo, hi);
        }
        cum += in_bucket;
    }
    return hi;
}

} // namespace

double
Histogram::quantile(double q) const
{
    return bucketQuantile(bounds_, bucketCounts(), count(), min(), max(), q);
}

double
sampleQuantile(const MetricSample &sample, double q)
{
    if (sample.kind != MetricSample::Kind::Histogram)
        return 0.0;
    return bucketQuantile(sample.bounds, sample.buckets,
                          static_cast<u64>(sample.value), sample.min,
                          sample.max, q);
}

std::vector<u64>
Histogram::bucketCounts() const
{
    std::vector<u64> counts;
    counts.reserve(buckets_.size());
    for (const auto &b : buckets_)
        counts.push_back(b->load(std::memory_order_relaxed));
    return counts;
}

Counter &
PerfRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = entries_[name];
    if (e.gauge || e.histogram)
        throwInvalid("metric '", name, "' already registered as non-counter");
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
PerfRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = entries_[name];
    if (e.counter || e.histogram)
        throwInvalid("metric '", name, "' already registered as non-gauge");
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Histogram &
PerfRegistry::histogram(const std::string &name, std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = entries_[name];
    if (e.counter || e.gauge)
        throwInvalid("metric '", name,
                     "' already registered as non-histogram");
    if (!e.histogram) {
        if (bounds.empty())
            bounds = Histogram::defaultLatencyBoundsUs();
        e.histogram = std::make_unique<Histogram>(std::move(bounds));
    }
    return *e.histogram;
}

size_t
PerfRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::vector<MetricSample>
PerfRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricSample> out;
    out.reserve(entries_.size());
    for (const auto &[name, e] : entries_) { // std::map: name-sorted
        MetricSample s;
        s.name = name;
        if (e.counter) {
            s.kind = MetricSample::Kind::Counter;
            s.value = static_cast<double>(e.counter->value());
        } else if (e.gauge) {
            s.kind = MetricSample::Kind::Gauge;
            s.value = e.gauge->value();
        } else if (e.histogram) {
            s.kind = MetricSample::Kind::Histogram;
            s.value = static_cast<double>(e.histogram->count());
            s.sum = e.histogram->sum();
            s.min = e.histogram->min();
            s.max = e.histogram->max();
            s.bounds = e.histogram->bounds();
            s.buckets = e.histogram->bucketCounts();
        }
        out.push_back(std::move(s));
    }
    return out;
}

void
PerfRegistry::dump(std::ostream &os) const
{
    for (const MetricSample &s : snapshot()) {
        os << s.name;
        switch (s.kind) {
          case MetricSample::Kind::Counter:
            os << " = " << static_cast<u64>(s.value) << "\n";
            break;
          case MetricSample::Kind::Gauge:
            os << " = " << s.value << "\n";
            break;
          case MetricSample::Kind::Histogram:
            os << " = n " << static_cast<u64>(s.value) << ", mean "
               << (s.value ? s.sum / s.value : 0.0) << ", min " << s.min
               << ", max " << s.max << "\n";
            break;
        }
    }
}

} // namespace rpx::obs
