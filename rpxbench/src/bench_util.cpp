#include "bench_util.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rpxbench {

u64
mix(u64 a, u64 b)
{
    u64 z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::optional<double>
exactQuantile(std::vector<double> samples, double q, size_t min_beyond)
{
    const size_t n = samples.size();
    if (n == 0 || q <= 0.0 || q >= 1.0)
        return std::nullopt;
    // Nearest rank: the k-th smallest sample, k = ceil(q * n), 1-based.
    size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    k = std::clamp<size_t>(k, 1, n);
    if (n - k < min_beyond)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     samples.end());
    return samples[k - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

u64
frameHash(u32 stream, u64 frame, const rpx::Image &img)
{
    const std::vector<u8> &bytes = img.data();
    u64 h = mix(stream, frame) ^
            (static_cast<u64>(static_cast<u32>(img.width())) << 32 |
             static_cast<u32>(img.height()));
    const size_t n = bytes.size();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        u64 v;
        std::memcpy(&v, bytes.data() + i, 8);
        h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 32;
    }
    for (; i < n; ++i)
        h = (h ^ bytes[i]) * 0x100000001B3ULL;
    return mix(h, n);
}

u64
sumSquaredError(const rpx::Image &a, const rpx::Image &b)
{
    const std::vector<u8> &x = a.data();
    const std::vector<u8> &y = b.data();
    const size_t n = std::min(x.size(), y.size());
    u64 sse = 0;
    for (size_t i = 0; i < n; ++i) {
        const int d = int{x[i]} - int{y[i]};
        sse += static_cast<u64>(d * d);
    }
    return sse;
}

double
psnrDb(u64 sse, u64 pixels)
{
    if (pixels == 0)
        return 0.0;
    if (sse == 0)
        return 99.0; // identical frames; the cap the repo's benches use
    const double mse =
        static_cast<double>(sse) / static_cast<double>(pixels);
    return 10.0 * std::log10(255.0 * 255.0 / mse);
}

namespace {

bool
nameChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const char c0 = name.front();
    if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') ||
          (c0 >= '0' && c0 <= '9')))
        return false;
    return std::all_of(name.begin(), name.end(), nameChar);
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return nameChar(c) || c == '/' || c == '%';
    });
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0.0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

HostCpuTimes
HostCpuTimes::now()
{
    // "cpu user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    HostCpuTimes t;
    if (label != "cpu")
        return t;
    for (int field = 0; field < 8; ++field) {
        u64 v = 0;
        if (!(in >> v))
            return HostCpuTimes{};
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
HostCpuTimes::stealSince(const HostCpuTimes &earlier) const
{
    const u64 total_delta = total - earlier.total;
    return total_delta ? static_cast<double>(steal - earlier.steal) /
                             static_cast<double>(total_delta)
                       : 0.0;
}

std::string
fixed(double v, int prec)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(prec);
    os << v;
    return os.str();
}

LayerSpans::LayerSpans(size_t layers)
    : per_layer_(layers), current_(layers, 0.0)
{
}

void
LayerSpans::beginFrame()
{
    std::fill(current_.begin(), current_.end(), 0.0);
    frame_start_ = lap_start_ = Clock::now();
}

void
LayerSpans::lap(size_t layer)
{
    const Clock::time_point now = Clock::now();
    current_[layer] += usBetween(lap_start_, now);
    lap_start_ = now;
}

void
LayerSpans::endFrame()
{
    totals_.push_back(usBetween(frame_start_, Clock::now()));
    for (size_t i = 0; i < per_layer_.size(); ++i)
        per_layer_[i].push_back(current_[i]);
}

double
LayerSpans::sumUs(size_t layer) const
{
    double s = 0.0;
    for (double v : per_layer_[layer])
        s += v;
    return s;
}

double
LayerSpans::totalUs() const
{
    double s = 0.0;
    for (double v : totals_)
        s += v;
    return s;
}

namespace {

std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

} // namespace

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> k = {
        {"frames_per_s", "1/s", "higher", "wall"},
        {"latency_p50_us", "us", "lower", "wall"},
        {"latency_p90_us", "us", "lower", "wall"},
        {"setup_s", "s", "lower", "wall"},
        {"peak_rss_mb", "MB", "lower", "wall"},
        {"good_frac", "ratio", "higher", "model"},
        {"dram_bytes_per_frame", "B", "lower", "model"},
        {"metadata_bytes_per_frame", "B", "lower", "model"},
        {"psnr_db", "dB", "higher", "model"},
    };
    return k;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> k = {
        {"capture.service_us", "us", "lower", "wall"},
        {"encode.service_us", "us", "lower", "wall"},
        {"encode.ns_per_px", "ns", "lower", "wall"},
        {"encode.service_us_full", "us", "lower", "wall"},
        {"encode.service_us_tracked", "us", "lower", "wall"},
        {"encode.region_comparisons_per_frame", "count", "lower", "model"},
        {"encode.compare_cycles_per_frame", "cycles", "lower", "model"},
        {"encode.kept_fraction", "ratio", "lower", "model"},
        {"store.service_us", "us", "lower", "wall"},
        {"dram.write_txn_per_frame", "count", "lower", "model"},
        {"dram.read_txn_per_frame", "count", "lower", "model"},
        {"decode.service_us", "us", "lower", "wall"},
        {"decode.ns_per_px", "ns", "lower", "wall"},
        {"fleet.wait_us", "us", "lower", "wall"},
        {"fleet.wait_share", "ratio", "lower", "wall"},
        {"fleet.capture_queue.pop_wait_ratio", "ratio", "higher", "wall"},
        {"fleet.capture_queue.high_water", "count", "lower", "wall"},
        {"fleet.encode_queue.pop_wait_ratio", "ratio", "higher", "wall"},
        {"fleet.encode_queue.high_water", "count", "lower", "wall"},
        {"fleet.store_queue.pop_wait_ratio", "ratio", "higher", "wall"},
        {"fleet.store_queue.high_water", "count", "lower", "wall"},
        {"fleet.decode_queue.pop_wait_ratio", "ratio", "higher", "wall"},
        {"fleet.decode_queue.high_water", "count", "lower", "wall"},
        {"fleet.store_batch_mean", "frames", "higher", "wall"},
        {"fleet.engine_waits", "1/frame", "lower", "wall"},
        {"fault.quarantine_frac", "ratio", "lower", "model"},
        {"fault.held_frames", "count", "lower", "model"},
        {"policy.us_per_frame", "us", "lower", "wall"},
        {"policy.regions_per_frame", "count", "lower", "model"},
        {"vision.us_per_frame", "us", "lower", "wall"},
        {"energy.nj_per_frame", "nJ", "lower", "model"},
        {"sink.us_per_frame", "us", "lower", "wall"},
        {"serial.frames_per_s", "1/s", "higher", "wall"},
        {"trace.overhead_frac", "ratio", "lower", "wall"},
        {"trace.unattributed_us", "us", "lower", "wall"},
        {"inputs.gen_s", "s", "lower", "wall"},
    };
    return k;
}

MetricSet::MetricSet(const std::vector<MetricSpec> &catalog)
    : catalog_(&catalog), values_(catalog.size(), 0.0),
      is_set_(catalog.size(), false), notes_(catalog.size())
{
}

size_t
MetricSet::index(std::string_view name) const
{
    for (size_t i = 0; i < catalog_->size(); ++i)
        if (name == (*catalog_)[i].name)
            return i;
    throw std::invalid_argument("unknown metric " + std::string(name));
}

void
MetricSet::set(std::string_view name, double value, std::string note)
{
    const size_t i = index(name);
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + std::string(name) +
                                 " is not finite");
    values_[i] = value;
    is_set_[i] = true;
    notes_[i] = std::move(note);
}

std::vector<std::string>
MetricSet::unset() const
{
    std::vector<std::string> out;
    for (size_t i = 0; i < catalog_->size(); ++i)
        if (!is_set_[i])
            out.emplace_back((*catalog_)[i].name);
    return out;
}

std::string
MetricSet::text(std::string_view indent) const
{
    std::ostringstream os;
    for (size_t i = 0; i < catalog_->size(); ++i) {
        const MetricSpec &m = (*catalog_)[i];
        os << indent << m.name << " = " << number(values_[i]) << " "
           << m.unit << " [" << m.kind << "]";
        if (!is_set_[i])
            os << "  (layer not exercised by this workload)";
        else if (!notes_[i].empty())
            os << "  " << notes_[i];
        os << "\n";
    }
    return os.str();
}

std::string
MetricSet::json() const
{
    std::string out = "{";
    for (size_t i = 0; i < catalog_->size(); ++i) {
        const MetricSpec &m = (*catalog_)[i];
        out += std::string(i ? ", \"" : "\"") + m.name +
               "\": {\"value\": " + number(values_[i]) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

void
RunResult::fail(std::string what)
{
    if (std::find(check_failures.begin(), check_failures.end(), what) ==
        check_failures.end())
        check_failures.push_back(std::move(what));
}

std::string
resultJson(const RunResult &r, bool trace)
{
    const std::string metrics =
        r.correct() ? (trace ? r.per_layer : r.end_to_end).json() : "{}";
    return std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"metrics\": " + metrics + "}";
}

} // namespace rpxbench
