#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dq::obs {

namespace detail {
// The calling partition's lane.  Lane 0 outside the parallel engine, so every
// serial simulation (and all setup-time registration on the main thread)
// behaves exactly as before lanes existed.
thread_local std::uint32_t t_current_lane = 0;
}  // namespace detail

namespace {

constexpr std::uint64_t kSub = std::uint64_t{1} << HistogramData::kSubBits;
// Values below this get a bucket of width one: index == value.
constexpr std::uint64_t kLinear = 2 * kSub;

// A value with bit width b > kSubBits + 1 keeps its top kSubBits + 1 bits:
// shifting by s = b - kSubBits - 1 leaves a mantissa in [kSub, 2*kSub), and
// the index s*kSub + mantissa is contiguous with the linear range below.
std::size_t bucket_index(std::uint64_t ns) {
  constexpr int kKeep = HistogramData::kSubBits + 1;
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(ns)) - kKeep);
  return (static_cast<std::size_t>(shift) << HistogramData::kSubBits) +
         static_cast<std::size_t>(ns >> shift);
}

// Midpoint of the integer nanosecond values bucket `i` holds.
double bucket_mid_ns(std::size_t i) {
  if (i < kLinear) return static_cast<double>(i);
  const unsigned shift =
      static_cast<unsigned>(i >> HistogramData::kSubBits) - 1;
  const std::uint64_t lo = ((i & (kSub - 1)) | kSub) << shift;
  const std::uint64_t width = std::uint64_t{1} << shift;
  return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
}

constexpr double kNsPerMs = 1e6;
// Simulated durations never approach this (sim::kTimeInfinity is ~73 years);
// the clamp only keeps the float-to-integer conversion defined.
constexpr double kMaxNs = 9.0e18;

}  // namespace

void HistogramData::observe(double v_ms) {
  if (count == 0) {
    min = v_ms;
    max = v_ms;
  } else {
    min = std::min(min, v_ms);
    max = std::max(max, v_ms);
  }
  ++count;
  sum += v_ms;
  const double ns = std::clamp(v_ms * kNsPerMs + 0.5, 0.0, kMaxNs);
  const std::size_t i = bucket_index(static_cast<std::uint64_t>(ns));
  if (i >= buckets.size()) buckets.resize(i + 1, 0);
  ++buckets[i];
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  if (!(q > 0.0)) return min;
  if (q >= 1.0) return max;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return std::clamp(bucket_mid_ns(i) / kNsPerMs, min, max);
  }
  return max;
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  if (buckets.size() < other.buckets.size()) buckets.resize(other.buckets.size(), 0);
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

HistogramData Histogram::merged() const {
  HistogramData out = data_;
  for (const HistogramData& d : extra_) out.merge(d);
  return out;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const HistogramData* MetricsSnapshot::histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

std::map<std::string, std::uint64_t> MetricsSnapshot::counters_with_prefix(
    const std::string& prefix) const {
  std::map<std::string, std::uint64_t> out;
  for (auto it = counters.lower_bound(prefix); it != counters.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace(it->first.substr(prefix.size()), it->second);
  }
  return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, g] : other.gauges) {
    GaugeSnapshot& mine = gauges[name];
    mine.value = std::max(mine.value, g.value);
    mine.max = std::max(mine.max, g.max);
  }
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

void MetricsRegistry::set_lanes(std::uint32_t n) {
  lanes_ = n < 1 ? 1 : n;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>(lanes_);
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>(lanes_);
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(lanes_);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    s.gauges[name] = GaugeSnapshot{g->value(), g->max()};
  }
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->merged();
  return s;
}

std::string node_metric(const std::string& base, std::uint32_t node) {
  return base + ".n" + std::to_string(node);
}

}  // namespace dq::obs
