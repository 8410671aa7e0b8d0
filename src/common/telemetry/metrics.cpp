#include "common/telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/telemetry/json_util.h"

namespace lgv::telemetry {

namespace {

// Lock-free max update for an atomic double.
void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

void Gauge::set(double v) {
  value_.store(v, std::memory_order_relaxed);
  atomic_max(max_, v);
}

void Gauge::add(double delta) {
  atomic_add(value_, delta);
  atomic_max(max_, value_.load(std::memory_order_relaxed));
}

Histogram::Histogram(std::vector<double> bucket_bounds) : bounds_(std::move(bucket_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);  // zeroed
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

uint64_t Histogram::overflow_count() const {
  return buckets_[bounds_.size()].load(std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const {
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);

  const double observed_min = min_.load(std::memory_order_relaxed);
  const double observed_max = max_.load(std::memory_order_relaxed);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = static_cast<double>(cumulative + counts[i]);
    if (rank <= next) {
      // Linear interpolation within the bucket, clamped to the observed
      // range so sparse histograms don't report a bound nobody hit.
      double lo = i == 0 ? observed_min : bounds_[i - 1];
      double hi = i < bounds_.size() ? bounds_[i] : observed_max;
      lo = std::max(lo, observed_min);
      hi = std::min(hi, observed_max);
      if (hi <= lo) return hi;
      const double frac =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(counts[i]);
      return lo + frac * (hi - lo);
    }
    cumulative += counts[i];
  }
  return observed_max;
}

std::vector<double> duration_bounds_s() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
          5e-2, 0.1,    0.25, 0.5,  1.0,    2.5,  5.0};
}

std::vector<double> latency_bounds_ms() {
  return {0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
          1000.0, 2000.0};
}

std::string MetricsRegistry::series_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

void MetricsRegistry::set_default_labels(Labels labels) {
  const std::scoped_lock lock(mutex_);
  default_labels_ = std::move(labels);
}

Labels MetricsRegistry::merged_labels(const Labels& labels) const {
  const std::scoped_lock lock(mutex_);
  if (default_labels_.empty()) return labels;
  Labels merged = labels;
  for (const auto& def : default_labels_) {
    const bool overridden =
        std::any_of(labels.begin(), labels.end(),
                    [&](const auto& l) { return l.first == def.first; });
    if (!overridden) merged.push_back(def);
  }
  return merged;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
  const std::string key = series_key(name, merged_labels(labels));
  const std::scoped_lock lock(mutex_);
  auto [it, inserted] = series_.try_emplace(key);
  if (inserted) {
    it->second.name = name;
    it->second.kind = MetricKind::kCounter;
    it->second.counter = std::make_unique<Counter>();
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  const std::string key = series_key(name, merged_labels(labels));
  const std::scoped_lock lock(mutex_);
  auto [it, inserted] = series_.try_emplace(key);
  if (inserted) {
    it->second.name = name;
    it->second.kind = MetricKind::kGauge;
    it->second.gauge = std::make_unique<Gauge>();
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const Labels& labels,
                                      std::vector<double> bucket_bounds) {
  const std::string key = series_key(name, merged_labels(labels));
  const std::scoped_lock lock(mutex_);
  auto [it, inserted] = series_.try_emplace(key);
  if (inserted) {
    it->second.name = name;
    it->second.kind = MetricKind::kHistogram;
    it->second.histogram = std::make_unique<Histogram>(std::move(bucket_bounds));
  }
  return *it->second.histogram;
}

size_t MetricsRegistry::series_count() const {
  const std::scoped_lock lock(mutex_);
  return series_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  MetricsSnapshot snap;
  snap.samples.reserve(series_.size());
  for (const auto& [key, entry] : series_) {
    MetricSample s;
    s.name = entry.name;
    s.key = key;
    s.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(entry.counter->value());
        break;
      case MetricKind::kGauge:
        s.value = entry.gauge->value();
        s.max = entry.gauge->max();
        break;
      case MetricKind::kHistogram:
        s.value = static_cast<double>(entry.histogram->count());
        s.sum = entry.histogram->sum();
        s.p50 = entry.histogram->quantile(0.50);
        s.p90 = entry.histogram->quantile(0.90);
        s.p99 = entry.histogram->quantile(0.99);
        s.overflow = static_cast<double>(entry.histogram->overflow_count());
        break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  write_metrics_json(os, snapshot());
}

std::vector<std::string> MetricsSnapshot::families() const {
  std::vector<std::string> out;
  for (const MetricSample& s : samples) out.push_back(s.name);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const MetricSample* MetricsSnapshot::find(const std::string& key) const {
  for (const MetricSample& s : samples) {
    if (s.key == key) return &s;
  }
  return nullptr;
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << "{\n";
  for (size_t i = 0; i < snapshot.samples.size(); ++i) {
    const MetricSample& s = snapshot.samples[i];
    os << "  \"" << json_escape(s.key) << "\": {\"family\": \"" << json_escape(s.name)
       << "\", \"kind\": \"" << kind_name(s.kind) << "\"";
    switch (s.kind) {
      case MetricKind::kCounter:
        os << ", \"value\": " << json_number(s.value);
        break;
      case MetricKind::kGauge:
        os << ", \"value\": " << json_number(s.value)
           << ", \"max\": " << json_number(s.max);
        break;
      case MetricKind::kHistogram:
        os << ", \"count\": " << json_number(s.value)
           << ", \"sum\": " << json_number(s.sum)
           << ", \"p50\": " << json_number(s.p50)
           << ", \"p90\": " << json_number(s.p90)
           << ", \"p99\": " << json_number(s.p99)
           << ", \"overflow\": " << json_number(s.overflow);
        break;
    }
    os << "}" << (i + 1 < snapshot.samples.size() ? "," : "") << "\n";
  }
  os << "}\n";
}

}  // namespace lgv::telemetry
