// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms, keyed Prometheus-style by `name{label=value,...}`. The paper's
// evaluation lives and dies on measurement (per-node times for Algorithm 1,
// bandwidth/direction for Algorithm 2) — this registry is the shared
// low-overhead surface every layer records into.
//
// Concurrency contract: registration (counter()/gauge()/histogram()) takes a
// mutex and returns a handle whose address is stable for the registry's
// lifetime; hot paths cache the handle once and then touch only atomics.
// Snapshots can be taken from any thread while writers are active.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lgv::telemetry {

/// Label set, e.g. {{"topic", "scan"}}. Kept sorted by key inside the
/// registry so {a=1,b=2} and {b=2,a=1} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, in-flight bytes, ...).
/// Also tracks the high-water mark, which is what mission post-mortems
/// usually want from a depth gauge.
class Gauge {
 public:
  void set(double v);
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

/// Fixed-bucket histogram. Bucket `i` counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest. Quantiles are extracted by
/// linear interpolation inside the containing bucket — exact enough for
/// p50/p90/p99 reporting and allocation-free on the record path.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bucket_bounds);

  void observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Observations above the top bucket bound. Exported explicitly so values
  /// past the configured range show up as a count instead of silently
  /// distorting p99 interpolation.
  uint64_t overflow_count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// q in [0, 1]; returns 0 when empty.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  ///< bounds_.size() + 1 (overflow last)
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Default histogram bounds for virtual-time durations in seconds
/// (100 µs .. 5 s, roughly logarithmic).
std::vector<double> duration_bounds_s();
/// Default bounds for millisecond latencies (0.1 ms .. 2 s).
std::vector<double> latency_bounds_ms();

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported series — the copyable form used by MissionReport and JSON.
struct MetricSample {
  std::string name;    ///< family name (no labels)
  std::string key;     ///< full series key `name{label=value}`
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  ///< counter value / gauge value / histogram count
  double max = 0.0;    ///< gauge high-water mark
  // Histogram extraction:
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double overflow = 0.0;  ///< observations above the top bucket bound
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// Distinct family names (sorted).
  std::vector<std::string> families() const;
  /// First sample whose series key matches exactly, nullptr if absent.
  const MetricSample* find(const std::string& key) const;
};

class MetricsRegistry {
 public:
  /// Get-or-create. The returned reference stays valid for the registry's
  /// lifetime; a histogram's bucket bounds are fixed by the first caller.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       std::vector<double> bucket_bounds = duration_bounds_s());

  /// Full series key for `name` + `labels` (labels sorted by key).
  static std::string series_key(const std::string& name, const Labels& labels);

  /// Labels merged into every subsequently registered series (explicit labels
  /// win on key collision). Set before the first registration — e.g. the
  /// fleet `vehicle_id` — so every key in the registry carries the identity.
  void set_default_labels(Labels labels);

  MetricsSnapshot snapshot() const;
  /// Deterministic JSON object: {"series key": {...}, ...} sorted by key.
  void write_json(std::ostream& os) const;

  size_t series_count() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// `labels` + defaults (explicit keys win), ready for series_key.
  Labels merged_labels(const Labels& labels) const;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> series_;
  Labels default_labels_;
};

/// JSON rendering of a snapshot (same schema as MetricsRegistry::write_json).
void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot);

}  // namespace lgv::telemetry
