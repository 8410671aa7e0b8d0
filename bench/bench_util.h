// Shared formatting helpers for the experiment harnesses. Each bench binary
// regenerates one table or figure of the paper (see DESIGN.md's experiment
// index) and prints it as aligned text plus, where useful, CSV-ish series
// that can be piped into a plotting tool.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry/metrics.h"

namespace lgv::bench {

/// Wall-clock stopwatch on std::chrono::steady_clock. The mission benches run
/// on virtual time (SimClock); this exists for the host-performance legs that
/// measure the real kernels (BENCH_kernel_wallclock.json) where elapsed
/// machine time IS the result.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Median of a sample set (by value; the input is copied and sorted).
/// Medians, not means: one scheduler hiccup in N runs must not move the
/// reported number.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Median wall-clock seconds of one run of `a` and of `b`, over `runs` runs
/// of each, interleaved (a, b, a, b, ...) so that load drift on a shared
/// host falls on both alike rather than on whichever runs last.
template <typename A, typename B>
std::pair<double, double> time_interleaved_medians(int runs, A&& a, B&& b) {
  std::vector<double> a_s, b_s;
  for (int r = 0; r < runs; ++r) {
    WallTimer t;
    a();
    a_s.push_back(t.seconds());
    t.reset();
    b();
    b_s.push_back(t.seconds());
  }
  return {median(std::move(a_s)), median(std::move(b_s))};
}

inline void print_title(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_subtitle(const std::string& s) {
  std::printf("\n--- %s ---\n", s.c_str());
}

/// Pretty seconds: ms below 1 s, s above.
inline std::string fmt_time(double seconds) {
  char buf[64];
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  }
  return buf;
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// A double as a JSON number in its shortest exact (round-trip) spelling, so
/// a gate that holds a cycle-model number to 1e-9 relative sees any change.
/// Non-finite values have no JSON spelling and become null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

inline const char* json_bool(bool b) { return b ? "true" : "false"; }

/// Accumulates per-run metric snapshots and writes them next to the bench's
/// stdout table as `BENCH_<name>_telemetry.json`:
///   {"bench": "<name>", "runs": {"<label>": {<series...>}, ...}}
/// Each run object is the telemetry::write_metrics_json format, so the same
/// offline tooling reads mission `_metrics.json` files and bench sidecars.
class TelemetrySidecar {
 public:
  explicit TelemetrySidecar(std::string bench_name) : name_(std::move(bench_name)) {}

  void add(std::string run_label, telemetry::MetricsSnapshot snapshot) {
    runs_.emplace_back(std::move(run_label), std::move(snapshot));
  }

  std::string path() const { return "BENCH_" + name_ + "_telemetry.json"; }

  /// Write the sidecar; prints where it went. Returns false on I/O failure.
  bool write() const {
    std::ofstream f(path());
    if (!f) return false;
    f << "{\n  \"bench\": \"" << name_ << "\",\n  \"runs\": {\n";
    for (size_t i = 0; i < runs_.size(); ++i) {
      f << "    \"" << runs_[i].first << "\": ";
      telemetry::write_metrics_json(f, runs_[i].second);
      f << (i + 1 < runs_.size() ? ",\n" : "\n");
    }
    f << "  }\n}\n";
    if (f) std::printf("telemetry sidecar: %s (%zu runs)\n", path().c_str(), runs_.size());
    return static_cast<bool>(f);
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, telemetry::MetricsSnapshot>> runs_;
};

/// Print a labeled grid: rows × cols of strings with a header.
inline void print_grid(const std::string& corner, const std::vector<std::string>& col_names,
                       const std::vector<std::string>& row_names,
                       const std::vector<std::vector<std::string>>& cells) {
  std::printf("%-14s", corner.c_str());
  for (const auto& c : col_names) std::printf("%12s", c.c_str());
  std::printf("\n");
  for (size_t r = 0; r < row_names.size(); ++r) {
    std::printf("%-14s", row_names[r].c_str());
    for (size_t c = 0; c < cells[r].size(); ++c) {
      std::printf("%12s", cells[r][c].c_str());
    }
    std::printf("\n");
  }
}

}  // namespace lgv::bench
