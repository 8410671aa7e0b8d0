#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"

namespace lgv::sim {

namespace {

constexpr struct {
  FaultKind kind;
  const char* name;
} kKindNames[] = {
    {FaultKind::kOutage, "outage"},
    {FaultKind::kLossBurst, "loss_burst"},
    {FaultKind::kLatencyInflation, "latency"},
    {FaultKind::kRssiCliff, "rssi_cliff"},
    {FaultKind::kWorkerStall, "worker_stall"},
    {FaultKind::kWorkerCrash, "worker_crash"},
    {FaultKind::kCorruptBurst, "corrupt_burst"},
    {FaultKind::kTruncate, "truncate"},
    {FaultKind::kDuplicate, "duplicate"},
    {FaultKind::kReorder, "reorder"},
    {FaultKind::kPoolCrash, "pool_crash"},
    {FaultKind::kPoolDegrade, "pool_degrade"},
    {FaultKind::kPoolPartition, "pool_partition"},
};

bool is_worker_fault(FaultKind kind) {
  return kind == FaultKind::kWorkerStall || kind == FaultKind::kWorkerCrash;
}

bool is_pool_crash(FaultKind kind) { return kind == FaultKind::kPoolCrash; }

/// Collect the [start, end) windows of the matching events, merged and sorted.
std::vector<std::pair<double, double>> merged_windows(
    const FaultSchedule& schedule, bool (*match)(FaultKind)) {
  std::vector<std::pair<double, double>> w;
  for (const FaultEvent& e : schedule.events) {
    if (match(e.kind) && e.duration > 0.0) w.emplace_back(e.start, e.end());
  }
  std::sort(w.begin(), w.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& [s, e] : w) {
    if (!merged.empty() && s <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, e);
    } else {
      merged.emplace_back(s, e);
    }
  }
  return merged;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (const auto& entry : kKindNames) {
    if (name == entry.name) return entry.kind;
  }
  return std::nullopt;
}

double FaultSchedule::horizon() const {
  double h = 0.0;
  for (const FaultEvent& e : events) h = std::max(h, e.end());
  return h;
}

FaultSchedule parse_fault_schedule(const std::string& text) {
  FaultSchedule schedule;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string kind_name;
    if (!(fields >> kind_name)) continue;  // blank / comment-only line
    const auto kind = fault_kind_from_name(kind_name);
    if (!kind.has_value()) {
      throw std::invalid_argument("fault schedule line " + std::to_string(line_no) +
                                  ": unknown kind '" + kind_name + "'");
    }
    FaultEvent e;
    e.kind = *kind;
    if (!(fields >> e.start >> e.duration)) {
      throw std::invalid_argument("fault schedule line " + std::to_string(line_no) +
                                  ": expected '<kind> <start> <duration> [magnitude]'");
    }
    fields >> e.magnitude;  // optional
    schedule.events.push_back(e);
  }
  return schedule;
}

std::string format_fault_schedule(const FaultSchedule& schedule) {
  std::ostringstream out;
  for (const FaultEvent& e : schedule.events) {
    out << fault_kind_name(e.kind) << ' ' << e.start << ' ' << e.duration;
    if (e.magnitude != 0.0) out << ' ' << e.magnitude;
    out << '\n';
  }
  return out.str();
}

FaultInjector::FaultInjector(FaultSchedule schedule)
    : schedule_(std::move(schedule)),
      worker_down_(merged_windows(schedule_, is_worker_fault)),
      outage_windows_(merged_windows(
          schedule_, +[](FaultKind k) { return k == FaultKind::kOutage; })),
      pool_down_(merged_windows(schedule_, is_pool_crash)),
      activated_(schedule_.events.size(), false) {}

void FaultInjector::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry != nullptr && telemetry->enabled() ? telemetry : nullptr;
}

net::ChannelOverride FaultInjector::override_at(double t) const {
  net::ChannelOverride o;
  for (const FaultEvent& e : schedule_.events) {
    if (!e.active(t)) continue;
    switch (e.kind) {
      case FaultKind::kOutage:
        o.force_outage = true;
        break;
      case FaultKind::kLossBurst:
        o.extra_loss += e.magnitude;
        break;
      case FaultKind::kLatencyInflation:
        o.extra_latency_s += e.magnitude;
        break;
      case FaultKind::kRssiCliff:
        o.rssi_offset_db -= e.magnitude;
        break;
      case FaultKind::kCorruptBurst:
        // Overlapping bursts compose as independent flip sources.
        o.corrupt_bit_prob = 1.0 - (1.0 - o.corrupt_bit_prob) * (1.0 - e.magnitude);
        break;
      case FaultKind::kTruncate:
        o.truncate_prob = 1.0 - (1.0 - o.truncate_prob) * (1.0 - e.magnitude);
        break;
      case FaultKind::kDuplicate:
        o.duplicate_prob = 1.0 - (1.0 - o.duplicate_prob) * (1.0 - e.magnitude);
        break;
      case FaultKind::kReorder:
        o.reorder_jitter_s = std::max(o.reorder_jitter_s, e.magnitude);
        break;
      case FaultKind::kWorkerStall:
      case FaultKind::kWorkerCrash:
      case FaultKind::kPoolCrash:
      case FaultKind::kPoolDegrade:
      case FaultKind::kPoolPartition:
        break;  // worker and pool faults don't touch the channel
    }
  }
  return o;
}

void FaultInjector::update(double now) {
  // One-shot activation bookkeeping: the whole event is known up front, so
  // the trace span (with its real duration) is emitted the moment it starts.
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& e = schedule_.events[i];
    if (activated_[i] || now < e.start) continue;
    activated_[i] = true;
    ++activated_count_;
    if (telemetry_ != nullptr) {
      const char* kind = fault_kind_name(e.kind);
      telemetry_->tracer().span(std::string("fault.") + kind, "faults", kind,
                                e.start, e.duration,
                                {{"magnitude", e.magnitude}});
      telemetry_->metrics().counter("fault_injected_total", {{"kind", kind}}).inc();
    }
  }
  if (channel_ != nullptr) channel_->set_override(override_at(now));
}

bool FaultInjector::worker_unavailable(double t) const {
  for (const auto& [s, e] : worker_down_) {
    if (t >= s && t < e) return true;
    if (s > t) break;
  }
  return false;
}

bool FaultInjector::worker_crashed_in(double t0, double t1) const {
  for (const FaultEvent& e : schedule_.events) {
    if (e.kind != FaultKind::kWorkerCrash) continue;
    if (e.start < t1 && e.end() > t0) return true;
  }
  return false;
}

double FaultInjector::remote_completion(double start, double work_s) const {
  double t = start;
  double remaining = std::max(0.0, work_s);
  for (const auto& [s, e] : worker_down_) {
    if (e <= t) continue;
    if (t + remaining <= s) break;  // finishes before this window opens
    if (t >= s) {
      t = e;  // started inside the window: resume at its end
    } else {
      remaining -= s - t;  // work until the window opens, then pause
      t = e;
    }
  }
  return t + remaining;
}

double FaultInjector::link_restored_after(double t) const {
  double restored = t;
  for (const auto& [s, e] : outage_windows_) {
    if (restored >= s && restored < e) restored = e;
    if (s > restored) break;
  }
  return restored;
}

bool FaultInjector::link_forced_out(double t) const {
  for (const auto& [s, e] : outage_windows_) {
    if (t >= s && t < e) return true;
    if (s > t) break;
  }
  return false;
}

bool FaultInjector::pool_down(double t) const {
  for (const auto& [s, e] : pool_down_) {
    if (t >= s && t < e) return true;
    if (s > t) break;
  }
  return false;
}

bool FaultInjector::pool_crashed_in(double t0, double t1) const {
  for (const auto& [s, e] : pool_down_) {
    if (s < t1 && e > t0) return true;
    if (s >= t1) break;
  }
  return false;
}

double FaultInjector::pool_restored_after(double t) const {
  double restored = t;
  for (const auto& [s, e] : pool_down_) {
    if (restored >= s && restored < e) restored = e;
    if (s > restored) break;
  }
  return restored;
}

int FaultInjector::pool_cores_lost(double t) const {
  double lost = 0.0;
  for (const FaultEvent& e : schedule_.events) {
    if (e.kind == FaultKind::kPoolDegrade && e.active(t)) {
      lost = std::max(lost, e.magnitude);
    }
  }
  return static_cast<int>(lost);
}

double FaultInjector::pool_degrade_end(double t) const {
  double end = t;
  for (const FaultEvent& e : schedule_.events) {
    if (e.kind == FaultKind::kPoolDegrade && e.active(t)) {
      end = std::max(end, e.end());
    }
  }
  return end;
}

bool FaultInjector::session_partitioned(uint32_t session, double t) const {
  for (const FaultEvent& e : schedule_.events) {
    if (e.kind != FaultKind::kPoolPartition || !e.active(t)) continue;
    // Deterministic subset selection: hash the session id with the window's
    // start (so two partition windows cut *different* subsets) and compare
    // the resulting uniform [0,1) draw against the magnitude. Pure in the
    // schedule — no injector state, reproducible across pools and runs.
    const uint64_t salt = static_cast<uint64_t>(e.start * 1e3);
    const uint64_t h = splitmix64(static_cast<uint64_t>(session) ^
                                  (salt * 0x9e3779b97f4a7c15ULL));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < e.magnitude) return true;
  }
  return false;
}

FaultSchedule make_chaos_schedule(double outage_s, double stall_fraction,
                                  double horizon_s) {
  // `horizon_s` is the *nominal* (fault-free) mission duration: the outage
  // lands mid-mission at 0.35×nominal, and stall windows cover [0.5, 2]×
  // nominal so they persist even when the faults themselves slow the run.
  FaultSchedule s;
  const double mid = 0.35 * horizon_s;
  if (outage_s > 0.0) {
    // Abrupt AP failure — no warning ramp, so Algorithm 2 cannot migrate
    // ahead of it (the case the lease protocol exists for) — followed by a
    // messy handoff to a weaker AP: RSSI cliff, loss burst, inflated latency.
    s.add(FaultKind::kOutage, mid, outage_s);
    s.add(FaultKind::kRssiCliff, mid + outage_s, 8.0, 12.0);
    s.add(FaultKind::kLossBurst, mid + outage_s, 6.0, 0.25);
    s.add(FaultKind::kLatencyInflation, mid + outage_s, 5.0, 0.04);
  }
  if (stall_fraction > 0.0) {
    // Periodic worker stalls: every 20 s the worker freezes for
    // stall_fraction of the period (the "probability" axis of the sweep,
    // made deterministic as a duty cycle).
    const double period = 20.0;
    const double stall = std::min(stall_fraction, 0.9) * period;
    for (double t = 0.5 * horizon_s; t + stall < 2.0 * horizon_s; t += period) {
      s.add(FaultKind::kWorkerStall, t, stall);
    }
  }
  return s;
}

FaultSchedule make_corruption_schedule(double flip_prob, double jitter_s,
                                       double horizon_s) {
  FaultSchedule s;
  const double span = 3.0 * horizon_s;
  if (flip_prob > 0.0) s.add(FaultKind::kCorruptBurst, 0.0, span, flip_prob);
  if (jitter_s > 0.0) s.add(FaultKind::kReorder, 0.0, span, jitter_s);
  // Short mid-mission truncation and duplication bursts: enough traffic
  // passes through them to exercise the runt-frame and dedupe paths without
  // dominating the corruption axis under study.
  s.add(FaultKind::kTruncate, 0.25 * horizon_s, 10.0, 0.2);
  s.add(FaultKind::kDuplicate, 0.55 * horizon_s, 10.0, 0.3);
  return s;
}

FaultSchedule make_pool_chaos_schedule(double crash_at, double crash_s,
                                       double partition_frac,
                                       double degraded_cores, double degrade_s) {
  FaultSchedule s;
  // A reachability brown-out precedes the crash: a subset of sessions starts
  // bouncing while the pool still looks healthy to everyone else — the case
  // that must drive *selective* failover, not a fleet-wide stampede.
  if (partition_frac > 0.0 && crash_at > 4.0) {
    s.add(FaultKind::kPoolPartition, crash_at - 4.0, 4.0, partition_frac);
  }
  if (crash_s > 0.0) s.add(FaultKind::kPoolCrash, crash_at, crash_s);
  // The restarted pool comes back short-handed (warm-up, lost replicas)
  // before recovering full capacity.
  if (degraded_cores > 0.0 && degrade_s > 0.0) {
    s.add(FaultKind::kPoolDegrade, crash_at + crash_s, degrade_s, degraded_cores);
  }
  return s;
}

}  // namespace lgv::sim
