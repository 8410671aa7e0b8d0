#include "core/worker_pool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lgv::core {

namespace {
// Virtual-second buckets for queue-wait quantiles: 0.1 ms .. 10 s.
std::vector<double> wait_bounds_s() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
          5e-2, 0.1,    0.25, 0.5,  1.0,    2.5,  5.0,  10.0};
}

std::vector<double> batch_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

// Items per real-dispatch grain. Request regions are padded to multiples of
// this so every grain's cycles belong to exactly one request (one writer per
// grain slot — the same determinism trick parallel_kernel_blocks uses).
constexpr size_t kBatchGrain = 8;

/// "worker." + kernel_kind_name(kind): the name of a request's trace span.
const char* worker_span_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScanMatch:
      return "worker.scan_match";
    case KernelKind::kScoreTrajectory:
      return "worker.score_trajectory";
    default:
      return "worker.generic";
  }
}
}  // namespace

const char* kernel_kind_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScanMatch:
      return "scan_match";
    case KernelKind::kScoreTrajectory:
      return "score_trajectory";
    default:
      return "generic";
  }
}

WorkerPool::WorkerPool(WorkerPoolConfig config, telemetry::Telemetry* telemetry)
    : config_(config),
      pool_(static_cast<size_t>(
          std::max(1, config.threads > 0 ? config.threads : config.cores))) {
  config_.cores = std::max(1, config_.cores);
  core_free_.assign(static_cast<size_t>(config_.cores), 0.0);
  if (telemetry != nullptr && telemetry->enabled()) {
    telemetry_ = telemetry;
    pool_.set_telemetry(telemetry_, "worker_pool");
    auto& m = telemetry_->metrics();
    busy_total_ = &m.counter("worker_busy_rejects_total");
    evictions_total_ = &m.counter("worker_evictions_total");
    admission_rejects_total_ = &m.counter("worker_admission_rejects_total");
    sessions_gauge_ = &m.gauge("worker_sessions");
    occupancy_gauge_ = &m.gauge("worker_occupancy");
    session_depth_gauge_ = &m.gauge("worker_max_session_depth");
    queue_wait_s_ = &m.histogram("worker_queue_wait_s", {}, wait_bounds_s());
    batch_size_ = &m.histogram("worker_batch_size", {}, batch_bounds());
  }
}

Admission WorkerPool::open_session(const std::string& vehicle, double now,
                                   int weight) {
  step(now);
  if (draining_ || crashed(now) || sessions_.size() >= config_.max_sessions ||
      occupancy(now) > kAdmitOccupancyMax) {
    ++admission_rejects_;
    if (admission_rejects_total_ != nullptr) admission_rejects_total_->inc();
    return {0, true};
  }
  const SessionId id = next_session_++;
  Session& s = sessions_[id];
  s.label = vehicle.empty() ? "session-" + std::to_string(id) : vehicle;
  s.weight = static_cast<uint64_t>(
      std::max(1, weight > 0 ? weight : kDefaultSessionWeight));
  s.lease_expiry = now + kSessionLeaseS;
  if (sessions_gauge_ != nullptr) {
    sessions_gauge_->set(static_cast<double>(sessions_.size()));
  }
  return {id, false};
}

bool WorkerPool::renew(SessionId id, double now) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  if (it->second.lease_expiry < now) {
    // Already past its lease: the eviction just hadn't been collected yet.
    close_session(id);
    ++evictions_;
    if (evictions_total_ != nullptr) evictions_total_->inc();
    return false;
  }
  it->second.lease_expiry = now + kSessionLeaseS;
  return true;
}

void WorkerPool::fail_pending(Session& s, const char* cause) {
  // Accepted requests the flush has not served yet: the session is going
  // away, so each one is *explicitly* failed — a busy verdict carrying the
  // eviction cause — and withdrawn from the flush list. Before PR 9 the
  // ticket went busy but the request stayed in pending_: the dead vehicle's
  // coalesced block still ran (wasted real dispatch) and inflated the
  // survivors' batch accounting (a lone survivor was marked "batched" with a
  // ghost). The regression test evicts mid-flush-window and pins both.
  for (const uint64_t t : s.pending) {
    verdicts_[t] = WorkerVerdict{};
    verdicts_[t].busy = true;
    verdicts_[t].busy_cause = cause;
    ++evicted_requests_;
    if (telemetry_ != nullptr) {
      telemetry_->metrics()
          .counter("worker_busy_cause_total", {{"cause", cause}})
          .inc();
    }
    pending_.erase(std::remove(pending_.begin(), pending_.end(), t),
                   pending_.end());
  }
  s.pending.clear();
}

void WorkerPool::close_session_with(SessionId id, const char* cause) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  fail_pending(it->second, cause);
  sessions_.erase(it);
  if (sessions_gauge_ != nullptr) {
    sessions_gauge_->set(static_cast<double>(sessions_.size()));
  }
}

void WorkerPool::close_session(SessionId id) { close_session_with(id, "evicted"); }

size_t WorkerPool::evict_expired(double now) {
  std::vector<SessionId> expired;
  for (const auto& [id, s] : sessions_) {
    if (s.lease_expiry < now) expired.push_back(id);
  }
  for (const SessionId id : expired) close_session(id);
  evictions_ += expired.size();
  if (evictions_total_ != nullptr && !expired.empty()) {
    evictions_total_->inc(expired.size());
  }
  return expired.size();
}

WorkerPool::Session* WorkerPool::find_session(SessionId id, double now) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  // Traffic renews the lease — an actively offloading vehicle never expires.
  it->second.lease_expiry = std::max(it->second.lease_expiry,
                                     now + kSessionLeaseS);
  return &it->second;
}

size_t WorkerPool::outstanding_depth(Session& s, double now) {
  while (!s.outstanding.empty() && s.outstanding.front() <= now) {
    s.outstanding.pop_front();
  }
  return s.outstanding.size() + s.pending.size();
}

void WorkerPool::note_depth(size_t depth) {
  if (depth > max_session_depth_) {
    max_session_depth_ = depth;
    if (session_depth_gauge_ != nullptr) {
      session_depth_gauge_->set(static_cast<double>(depth));
    }
  }
}

WorkerPool::Ticket WorkerPool::reject_busy(const char* cause) {
  ++busy_rejects_;
  if (busy_total_ != nullptr) busy_total_->inc();
  if (telemetry_ != nullptr) {
    telemetry_->metrics()
        .counter("worker_busy_cause_total", {{"cause", cause}})
        .inc();
  }
  Ticket t;
  t.busy = true;
  t.cause = cause;
  return t;
}

double WorkerPool::start_wait(double now, int threads) const {
  // `threads` cores are simultaneously free once the w-th smallest free time
  // passes — the predicted queueing delay a request dispatched now would see.
  const size_t w = static_cast<size_t>(
      std::clamp(threads, 1, config_.cores));
  std::vector<double> free = core_free_;
  std::nth_element(free.begin(), free.begin() + (w - 1), free.end());
  return std::max(0.0, free[w - 1] - now);
}

WorkerPool::Ticket WorkerPool::enqueue(SessionId session, Request req) {
  if (window_flushed_) {
    // The first submit after a flush opens a new window; the served one's
    // verdicts stop being readable here. (An empty pending_ is no signal:
    // an eviction can empty it mid-window, and the failed ticket's verdict
    // must stay readable.)
    requests_store_.clear();
    verdicts_.clear();
    window_flushed_ = false;
  }
  step(req.arrival);
  // Failure plane first: a draining or crashed pool refuses everything, and
  // a partitioned session's request never reaches the pool at all — in
  // particular it does NOT renew the lease, so a vehicle stuck behind the
  // partition ages out of the session table like any silent tenant.
  if (draining_) return reject_busy("draining");
  if (fault_injector_ != nullptr) {
    if (fault_injector_->pool_down(req.arrival)) return reject_busy("pool_crash");
    if (fault_injector_->session_partitioned(session, req.arrival)) {
      return reject_busy("pool_partition");
    }
  }
  Session* s = find_session(session, req.arrival);
  if (s == nullptr) return reject_busy("no_session");
  const size_t depth = outstanding_depth(*s, req.arrival);
  if (depth >= config_.max_session_queue) return reject_busy("queue_depth");
  if (start_wait(req.arrival, req.threads) > config_.busy_wait_s) {
    return reject_busy("pool_wait");
  }
  note_depth(depth + 1);
  ++requests_;
  if (telemetry_ != nullptr) {
    telemetry_->metrics()
        .counter("worker_requests_total", {{"kernel", kernel_kind_name(req.kind)}})
        .inc();
  }
  Ticket t;
  t.id = requests_store_.size();
  requests_store_.push_back(std::move(req));
  verdicts_.emplace_back();
  pending_.push_back(t.id);
  s->pending.push_back(t.id);
  return t;
}

WorkerPool::Ticket WorkerPool::submit(SessionId session, KernelKind kind, double now,
                                      double service_s, int threads) {
  Request r;
  r.session = session;
  r.kind = kind;
  r.arrival = now;
  r.service_s = std::max(0.0, service_s);
  r.threads = threads;
  return enqueue(session, std::move(r));
}

WorkerPool::Ticket WorkerPool::submit_block(SessionId session, KernelKind kind,
                                            double now, size_t count, BlockFn block,
                                            double seconds_per_cycle, int threads) {
  Request r;
  r.session = session;
  r.kind = kind;
  r.arrival = now;
  r.threads = threads;
  r.count = count;
  r.block = std::move(block);
  r.seconds_per_cycle = seconds_per_cycle;
  return enqueue(session, std::move(r));
}

void WorkerPool::run_batches() {
  // Coalesce same-kernel block requests into one real dispatch each: the
  // whole fleet's scanMatch particles (or rollout candidates) for this tick
  // become a single index space served by one parallel dispatch, exactly the
  // cross-vehicle batching a real inference/compute server does.
  for (int k = 0; k < 3; ++k) {
    std::vector<uint64_t> group;
    size_t total_padded = 0;
    for (const uint64_t id : pending_) {
      Request& r = requests_store_[id];
      if (static_cast<int>(r.kind) != k || !r.block || r.count == 0) continue;
      group.push_back(id);
      total_padded += (r.count + kBatchGrain - 1) / kBatchGrain * kBatchGrain;
    }
    if (group.empty()) continue;
    ++batches_;
    if (batch_size_ != nullptr) {
      batch_size_->observe(static_cast<double>(group.size()));
    }
    if (telemetry_ != nullptr) {
      telemetry_->metrics()
          .counter("worker_batches_total",
                   {{"kernel", kernel_kind_name(static_cast<KernelKind>(k))}})
          .inc();
    }

    // Padded offsets: every request's region is a whole number of grains, so
    // each grain's cycles have exactly one owning request (one writer per
    // grain slot keeps the measurement race-free and deterministic).
    std::vector<size_t> offsets(group.size() + 1, 0);
    for (size_t i = 0; i < group.size(); ++i) {
      const Request& r = requests_store_[group[i]];
      offsets[i + 1] =
          offsets[i] + (r.count + kBatchGrain - 1) / kBatchGrain * kBatchGrain;
    }
    const size_t n_grains = total_padded / kBatchGrain;
    std::vector<double> grain_cycles(n_grains, 0.0);
    auto run_range = [&](size_t begin, size_t end) {
      // Locate the owning request by offset (ranges never straddle grains,
      // grains never straddle requests).
      const size_t req_idx =
          static_cast<size_t>(std::upper_bound(offsets.begin(), offsets.end(), begin) -
                              offsets.begin()) -
          1;
      const Request& r = requests_store_[group[req_idx]];
      const size_t local_begin = begin - offsets[req_idx];
      const size_t local_end = std::min(end - offsets[req_idx], r.count);
      if (local_begin >= local_end) return;  // pure padding
      grain_cycles[begin / kBatchGrain] = r.block(local_begin, local_end);
    };
    pool_.parallel_dynamic(total_padded, kBatchGrain, run_range);

    for (size_t i = 0; i < group.size(); ++i) {
      Request& r = requests_store_[group[i]];
      double cycles = 0.0;
      for (size_t g = offsets[i] / kBatchGrain; g < offsets[i + 1] / kBatchGrain; ++g) {
        cycles += grain_cycles[g];
      }
      r.service_s = cycles * r.seconds_per_cycle;
      r.batched = group.size() > 1;
      if (r.batched) ++batched_requests_;
    }
  }
}

void WorkerPool::schedule(double now) {
  // Weighted stride over the pending requests: the session with the least
  // virtual time serves next; its request takes the `threads` cores that
  // free up earliest. Deterministic (map order breaks vtime ties by id).
  while (true) {
    Session* best = nullptr;
    for (auto& [id, s] : sessions_) {
      if (s.pending.empty()) continue;
      if (best == nullptr || s.vtime < best->vtime) best = &s;
    }
    if (best == nullptr) break;
    const uint64_t ticket = best->pending.front();
    best->pending.erase(best->pending.begin());
    const Request& r = requests_store_[ticket];
    const size_t w = static_cast<size_t>(std::clamp(r.threads, 1, config_.cores));

    // The w cores that free up earliest serve this request together.
    std::vector<size_t> order(core_free_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::partial_sort(order.begin(), order.begin() + w, order.end(),
                      [&](size_t a, size_t b) { return core_free_[a] < core_free_[b]; });
    const double start = std::max(r.arrival, core_free_[order[w - 1]]);
    const double completion = start + r.service_s;
    for (size_t i = 0; i < w; ++i) core_free_[order[i]] = completion;

    WorkerVerdict& v = verdicts_[ticket];
    v.busy = false;
    v.queue_wait = start - r.arrival;
    v.service = r.service_s;
    v.completion = completion;
    v.batched = r.batched;

    best->outstanding.push_back(completion);
    best->vtime += r.service_s * static_cast<double>(w) /
                   static_cast<double>(best->weight);

    if (queue_wait_s_ != nullptr) queue_wait_s_->observe(v.queue_wait);
    if (telemetry_ != nullptr && r.service_s > 0.0) {
      // pid = the remote host lane so the critical-path analyzer buckets
      // pool time as remote compute.
      const auto session = sessions_.find(r.session);
      telemetry_->tracer().span(
          worker_span_name(r.kind), config_.host_label,
          session != sessions_.end() ? std::string_view(session->second.label) : "evicted",
          start, r.service_s,
          {{"queue_wait_s", v.queue_wait}, {"batched", r.batched ? "1" : "0"}});
    }
  }
  pending_.clear();
  if (occupancy_gauge_ != nullptr) occupancy_gauge_->set(occupancy(now));
}

void WorkerPool::apply_crash(double crash_end) {
  ++pool_crashes_;
  // The crash wipes the session table (leased state died with the process)
  // and whatever work the cores held; the pool restarts *empty* at the end
  // of the window. Results already promised to callers are reclaimed by the
  // vehicle side: result_lost_in() tells the lease path they never arrive.
  std::vector<SessionId> all;
  all.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) all.push_back(id);
  for (const SessionId id : all) close_session_with(id, "pool_crash");
  evictions_ += all.size();
  if (evictions_total_ != nullptr && !all.empty()) {
    evictions_total_->inc(all.size());
  }
  std::fill(core_free_.begin(), core_free_.end(), crash_end);
  if (telemetry_ != nullptr) {
    telemetry_->metrics().counter("pool_crashes_total").inc();
  }
}

void WorkerPool::step(double now) {
  if (now < fault_step_time_) return;  // virtual time never runs backwards
  if (fault_injector_ != nullptr) {
    // Apply each pool_crash whose start this step crosses, exactly once.
    for (const sim::FaultEvent& e : fault_injector_->schedule().events) {
      if (e.kind != sim::FaultKind::kPoolCrash) continue;
      if (e.start > fault_step_time_ && e.start <= now) apply_crash(e.end());
    }
    // Degrade: the lost cores are parked until the window closes. Idempotent
    // — re-applying the same window is a no-op thanks to the max().
    const int lost = fault_injector_->pool_cores_lost(now);
    if (lost > 0) {
      const double until = fault_injector_->pool_degrade_end(now);
      const size_t k = std::min(static_cast<size_t>(lost), core_free_.size());
      for (size_t i = core_free_.size() - k; i < core_free_.size(); ++i) {
        core_free_[i] = std::max(core_free_[i], until);
      }
    }
  }
  if (draining_) {
    // Evict every session whose in-flight work has landed; their (empty)
    // pending lists make the close a pure table drop.
    std::vector<SessionId> done;
    for (auto& [id, s] : sessions_) {
      if (outstanding_depth(s, now) == 0) done.push_back(id);
    }
    for (const SessionId id : done) close_session_with(id, "draining");
    drain_evictions_ += done.size();
    evictions_ += done.size();
    if (evictions_total_ != nullptr && !done.empty()) {
      evictions_total_->inc(done.size());
    }
  }
  fault_step_time_ = now;
}

bool WorkerPool::result_lost_in(double t0, double t1) const {
  return fault_injector_ != nullptr && fault_injector_->pool_crashed_in(t0, t1);
}

bool WorkerPool::crashed(double t) const {
  return fault_injector_ != nullptr && fault_injector_->pool_down(t);
}

void WorkerPool::begin_drain(double now) {
  if (draining_) return;
  draining_ = true;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().counter("pool_drains_total").inc();
    telemetry_->tracer().instant_now("pool.drain", "decisions", "worker_pool",
                                     {{"sessions", sessions_.size()}});
    // Post-mortem context for the rolling restart: what the fleet was doing
    // when the operator pulled this replica.
    telemetry_->dump_flight("pool_drain");
  }
  step(now);
}

void WorkerPool::end_drain() { draining_ = false; }

bool WorkerPool::drained(double now) const {
  if (!sessions_.empty() || !pending_.empty()) return false;
  for (const double free : core_free_) {
    if (free > now) return false;
  }
  return true;
}

void WorkerPool::note_busy_fallback() {
  ++busy_fallbacks_;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().counter("pool_busy_fallback_total").inc();
  }
}

void WorkerPool::flush(double now) {
  step(now);
  run_batches();
  schedule(now);
  window_flushed_ = true;
}

WorkerVerdict WorkerPool::verdict(const Ticket& ticket) const {
  if (ticket.busy) {
    WorkerVerdict v;
    v.busy = true;
    v.busy_cause = ticket.cause;
    return v;
  }
  assert(ticket.id < verdicts_.size());
  return verdicts_[ticket.id];
}

WorkerVerdict WorkerPool::execute(SessionId session, KernelKind kind, double now,
                                  double service_s, int threads) {
  const Ticket t = submit(session, kind, now, service_s, threads);
  if (t.busy) return verdict(t);
  flush(now);
  return verdict(t);
}

double WorkerPool::occupancy(double now) const {
  size_t busy = 0;
  for (const double free : core_free_) {
    if (free > now) ++busy;
  }
  return static_cast<double>(busy) / static_cast<double>(core_free_.size());
}

}  // namespace lgv::core
