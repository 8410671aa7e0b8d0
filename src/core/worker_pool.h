// The WORKER side of Fig. 8, refactored from a per-runtime private thread
// pool into a shared multi-tenant service: one WorkerPool admits N vehicles
// (hundreds of simulated LGVs), each behind a leased *session*, and serves
// their scanMatch/scoreTrajectory kernel requests on a weighted fair-share
// schedule over a fixed set of worker cores.
//
// Execution follows the repo's "real compute, modeled time" doctrine: the
// kernels genuinely run on the real ThreadPool (cross-vehicle requests for
// the same kernel arriving within a tick are coalesced into ONE combined
// dispatch, reusing the SoA/SIMD block path), while latency comes from a
// deterministic virtual-time schedule — requests queue per session, the
// stride scheduler picks the session with the least virtual time (weighted),
// and a request occupies `threads` virtual cores for its modeled service
// time. Everything a caller observes (queue wait, completion, busy verdicts,
// occupancy) is virtual and reproducible bit-for-bit.
//
// Admission and eviction reuse the lease protocol: a session is admitted
// with a lease that traffic renews; a vehicle that goes silent past its
// lease is evicted and must re-admit. Backpressure is explicit: when a
// session's outstanding requests hit the queue bound, or the predicted
// wait for cores crosses the busy threshold, the pool answers with a
// retryable "busy" verdict instead of queueing unboundedly — the vehicle
// degrades to local compute via the existing finish_guarded fallback.
//
// The pool is also the fleet's failure plane (PR 9): an attached
// sim::FaultInjector scripts pool_crash (the pool dies, every session is
// lost, submissions bounce until it restarts), pool_degrade (k virtual cores
// vanish for a window) and pool_partition (a deterministic subset of
// sessions becomes unreachable) in virtual time; begin_drain() is the
// rolling-restart story — stop admitting, let in-flight work finish, evict
// sessions with a retryable "draining" verdict.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/telemetry/telemetry.h"
#include "common/thread_pool.h"
#include "sim/fault_injector.h"

namespace lgv::core {

using SessionId = uint32_t;  ///< 0 = no session

/// The two batched kernels of Figs. 5/6, plus everything else.
enum class KernelKind : uint8_t { kScanMatch = 0, kScoreTrajectory = 1, kGeneric = 2 };
const char* kernel_kind_name(KernelKind kind);

/// Session lease (s): admission grants it, traffic renews it, silence past
/// it evicts — the remote-execution lease protocol reused as the
/// admission/eviction primitive.
inline constexpr double kSessionLeaseS = 2.0;
/// New sessions are bounced while modeled occupancy exceeds this.
inline constexpr double kAdmitOccupancyMax = 0.97;
/// Fair-share weight of a session opened without one.
inline constexpr int kDefaultSessionWeight = 1;

struct WorkerPoolConfig {
  int cores = 4;           ///< virtual worker cores (modeled service capacity)
  int threads = 0;         ///< real pool threads; 0 = same as cores
  size_t max_sessions = 512;
  /// Per-session outstanding-request bound: submit answers "busy" once this
  /// many requests are queued or in flight for one session.
  size_t max_session_queue = 8;
  /// Predicted wait for cores above this → "busy" (retryable; the vehicle
  /// runs the kernel locally this tick instead of queueing behind the fleet).
  double busy_wait_s = 0.75;
  /// Host lane for the per-request trace spans ("cloud_server" /
  /// "edge_gateway") so the critical-path analyzer buckets pool time as
  /// remote compute.
  std::string host_label = "cloud_server";
};

/// Admission verdict. `busy` distinguishes "pool full right now, retry
/// later" from a hard reject (never issued today).
struct Admission {
  SessionId session = 0;  ///< 0 = not admitted
  bool busy = false;
};

/// Outcome of one kernel request, in virtual time.
struct WorkerVerdict {
  bool busy = false;        ///< bounced: run locally and retry after backoff
  double queue_wait = 0.0;  ///< arrival → cores granted (s)
  double service = 0.0;     ///< time on the cores (s)
  double completion = 0.0;  ///< virtual time the result is ready
  bool batched = false;     ///< coalesced with another vehicle's request
  /// Why the request bounced ("queue_depth", "pool_wait", "no_session",
  /// "pool_crash", "pool_partition", "draining", "evicted"); nullptr when
  /// served. Static strings — safe to hold.
  const char* busy_cause = nullptr;
};

class WorkerPool {
 public:
  /// Kernel body: process items [begin, end), return the cycles performed
  /// (the same contract as ExecutionContext::parallel_kernel_blocks).
  using BlockFn = std::function<double(size_t begin, size_t end)>;

  explicit WorkerPool(WorkerPoolConfig config = {},
                      telemetry::Telemetry* telemetry = nullptr);

  const WorkerPoolConfig& config() const { return config_; }
  /// The real thread pool (for ExecutionContext attachment).
  ThreadPool& threads() { return pool_; }

  // ---- session table -------------------------------------------------------
  /// Admit `vehicle` (a label for telemetry) with a fresh lease. `weight`
  /// <= 0 uses kDefaultSessionWeight; higher weights get a proportionally
  /// larger share of the cores under contention (priority).
  Admission open_session(const std::string& vehicle, double now, int weight = 0);
  /// Extend the lease. False when the session is unknown or already expired
  /// (the caller must re-admit).
  bool renew(SessionId id, double now);
  void close_session(SessionId id);
  /// Drop every session whose lease expired before `now`; returns how many.
  size_t evict_expired(double now);
  size_t active_sessions() const { return sessions_.size(); }
  bool has_session(SessionId id) const { return sessions_.count(id) != 0; }

  // ---- request plane -------------------------------------------------------
  /// Handle for a queued request. Its verdict is readable until the next
  /// submit after the flush that served it: that submit opens a new window,
  /// and ticket ids start again from 0.
  struct Ticket {
    uint64_t id = 0;
    bool busy = false;  ///< bounced at submit; verdict() repeats the refusal
    const char* cause = nullptr;  ///< refusal cause when busy
  };

  /// Queue a kernel request with a fixed modeled service time (the
  /// OffloadRuntime path: the cost model already priced the execution).
  /// `threads` is how many cores the request occupies while served.
  Ticket submit(SessionId session, KernelKind kind, double now, double service_s,
                int threads);

  /// Queue a kernel request whose service time comes from *measured* work:
  /// at flush the pool coalesces same-kind requests into one real dispatch,
  /// runs `block` over [0, count) on the real threads, and prices the
  /// request at cycles × seconds_per_cycle (per core; the caller bakes the
  /// platform speed and parallel efficiency for `threads` cores into it).
  Ticket submit_block(SessionId session, KernelKind kind, double now, size_t count,
                      BlockFn block, double seconds_per_cycle, int threads);

  /// Close the batching window at virtual time `now`: run the coalesced real
  /// dispatches, then the weighted fair-share virtual schedule that assigns
  /// every pending request its start/completion. Verdicts become readable.
  void flush(double now);

  /// Verdict for a ticket, readable until the next submit after the flush
  /// that served it.
  WorkerVerdict verdict(const Ticket& ticket) const;

  /// submit + flush + verdict: the synchronous single-request path
  /// (per-node offload executions). Batching needs concurrent submitters;
  /// lone requests pass straight through the same schedule.
  WorkerVerdict execute(SessionId session, KernelKind kind, double now,
                        double service_s, int threads);

  // ---- failure plane -------------------------------------------------------
  /// Attach the scripted pool-fault schedule (docs/faults.md): pool_crash
  /// kills the pool (sessions lost, submissions bounce until restart),
  /// pool_degrade removes virtual cores, pool_partition makes a subset of
  /// sessions unreachable. nullptr detaches. The injector is consulted on
  /// every submit and applied by step() — call step(now) once per tick
  /// (flush() calls it too, so submit/flush loops get it for free).
  void set_fault_injector(const sim::FaultInjector* injector) {
    fault_injector_ = injector;
  }
  /// Advance fault and drain state to `now`: crossing a pool_crash start
  /// evicts every session (their pending requests fail with an explicit
  /// "pool_crash" verdict — state died with the pool) and resets the cores
  /// to restart idle at the window's end; active pool_degrade windows park
  /// the lost cores until the window closes; a draining pool evicts sessions
  /// whose outstanding work has finished.
  void step(double now);
  /// A pool_crash overlaps [t0, t1): a result in flight across it is lost
  /// and the caller's lease-expiry path must re-execute locally.
  bool result_lost_in(double t0, double t1) const;
  /// The pool is down (crash window) at `t`.
  bool crashed(double t) const;

  // ---- graceful drain (rolling restart) ------------------------------------
  /// Stop admitting: new sessions and new requests bounce with a retryable
  /// "draining" verdict, in-flight requests keep their completions, and
  /// step() evicts each session once its outstanding work lands. Fires the
  /// flight recorder ("pool_drain") once.
  void begin_drain(double now);
  /// Reopen for admission (the restarted replica is back).
  void end_drain();
  bool draining() const { return draining_; }
  /// The drain is complete: no admitted sessions and every core idle by `now`.
  bool drained(double now) const;

  // ---- observability -------------------------------------------------------
  /// Fraction of virtual cores still busy at `now` (0..1).
  double occupancy(double now) const;

  /// High-water mark of any single session's outstanding requests — the
  /// bounded-queueing acceptance number.
  size_t max_session_depth() const { return max_session_depth_; }
  uint64_t busy_rejects() const { return busy_rejects_; }
  uint64_t admission_rejects() const { return admission_rejects_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t batches() const { return batches_; }
  uint64_t batched_requests() const { return batched_requests_; }
  uint64_t requests() const { return requests_; }
  /// Accepted requests explicitly failed because their session was evicted
  /// (lease lapse, crash, drain) before the flush served them.
  uint64_t evicted_requests() const { return evicted_requests_; }
  /// Sessions evicted by the drain path specifically.
  uint64_t drain_evictions() const { return drain_evictions_; }
  /// pool_crash windows this pool has crossed (sessions were wiped).
  uint64_t pool_crashes() const { return pool_crashes_; }

  /// Pool-level aggregate of the tenants' busy fallbacks: every time a
  /// runtime degrades an execution to local because of *this* pool (busy
  /// verdict, refused admission, backoff window, breaker open) it calls
  /// note_busy_fallback(), so Σ per-vehicle busy_fallback_count over the
  /// fleet equals Σ busy_fallbacks() over the pools it talked to — the
  /// accounting invariant FleetTest pins (pool_busy_fallback_total metric).
  void note_busy_fallback();
  uint64_t busy_fallbacks() const { return busy_fallbacks_; }

 private:
  struct Session {
    std::string label;
    uint64_t weight = 1;
    double vtime = 0.0;         ///< stride virtual time (core-seconds/weight)
    double lease_expiry = 0.0;
    std::deque<double> outstanding;  ///< completion times of scheduled work
    std::vector<uint64_t> pending;   ///< tickets waiting for flush
  };

  struct Request {
    SessionId session = 0;
    KernelKind kind = KernelKind::kGeneric;
    double arrival = 0.0;
    double service_s = 0.0;  ///< fixed, or priced at flush for block requests
    int threads = 1;
    size_t count = 0;
    BlockFn block;  ///< null for fixed-service requests
    double seconds_per_cycle = 0.0;
    bool batched = false;
  };

  Session* find_session(SessionId id, double now);
  size_t outstanding_depth(Session& s, double now);
  void note_depth(size_t depth);
  Ticket reject_busy(const char* cause);
  Ticket enqueue(SessionId session, Request req);
  void run_batches();
  void schedule(double now);
  double start_wait(double now, int threads) const;
  /// Explicitly fail a closing session's still-pending requests with `cause`
  /// and remove them from the flush list, so an evicted vehicle's block is
  /// never dispatched and never perturbs the survivors' batch accounting.
  void fail_pending(Session& s, const char* cause);
  void close_session_with(SessionId id, const char* cause);
  void apply_crash(double crash_end);

  WorkerPoolConfig config_;
  telemetry::Telemetry* telemetry_ = nullptr;
  ThreadPool pool_;

  std::map<SessionId, Session> sessions_;
  SessionId next_session_ = 1;

  std::vector<double> core_free_;   ///< virtual time each core frees up
  // The current window's requests and verdicts, indexed by ticket id.
  std::vector<Request> requests_store_;
  std::vector<WorkerVerdict> verdicts_;
  std::vector<uint64_t> pending_;   ///< tickets awaiting flush, arrival order
  /// A flush served the window; the next submit clears the stores.
  bool window_flushed_ = false;

  uint64_t requests_ = 0;
  uint64_t busy_rejects_ = 0;
  uint64_t admission_rejects_ = 0;
  uint64_t evictions_ = 0;
  uint64_t batches_ = 0;
  uint64_t batched_requests_ = 0;
  size_t max_session_depth_ = 0;
  uint64_t evicted_requests_ = 0;
  uint64_t drain_evictions_ = 0;
  uint64_t pool_crashes_ = 0;
  uint64_t busy_fallbacks_ = 0;

  const sim::FaultInjector* fault_injector_ = nullptr;
  /// Last step() time: crash starts in (prev, now] apply exactly once.
  /// Starts below zero so a crash scripted at t=0 still applies.
  double fault_step_time_ = -1.0;
  bool draining_ = false;

  // Telemetry handles (null when disabled).
  telemetry::Counter* requests_total_ = nullptr;
  telemetry::Counter* busy_total_ = nullptr;
  telemetry::Counter* evictions_total_ = nullptr;
  telemetry::Counter* admission_rejects_total_ = nullptr;
  telemetry::Gauge* sessions_gauge_ = nullptr;
  telemetry::Gauge* occupancy_gauge_ = nullptr;
  telemetry::Gauge* session_depth_gauge_ = nullptr;
  telemetry::Histogram* queue_wait_s_ = nullptr;
  telemetry::Histogram* batch_size_ = nullptr;
};

}  // namespace lgv::core
