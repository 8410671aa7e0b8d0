// Vehicle-side fault tolerance for the shared WorkerPool (PR 9): when the
// fleet's primary pool crashes, partitions, or drains, each vehicle must
// (a) stop hammering the dead pool, (b) desynchronize its retries from the
// other 127 bounced vehicles, and (c) re-admit against the standby pool —
// crash-consistently, with a committed state snapshot — instead of running
// local forever. PoolFailoverClient packages that policy: deterministic
// jittered exponential backoff drawn from the vehicle's splitmix64 stream,
// a per-pool circuit breaker, and a primary/standby selection protocol whose
// pool switches demand an explicit migration commit before remote execution
// resumes (the PR 4 "never a torn particle set" discipline, one level up).
//
// The client is pure policy over virtual time: it owns no threads and no
// clock, so OffloadRuntime drives it from finish_guarded and the fleet
// benches drive it directly from their tick loops — same behavior, bit-for-
// bit, in both places. It is the one owner of the vehicle's pool tenancy
// (both targets, their sessions, the active and committed pool) and of the
// in-flight failover snapshot; the caller only ships the snapshot bytes.
#pragma once

#include <cstdint>
#include <string>

#include "core/worker_pool.h"

namespace lgv::core {

/// Deterministic jittered exponential backoff for busy-verdict retries.
/// `stream` seeds the vehicle's splitmix64 jitter stream (derive it from
/// vehicle_seed(fleet_seed, index) so no two vehicles share a schedule);
/// `attempt` counts consecutive refusals (1 = first). The delay is
///   min(base · 2^(attempt-1), cap) · (0.75 + 0.5·u),  u = U[0,1)
/// with u drawn from splitmix64(stream + attempt) — a pure function of
/// (stream, attempt), so a replay reproduces the exact retry schedule while
/// 128 bounced vehicles spread across a ±25 % band instead of re-submitting
/// in lockstep (the retry-storm acceptance test).
double busy_backoff_delay(uint64_t stream, uint32_t attempt, double base_s,
                          double cap_s);

struct FailoverConfig {
  double backoff_base_s = 0.05;  ///< first-retry nominal delay
  double backoff_cap_s = 2.0;    ///< exponential growth saturates here
  /// Consecutive failures against one pool before its circuit breaker opens
  /// (admission refusals, busy verdicts, lost in-flight results all count).
  int breaker_threshold = 3;
  double breaker_open_s = 1.0;      ///< first open interval
  double breaker_open_max_s = 8.0;  ///< interval doubles per reopen, capped here
};

/// Per-vehicle failover policy over a primary pool and an optional standby.
/// All times are virtual seconds from the caller's clock.
class PoolFailoverClient {
 public:
  /// `standby` may be nullptr (no failover target — backoff and breaker
  /// still apply to the primary). `label` names the vehicle's sessions.
  PoolFailoverClient(WorkerPool* primary, WorkerPool* standby, uint64_t seed,
                     std::string label, FailoverConfig config = {});

  /// Outcome of acquire(): either a pool + live session to submit against,
  /// or the reason the vehicle must run locally this time.
  struct Acquire {
    WorkerPool* pool = nullptr;
    SessionId session = 0;
    int pool_index = -1;  ///< 0 = primary, 1 = standby
    /// The selected pool differs from the one holding the last committed
    /// state snapshot: the caller must commit a migrate_state transfer
    /// (then migration_committed()) before executing remotely — a torn or
    /// missing snapshot never runs.
    bool needs_migration = false;
    /// needs_migration and no snapshot is in flight to this pool: ship one
    /// now, report it with snapshot_shipped() (or migration_aborted() when
    /// the transfer tore), and run locally this time — the snapshot is still
    /// on the wire. With needs_migration and no ship_snapshot, the snapshot
    /// in flight has landed and the caller commits it.
    bool ship_snapshot = false;
    /// Refusal cause when pool == nullptr: "backoff" (jittered retry window
    /// still open), "breaker" (every configured pool's breaker is open),
    /// "admission" (the chosen pool refused the session) or "migrating" (the
    /// failover snapshot to the chosen pool has not landed yet).
    const char* blocked = nullptr;
    /// With a refusal: the pool it counts against — the one that refused
    /// admission or awaits the snapshot, else the active pool whose failures
    /// opened the backoff window or the breaker.
    WorkerPool* blamed = nullptr;
  };

  /// Pick the pool to use at `now`: primary preferred, open breakers
  /// skipped, the backoff window respected, and a live session ensured on
  /// the winner (re-admitting with a fresh session id after any eviction).
  /// An admission refusal counts against that pool's breaker and bumps the
  /// backoff, so a dead pool is probed at the jittered-exponential cadence
  /// — never once per tick. Serving the committed pool again drops a
  /// pending failover snapshot, so a later pool loss ships a fresh one.
  Acquire acquire(double now);

  /// The snapshot acquire() asked for is on the wire to the active pool and
  /// lands at `ready_at`; until then acquire() refuses that pool with
  /// "migrating".
  void snapshot_shipped(double ready_at);
  /// A failover snapshot has been shipped and neither committed nor dropped.
  bool snapshot_pending() const { return snapshot_target_ >= 0; }

  /// A busy verdict from the pool acquire() returned: counts toward its
  /// breaker and opens the next backoff window.
  void on_busy(double now);
  /// A remote result landed: reset the backoff streak and the active pool's
  /// breaker (half-open probe succeeded → breaker closes, interval resets).
  void on_served();
  /// An in-flight result was lost (pool crashed under it): like on_busy but
  /// named separately because the caller also pays the lease-expiry path.
  void on_pool_loss(double now);

  /// The failover snapshot committed on pool `pool_index`; remote execution
  /// there is crash-consistent from now on, and no snapshot is pending.
  void migration_committed(int pool_index);
  /// The failover snapshot aborted (torn transfer): the target pool takes a
  /// breaker failure, the backoff window opens, and the committed pool is
  /// unchanged — the vehicle keeps running local until a later attempt lands.
  void migration_aborted(double now);

  int active_index() const { return active_; }
  /// Pool holding the last committed state snapshot (0 initially: the
  /// primary is where Algorithm 2's own migration path ships state).
  int committed_index() const { return committed_; }
  /// Committed pool switches so far (primary→standby or back).
  uint64_t failovers() const { return failovers_; }
  uint64_t breaker_opens() const { return breaker_opens_; }
  bool breaker_open(int pool_index, double now) const;
  double retry_at() const { return retry_at_; }
  uint32_t busy_streak() const { return busy_streak_; }
  SessionId session(int pool_index) const;
  /// targets' pools: 0 = primary, 1 = standby (nullptr when none).
  WorkerPool* pool(int pool_index) const { return targets_[pool_index].pool; }
  const FailoverConfig& config() const { return config_; }

 private:
  struct Breaker {
    int failures = 0;
    double open_until = 0.0;
    double open_s = 0.0;  ///< next open interval (doubles per reopen)
    uint64_t opens = 0;
  };
  struct Target {
    WorkerPool* pool = nullptr;
    SessionId session = 0;
    Breaker breaker;
  };

  void record_failure(int idx, double now);
  void bump_backoff(double now);

  Target targets_[2];
  std::string label_;
  FailoverConfig config_;
  uint64_t stream_;  ///< splitmix64 jitter stream seed
  int active_ = 0;
  int committed_ = 0;
  uint32_t busy_streak_ = 0;
  double retry_at_ = 0.0;
  uint64_t failovers_ = 0;
  uint64_t breaker_opens_ = 0;
  /// In-flight failover snapshot: its target pool (-1 = none) and the
  /// virtual time it lands.
  int snapshot_target_ = -1;
  double snapshot_ready_at_ = 0.0;
};

}  // namespace lgv::core
