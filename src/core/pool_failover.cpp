#include "core/pool_failover.h"

#include <algorithm>

#include "common/rng.h"

namespace lgv::core {

double busy_backoff_delay(uint64_t stream, uint32_t attempt, double base_s,
                          double cap_s) {
  if (attempt == 0) return 0.0;
  // Saturating exponential: past ~16 doublings the cap dominates anyway.
  const uint32_t exp = std::min(attempt - 1, 16u);
  const double nominal = std::min(base_s * static_cast<double>(1u << exp), cap_s);
  const uint64_t h = splitmix64(stream + attempt);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // U[0,1)
  return nominal * (0.75 + 0.5 * u);
}

PoolFailoverClient::PoolFailoverClient(WorkerPool* primary, WorkerPool* standby,
                                       uint64_t seed, std::string label,
                                       FailoverConfig config)
    : label_(std::move(label)), config_(config), stream_(splitmix64(seed)) {
  targets_[0].pool = primary;
  targets_[1].pool = standby;
  targets_[0].breaker.open_s = config_.breaker_open_s;
  targets_[1].breaker.open_s = config_.breaker_open_s;
}

void PoolFailoverClient::record_failure(int idx, double now) {
  Breaker& b = targets_[idx].breaker;
  if (++b.failures >= config_.breaker_threshold) {
    // Open: the pool is not probed again until the interval elapses; each
    // reopen doubles the interval (capped) so a pool that stays dead costs
    // O(log) probes, not one per tick.
    b.open_until = now + b.open_s;
    b.open_s = std::min(b.open_s * 2.0, config_.breaker_open_max_s);
    b.failures = 0;
    ++b.opens;
    ++breaker_opens_;
  }
}

void PoolFailoverClient::bump_backoff(double now) {
  ++busy_streak_;
  retry_at_ = now + busy_backoff_delay(stream_, busy_streak_,
                                       config_.backoff_base_s,
                                       config_.backoff_cap_s);
}

PoolFailoverClient::Acquire PoolFailoverClient::acquire(double now) {
  Acquire a;
  if (now < retry_at_) {
    a.blocked = "backoff";
    a.blamed = targets_[active_].pool;
    return a;
  }
  bool any_pool = false;
  for (int idx = 0; idx < 2; ++idx) {
    Target& t = targets_[idx];
    if (t.pool == nullptr) continue;
    any_pool = true;
    if (t.breaker.open_until > now) continue;  // breaker open: skip this pool
    // Live session? Traffic renews it; an eviction means a fresh id below.
    bool admitted = t.session != 0 && t.pool->has_session(t.session) &&
                    t.pool->renew(t.session, now);
    if (!admitted) {
      const Admission adm = t.pool->open_session(label_, now);
      t.session = adm.session;
      admitted = !adm.busy && adm.session != 0;
      if (!admitted) {
        // One failure per acquire: the refusal counts against this pool's
        // breaker and opens the backoff window. Falling through to the
        // standby immediately would stampede it with the whole fleet's
        // first-refusal traffic; the breaker is what authorizes the switch.
        record_failure(idx, now);
        bump_backoff(now);
        a.blocked = "admission";
        a.pool_index = idx;
        a.blamed = t.pool;
        return a;
      }
    }
    active_ = idx;
    a.pool = t.pool;
    a.session = t.session;
    a.pool_index = idx;
    a.needs_migration = idx != committed_;
    if (!a.needs_migration) {
      // Serving the committed pool again (e.g. the primary recovered before
      // the standby snapshot landed): abandon the stale pending snapshot.
      snapshot_target_ = -1;
    } else if (snapshot_target_ != idx) {
      a.ship_snapshot = true;
    } else if (now < snapshot_ready_at_) {
      // Transfer still in flight: never remote against a partial set.
      a.pool = nullptr;
      a.blocked = "migrating";
      a.blamed = t.pool;
    }
    return a;
  }
  a.blocked = any_pool ? "breaker" : "admission";
  a.blamed = targets_[active_].pool;
  return a;
}

void PoolFailoverClient::snapshot_shipped(double ready_at) {
  snapshot_target_ = active_;
  snapshot_ready_at_ = ready_at;
}

void PoolFailoverClient::on_busy(double now) {
  record_failure(active_, now);
  bump_backoff(now);
}

void PoolFailoverClient::on_served() {
  busy_streak_ = 0;
  retry_at_ = 0.0;
  Breaker& b = targets_[active_].breaker;
  b.failures = 0;
  b.open_s = config_.breaker_open_s;  // half-open probe succeeded: full reset
}

void PoolFailoverClient::on_pool_loss(double now) {
  record_failure(active_, now);
  bump_backoff(now);
}

void PoolFailoverClient::migration_committed(int pool_index) {
  if (pool_index != committed_) ++failovers_;
  committed_ = pool_index;
  snapshot_target_ = -1;
}

void PoolFailoverClient::migration_aborted(double now) {
  record_failure(active_, now);
  bump_backoff(now);
}

bool PoolFailoverClient::breaker_open(int pool_index, double now) const {
  return targets_[pool_index].breaker.open_until > now;
}

SessionId PoolFailoverClient::session(int pool_index) const {
  return targets_[pool_index].session;
}

}  // namespace lgv::core
