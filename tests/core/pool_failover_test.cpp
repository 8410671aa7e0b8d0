#include "core/pool_failover.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/fault_injector.h"

namespace lgv::core {
namespace {

// ---- busy_backoff_delay: deterministic jittered exponential ----------------

TEST(BusyBackoff, PureFunctionOfStreamAndAttempt) {
  const uint64_t stream = splitmix64(42);
  for (uint32_t attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_DOUBLE_EQ(busy_backoff_delay(stream, attempt, 0.05, 2.0),
                     busy_backoff_delay(stream, attempt, 0.05, 2.0));
  }
  EXPECT_DOUBLE_EQ(busy_backoff_delay(stream, 0, 0.05, 2.0), 0.0);
}

TEST(BusyBackoff, JitterStaysInQuarterBandAroundNominal) {
  const double base = 0.05, cap = 2.0;
  for (uint64_t v = 0; v < 64; ++v) {
    const uint64_t stream = vehicle_seed(7, static_cast<uint32_t>(v));
    for (uint32_t attempt = 1; attempt <= 12; ++attempt) {
      const double nominal =
          std::min(base * static_cast<double>(1u << std::min(attempt - 1, 16u)), cap);
      const double d = busy_backoff_delay(stream, attempt, base, cap);
      EXPECT_GE(d, 0.75 * nominal);
      EXPECT_LT(d, 1.25 * nominal);
    }
  }
}

TEST(BusyBackoff, ExponentialGrowthSaturatesAtCap) {
  const uint64_t stream = splitmix64(1);
  double prev = 0.0;
  for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
    const double d = busy_backoff_delay(stream, attempt, 0.05, 2.0);
    // Doubling nominal beats the ±25 % jitter band: strictly increasing.
    EXPECT_GT(d, prev);
    prev = d;
  }
  // Far past the cap the delay is pinned to cap·(0.75..1.25).
  const double capped = busy_backoff_delay(stream, 40, 0.05, 2.0);
  EXPECT_GE(capped, 0.75 * 2.0);
  EXPECT_LT(capped, 1.25 * 2.0);
}

TEST(BusyBackoff, RetryStormOf128VehiclesDesynchronizes) {
  // 128 vehicles bounced by the same pool crash at the same tick must not
  // share a retry schedule — per attempt, every vehicle's delay is distinct.
  for (uint32_t attempt = 1; attempt <= 4; ++attempt) {
    std::set<double> delays;
    for (uint32_t v = 0; v < 128; ++v) {
      delays.insert(
          busy_backoff_delay(vehicle_seed(99, v), attempt, 0.05, 2.0));
    }
    EXPECT_EQ(delays.size(), 128u) << "attempt " << attempt;
  }
}

// ---- PoolFailoverClient: breaker + selection protocol -----------------------

WorkerPoolConfig tiny_pool() {
  WorkerPoolConfig c;
  c.cores = 2;
  c.threads = 2;
  return c;
}

TEST(PoolFailoverClient, ServesFromPrimaryWhenHealthy) {
  WorkerPool primary(tiny_pool());
  PoolFailoverClient client(&primary, nullptr, 42, "lgv-0");
  const auto acq = client.acquire(0.0);
  ASSERT_EQ(acq.pool, &primary);
  EXPECT_EQ(acq.pool_index, 0);
  EXPECT_NE(acq.session, 0u);
  EXPECT_FALSE(acq.needs_migration);  // primary holds the committed state
  // The same session is reused while its lease is live.
  client.on_served();
  const auto again = client.acquire(0.5);
  EXPECT_EQ(again.session, acq.session);
}

TEST(PoolFailoverClient, BusyVerdictsOpenBackoffThenBreaker) {
  WorkerPool primary(tiny_pool());
  FailoverConfig cfg;
  cfg.breaker_threshold = 3;
  PoolFailoverClient client(&primary, nullptr, 42, "lgv-0", cfg);
  double now = 0.0;
  ASSERT_NE(client.acquire(now).pool, nullptr);

  // First busy: backoff window opens; an acquire inside it is refused
  // without touching the pool.
  client.on_busy(now);
  EXPECT_EQ(client.busy_streak(), 1u);
  EXPECT_GT(client.retry_at(), now);
  const auto blocked = client.acquire(now + 1e-6);
  EXPECT_EQ(blocked.pool, nullptr);
  EXPECT_STREQ(blocked.blocked, "backoff");

  // Two more busies cross the breaker threshold.
  now = client.retry_at();
  ASSERT_NE(client.acquire(now).pool, nullptr);
  client.on_busy(now);
  now = client.retry_at();
  ASSERT_NE(client.acquire(now).pool, nullptr);
  client.on_busy(now);
  EXPECT_EQ(client.breaker_opens(), 1u);
  EXPECT_TRUE(client.breaker_open(0, now));

  // With no standby and the primary's breaker open, acquire names the
  // breaker as the blocker.
  now = client.retry_at();
  const auto tripped = client.acquire(now);
  EXPECT_EQ(tripped.pool, nullptr);
  EXPECT_STREQ(tripped.blocked, "breaker");

  // A served result fully closes the breaker and resets the backoff.
  now += cfg.breaker_open_s + 1.0;
  ASSERT_NE(client.acquire(now).pool, nullptr);
  client.on_served();
  EXPECT_EQ(client.busy_streak(), 0u);
  EXPECT_DOUBLE_EQ(client.retry_at(), 0.0);
  EXPECT_FALSE(client.breaker_open(0, now));
}

TEST(PoolFailoverClient, BreakerOpenIntervalDoublesPerReopen) {
  WorkerPool primary(tiny_pool());
  FailoverConfig cfg;
  cfg.breaker_threshold = 1;  // every failure opens it
  cfg.breaker_open_s = 1.0;
  cfg.breaker_open_max_s = 4.0;
  PoolFailoverClient client(&primary, nullptr, 42, "lgv-0", cfg);

  double now = 0.0;
  ASSERT_NE(client.acquire(now).pool, nullptr);
  client.on_busy(now);  // open #1: 1 s
  EXPECT_TRUE(client.breaker_open(0, now + 0.9));
  EXPECT_FALSE(client.breaker_open(0, now + 1.1));

  now = std::max(client.retry_at(), now + 1.1);
  ASSERT_NE(client.acquire(now).pool, nullptr);
  client.on_busy(now);  // open #2: 2 s
  EXPECT_TRUE(client.breaker_open(0, now + 1.9));
  EXPECT_FALSE(client.breaker_open(0, now + 2.1));
  EXPECT_EQ(client.breaker_opens(), 2u);
}

TEST(PoolFailoverClient, FailsOverToStandbyAfterPrimaryBreakerOpens) {
  // Primary is crashed for the whole test; standby is healthy.
  WorkerPool primary(tiny_pool());
  sim::FaultSchedule s;
  s.add(sim::FaultKind::kPoolCrash, 0.0, 1000.0);
  const sim::FaultInjector inj(std::move(s));
  primary.set_fault_injector(&inj);
  WorkerPool standby(tiny_pool());

  FailoverConfig cfg;
  cfg.breaker_threshold = 3;
  PoolFailoverClient client(&primary, &standby, 42, "lgv-0", cfg);

  // Each acquire pays ONE admission refusal against the primary (no
  // fallthrough — the breaker authorizes the switch), until it opens.
  double now = 0.0;
  int refusals = 0;
  PoolFailoverClient::Acquire acq;
  for (int i = 0; i < 16 && refusals < 3; ++i) {
    acq = client.acquire(now);
    if (acq.pool == nullptr) {
      EXPECT_STREQ(acq.blocked, "admission");
      EXPECT_EQ(acq.pool_index, 0);
      ++refusals;
    }
    now = std::max(client.retry_at(), now) + 1e-3;
  }
  EXPECT_EQ(refusals, 3);
  EXPECT_TRUE(client.breaker_open(0, now));

  // The next acquire lands on the standby and demands a migration commit
  // before remote execution.
  acq = client.acquire(now);
  ASSERT_EQ(acq.pool, &standby);
  EXPECT_EQ(acq.pool_index, 1);
  EXPECT_TRUE(acq.needs_migration);
  EXPECT_EQ(client.committed_index(), 0);
  EXPECT_EQ(client.failovers(), 0u);

  // Commit flips the committed pool; subsequent acquires are clean.
  client.migration_committed(1);
  EXPECT_EQ(client.committed_index(), 1);
  EXPECT_EQ(client.failovers(), 1u);
  client.on_served();
  const auto settled = client.acquire(now + 0.1);
  ASSERT_EQ(settled.pool, &standby);
  EXPECT_FALSE(settled.needs_migration);
}

TEST(PoolFailoverClient, AbortedMigrationNeverAdvancesCommittedPool) {
  WorkerPool primary(tiny_pool());
  sim::FaultSchedule s;
  s.add(sim::FaultKind::kPoolCrash, 0.0, 1000.0);
  const sim::FaultInjector inj(std::move(s));
  primary.set_fault_injector(&inj);
  WorkerPool standby(tiny_pool());
  FailoverConfig cfg;
  cfg.breaker_threshold = 1;
  PoolFailoverClient client(&primary, &standby, 42, "lgv-0", cfg);

  double now = 0.0;
  auto acq = client.acquire(now);  // primary refused, breaker opens
  ASSERT_EQ(acq.pool, nullptr);
  now = client.retry_at() + 1e-3;
  acq = client.acquire(now);
  ASSERT_EQ(acq.pool, &standby);
  ASSERT_TRUE(acq.needs_migration);

  // The snapshot transfer tears: committed pool unchanged, backoff bumped —
  // the vehicle keeps running local and retries later.
  const double before_retry = client.retry_at();
  client.migration_aborted(now);
  EXPECT_EQ(client.committed_index(), 0);
  EXPECT_EQ(client.failovers(), 0u);
  EXPECT_GT(client.retry_at(), before_retry);
}

TEST(PoolFailoverClient, OwnsTheInFlightFailoverSnapshot) {
  // Busy verdicts open a breaker (threshold 1) on whichever pool is active,
  // so the test steers the selection without a fault schedule.
  WorkerPool primary(tiny_pool());
  WorkerPool standby(tiny_pool());
  FailoverConfig cfg;
  cfg.breaker_threshold = 1;
  PoolFailoverClient client(&primary, &standby, 42, "lgv-0", cfg);
  ASSERT_EQ(client.acquire(0.0).pool, &primary);
  client.on_busy(0.0);  // primary's breaker open until 1.0

  // A started snapshot is refused until it lands, then commits.
  auto acq = client.acquire(0.1);
  ASSERT_EQ(acq.pool, &standby);
  ASSERT_TRUE(acq.ship_snapshot);
  client.snapshot_shipped(0.35);
  EXPECT_TRUE(client.snapshot_pending());
  acq = client.acquire(0.2);
  EXPECT_EQ(acq.pool, nullptr);
  EXPECT_STREQ(acq.blocked, "migrating");
  EXPECT_EQ(acq.blamed, &standby);
  EXPECT_EQ(client.committed_index(), 0);
  acq = client.acquire(0.35);
  ASSERT_EQ(acq.pool, &standby);
  EXPECT_TRUE(acq.needs_migration);
  EXPECT_FALSE(acq.ship_snapshot);
  client.migration_committed(1);
  client.on_served();
  EXPECT_FALSE(client.snapshot_pending());
  EXPECT_EQ(client.committed_index(), 1);
  EXPECT_EQ(client.failovers(), 1u);

  // Serving the committed pool drops a pending snapshot: the failback
  // snapshot shipped at 1.1 would have landed by 3.2, but the standby served
  // in between, so the next switch ships afresh instead of committing on the
  // stale landing time.
  acq = client.acquire(1.1);
  ASSERT_EQ(acq.pool, &primary);
  ASSERT_TRUE(acq.ship_snapshot);
  client.snapshot_shipped(1.35);
  client.on_busy(1.1);  // primary's breaker open until 3.1
  acq = client.acquire(1.2);
  ASSERT_EQ(acq.pool, &standby);
  EXPECT_FALSE(acq.needs_migration);
  EXPECT_FALSE(client.snapshot_pending());
  acq = client.acquire(3.2);
  ASSERT_EQ(acq.pool, &primary);
  EXPECT_TRUE(acq.ship_snapshot);

  // An abort leaves the committed pool unchanged.
  client.migration_aborted(3.2);
  EXPECT_FALSE(client.snapshot_pending());
  EXPECT_EQ(client.committed_index(), 1);
  EXPECT_EQ(client.failovers(), 1u);
  EXPECT_TRUE(client.breaker_open(0, 3.2));
}

TEST(PoolFailoverClient, DeterministicAcrossIdenticalRuns) {
  // Same seeds, same fault schedule, same call sequence → identical retry
  // schedule and identical pool selection (the fleet replay contract).
  auto run = [] {
    WorkerPool primary(tiny_pool());
    sim::FaultSchedule s;
    s.add(sim::FaultKind::kPoolCrash, 0.0, 50.0);
    const sim::FaultInjector inj(std::move(s));
    primary.set_fault_injector(&inj);
    WorkerPool standby(tiny_pool());
    PoolFailoverClient client(&primary, &standby, vehicle_seed(3, 7), "lgv-7");
    std::vector<double> retries;
    std::vector<int> picks;
    double now = 0.0;
    for (int i = 0; i < 12; ++i) {
      const auto acq = client.acquire(now);
      picks.push_back(acq.pool == nullptr ? -1 : acq.pool_index);
      if (acq.pool != nullptr && acq.needs_migration) client.migration_committed(acq.pool_index);
      if (acq.pool != nullptr) client.on_served();
      retries.push_back(client.retry_at());
      now = std::max(now, client.retry_at()) + 0.25;
    }
    return std::make_pair(retries, picks);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace lgv::core
