#include "core/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

namespace lgv::core {
namespace {

WorkerPoolConfig small_pool(int cores = 2) {
  WorkerPoolConfig c;
  c.cores = cores;
  c.threads = 2;  // real threads; the virtual schedule is what we assert on
  return c;
}

TEST(WorkerPool, AdmitsRenewsAndEvictsSessions) {
  WorkerPool pool(small_pool());
  const Admission a = pool.open_session("lgv-0", 0.0);
  ASSERT_NE(a.session, 0u);
  EXPECT_FALSE(a.busy);
  EXPECT_EQ(pool.active_sessions(), 1u);

  // Traffic inside the lease renews it.
  EXPECT_TRUE(pool.renew(a.session, 1.0));
  // Silence past the lease evicts.
  EXPECT_EQ(pool.evict_expired(1.0 + kSessionLeaseS + 0.1), 1u);
  EXPECT_FALSE(pool.has_session(a.session));
  EXPECT_EQ(pool.evictions(), 1u);

  // A request against the evicted session is a retryable refusal, not UB.
  const WorkerVerdict v =
      pool.execute(a.session, KernelKind::kGeneric, 10.0, 0.01, 1);
  EXPECT_TRUE(v.busy);
}

TEST(WorkerPool, RenewAfterExpiryFailsAndEvicts) {
  WorkerPool pool(small_pool());
  const Admission a = pool.open_session("lgv-0", 0.0);
  EXPECT_FALSE(pool.renew(a.session, kSessionLeaseS + 1.0));
  EXPECT_FALSE(pool.has_session(a.session));
}

TEST(WorkerPool, AdmissionBouncesWhenSessionTableFull) {
  WorkerPoolConfig cfg = small_pool();
  cfg.max_sessions = 3;
  WorkerPool pool(cfg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(pool.open_session("lgv-" + std::to_string(i), 0.0).session, 0u);
  }
  const Admission bounced = pool.open_session("lgv-3", 0.0);
  EXPECT_EQ(bounced.session, 0u);
  EXPECT_TRUE(bounced.busy);
  EXPECT_EQ(pool.admission_rejects(), 1u);
}

TEST(WorkerPool, SingleRequestServedWithModeledTiming) {
  WorkerPool pool(small_pool());
  const Admission a = pool.open_session("lgv-0", 0.0);
  const WorkerVerdict v =
      pool.execute(a.session, KernelKind::kScanMatch, 1.0, 0.25, 1);
  EXPECT_FALSE(v.busy);
  EXPECT_DOUBLE_EQ(v.queue_wait, 0.0);  // empty pool: cores free immediately
  EXPECT_DOUBLE_EQ(v.service, 0.25);
  EXPECT_DOUBLE_EQ(v.completion, 1.25);
  EXPECT_FALSE(v.batched);
}

TEST(WorkerPool, QueueDepthBoundProducesBusyNotUnboundedQueue) {
  WorkerPoolConfig cfg = small_pool();
  cfg.max_session_queue = 3;
  cfg.busy_wait_s = 1e9;  // isolate the depth bound from the wait bound
  WorkerPool pool(cfg);
  const Admission a = pool.open_session("lgv-0", 0.0);

  int busy = 0;
  std::vector<WorkerPool::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    const auto t = pool.submit(a.session, KernelKind::kGeneric, 0.0, 1.0, 1);
    busy += t.busy ? 1 : 0;
    tickets.push_back(t);
  }
  // Exactly the overflow beyond the bound is bounced, before any flush.
  EXPECT_EQ(busy, 3);
  EXPECT_EQ(pool.busy_rejects(), 3u);

  pool.flush(0.0);
  EXPECT_LE(pool.max_session_depth(), cfg.max_session_queue);
  for (const auto& t : tickets) {
    const WorkerVerdict v = pool.verdict(t);
    EXPECT_EQ(v.busy, t.busy);
  }
}

TEST(WorkerPool, PredictedWaitAboveThresholdIsBusy) {
  WorkerPoolConfig cfg = small_pool(/*cores=*/1);
  cfg.busy_wait_s = 0.5;
  WorkerPool pool(cfg);
  const Admission a = pool.open_session("lgv-0", 0.0);
  // Occupy the single core for 2 s.
  EXPECT_FALSE(pool.execute(a.session, KernelKind::kGeneric, 0.0, 2.0, 1).busy);
  // A fresh request would wait ~2 s for the core — above the 0.5 s threshold.
  const WorkerVerdict v = pool.execute(a.session, KernelKind::kGeneric, 0.0, 0.1, 1);
  EXPECT_TRUE(v.busy);
  // Once the core frees, the same request is served.
  const WorkerVerdict later =
      pool.execute(a.session, KernelKind::kGeneric, 2.0, 0.1, 1);
  EXPECT_FALSE(later.busy);
}

TEST(WorkerPool, CoalescesSameKernelBlocksAcrossSessions) {
  WorkerPool pool(small_pool());
  const Admission a = pool.open_session("lgv-0", 0.0);
  const Admission b = pool.open_session("lgv-1", 0.0);

  std::atomic<size_t> items_a{0}, items_b{0};
  const double spc = 1e-9;
  const auto ta = pool.submit_block(
      a.session, KernelKind::kScanMatch, 0.0, 20,
      [&items_a](size_t begin, size_t end) {
        items_a.fetch_add(end - begin);
        return 1000.0 * static_cast<double>(end - begin);
      },
      spc, 1);
  const auto tb = pool.submit_block(
      b.session, KernelKind::kScanMatch, 0.0, 12,
      [&items_b](size_t begin, size_t end) {
        items_b.fetch_add(end - begin);
        return 1000.0 * static_cast<double>(end - begin);
      },
      spc, 1);
  pool.flush(0.0);

  // Every item of both requests really ran, exactly once (by count).
  EXPECT_EQ(items_a.load(), 20u);
  EXPECT_EQ(items_b.load(), 12u);
  // One combined dispatch; both requests marked batched.
  EXPECT_EQ(pool.batches(), 1u);
  EXPECT_EQ(pool.batched_requests(), 2u);
  const WorkerVerdict va = pool.verdict(ta);
  const WorkerVerdict vb = pool.verdict(tb);
  EXPECT_TRUE(va.batched);
  EXPECT_TRUE(vb.batched);
  // Service priced from the measured cycles of each request alone.
  EXPECT_NEAR(va.service, 20 * 1000.0 * spc, 1e-12);
  EXPECT_NEAR(vb.service, 12 * 1000.0 * spc, 1e-12);
}

TEST(WorkerPool, DifferentKernelsDoNotCoalesce) {
  WorkerPool pool(small_pool());
  const Admission a = pool.open_session("lgv-0", 0.0);
  const Admission b = pool.open_session("lgv-1", 0.0);
  const auto fn = [](size_t begin, size_t end) {
    return static_cast<double>(end - begin);
  };
  pool.submit_block(a.session, KernelKind::kScanMatch, 0.0, 8, fn, 1e-9, 1);
  pool.submit_block(b.session, KernelKind::kScoreTrajectory, 0.0, 8, fn, 1e-9, 1);
  pool.flush(0.0);
  EXPECT_EQ(pool.batched_requests(), 0u);
}

TEST(WorkerPool, FairShareFavorsHigherWeight) {
  // One core, two sessions, four 1 s requests each. The weight-2 session
  // must finish its work in roughly half the virtual passes of the weight-1
  // session — stride scheduling, not FIFO.
  WorkerPoolConfig cfg = small_pool(/*cores=*/1);
  cfg.busy_wait_s = 1e9;
  cfg.max_session_queue = 16;
  WorkerPool pool(cfg);
  const Admission a = pool.open_session("lgv-a", 0.0, /*weight=*/1);
  const Admission b = pool.open_session("lgv-b", 0.0, /*weight=*/2);

  std::vector<WorkerPool::Ticket> ta, tb;
  for (int i = 0; i < 4; ++i) {
    ta.push_back(pool.submit(a.session, KernelKind::kGeneric, 0.0, 1.0, 1));
    tb.push_back(pool.submit(b.session, KernelKind::kGeneric, 0.0, 1.0, 1));
  }
  pool.flush(0.0);

  double a_total = 0.0, b_total = 0.0;
  for (int i = 0; i < 4; ++i) {
    a_total += pool.verdict(ta[static_cast<size_t>(i)]).completion;
    b_total += pool.verdict(tb[static_cast<size_t>(i)]).completion;
  }
  // Weight 2 drains ~2× as fast → strictly earlier mean completion.
  EXPECT_LT(b_total, a_total);
  // All eight seconds of service end up scheduled back-to-back on the core.
  double last = 0.0;
  for (int i = 0; i < 4; ++i) {
    last = std::max(last, pool.verdict(ta[static_cast<size_t>(i)]).completion);
    last = std::max(last, pool.verdict(tb[static_cast<size_t>(i)]).completion);
  }
  EXPECT_DOUBLE_EQ(last, 8.0);
}

TEST(WorkerPool, ScheduleIsDeterministic) {
  // Two identical pools fed the same request sequence produce bit-identical
  // verdicts — the fleet bench's reproducibility contract.
  auto run = [] {
    WorkerPool pool(small_pool());
    const Admission a = pool.open_session("lgv-0", 0.0);
    const Admission b = pool.open_session("lgv-1", 0.0);
    std::vector<WorkerVerdict> out;
    for (int tick = 0; tick < 5; ++tick) {
      const double now = 0.1 * tick;
      std::vector<WorkerPool::Ticket> ts;
      ts.push_back(pool.submit(a.session, KernelKind::kScanMatch, now, 0.08, 2));
      ts.push_back(pool.submit(b.session, KernelKind::kScanMatch, now, 0.06, 1));
      ts.push_back(pool.submit(b.session, KernelKind::kScoreTrajectory, now, 0.04, 1));
      pool.flush(now);
      for (const auto& t : ts) out.push_back(pool.verdict(t));
    }
    return out;
  };
  const auto r1 = run();
  const auto r2 = run();
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].busy, r2[i].busy) << i;
    EXPECT_DOUBLE_EQ(r1[i].queue_wait, r2[i].queue_wait) << i;
    EXPECT_DOUBLE_EQ(r1[i].service, r2[i].service) << i;
    EXPECT_DOUBLE_EQ(r1[i].completion, r2[i].completion) << i;
  }
}

TEST(WorkerPool, MultiCoreRequestWaitsForEnoughCores) {
  WorkerPoolConfig cfg = small_pool(/*cores=*/2);
  cfg.busy_wait_s = 1e9;  // the point here is the wait, not the busy bound
  WorkerPool pool(cfg);
  const Admission a = pool.open_session("lgv-0", 0.0);
  // Occupy one core until t=1.
  EXPECT_FALSE(pool.execute(a.session, KernelKind::kGeneric, 0.0, 1.0, 1).busy);
  // A 2-core request can only start when BOTH cores are free → waits to t=1.
  const WorkerVerdict v = pool.execute(a.session, KernelKind::kGeneric, 0.0, 0.5, 2);
  ASSERT_FALSE(v.busy);
  EXPECT_DOUBLE_EQ(v.queue_wait, 1.0);
  EXPECT_DOUBLE_EQ(v.completion, 1.5);
}

TEST(WorkerPool, OccupancyTracksBusyCores) {
  WorkerPool pool(small_pool(/*cores=*/4));
  const Admission a = pool.open_session("lgv-0", 0.0);
  EXPECT_DOUBLE_EQ(pool.occupancy(0.0), 0.0);
  pool.execute(a.session, KernelKind::kGeneric, 0.0, 1.0, 2);
  EXPECT_DOUBLE_EQ(pool.occupancy(0.5), 0.5);  // 2 of 4 cores busy
  EXPECT_DOUBLE_EQ(pool.occupancy(1.5), 0.0);
}

// ---- failure plane: scripted pool faults (PR 9) -----------------------------

TEST(WorkerPool, PoolCrashEvictsSessionsAndBouncesUntilRestart) {
  WorkerPool pool(small_pool());
  sim::FaultSchedule s;
  s.add(sim::FaultKind::kPoolCrash, 5.0, 3.0);  // down on [5, 8)
  const sim::FaultInjector inj(std::move(s));
  pool.set_fault_injector(&inj);

  const Admission a = pool.open_session("lgv-0", 0.0);
  ASSERT_NE(a.session, 0u);
  EXPECT_FALSE(pool.execute(a.session, KernelKind::kGeneric, 1.0, 0.1, 1).busy);

  // Inside the window: the crash wiped the session table and submissions
  // bounce with the explicit cause.
  const WorkerVerdict v =
      pool.execute(a.session, KernelKind::kGeneric, 6.0, 0.1, 1);
  EXPECT_TRUE(v.busy);
  EXPECT_STREQ(v.busy_cause, "pool_crash");
  EXPECT_FALSE(pool.has_session(a.session));
  EXPECT_EQ(pool.pool_crashes(), 1u);
  EXPECT_TRUE(pool.crashed(6.0));
  EXPECT_TRUE(pool.open_session("lgv-1", 6.5).busy);  // no admission while down

  // A result in flight across the window is lost; one before it is not.
  EXPECT_TRUE(pool.result_lost_in(4.0, 9.0));
  EXPECT_FALSE(pool.result_lost_in(0.0, 5.0));

  // After the window the pool restarts empty and serves again from idle
  // cores — the pre-crash backlog did not survive the restart.
  const Admission b = pool.open_session("lgv-0", 8.5);
  ASSERT_NE(b.session, 0u);
  const WorkerVerdict after =
      pool.execute(b.session, KernelKind::kGeneric, 8.5, 0.25, 1);
  ASSERT_FALSE(after.busy);
  EXPECT_DOUBLE_EQ(after.queue_wait, 0.0);
  EXPECT_DOUBLE_EQ(after.completion, 8.75);
}

TEST(WorkerPool, DegradeParksCoresForTheWindow) {
  WorkerPool pool(small_pool(/*cores=*/4));
  sim::FaultSchedule s;
  s.add(sim::FaultKind::kPoolDegrade, 0.0, 10.0, 2.0);  // 2 of 4 cores gone
  const sim::FaultInjector inj(std::move(s));
  pool.set_fault_injector(&inj);

  const Admission a = pool.open_session("lgv-0", 1.0);
  ASSERT_NE(a.session, 0u);
  // Half the cores are parked until t=10.
  EXPECT_DOUBLE_EQ(pool.occupancy(1.0), 0.5);
  // A 1-core request still runs immediately on a surviving core.
  const WorkerVerdict ok =
      pool.execute(a.session, KernelKind::kGeneric, 1.0, 0.5, 1);
  ASSERT_FALSE(ok.busy);
  EXPECT_DOUBLE_EQ(ok.queue_wait, 0.0);
  // A 3-core request would have to wait for a parked core (~9 s) — that is a
  // busy verdict, not unbounded queueing.
  const WorkerVerdict wide =
      pool.execute(a.session, KernelKind::kGeneric, 1.0, 0.5, 3);
  EXPECT_TRUE(wide.busy);
  EXPECT_STREQ(wide.busy_cause, "pool_wait");
  // Past the window the cores are back.
  const WorkerVerdict later =
      pool.execute(a.session, KernelKind::kGeneric, 10.5, 0.5, 3);
  EXPECT_FALSE(later.busy);
}

TEST(WorkerPool, PartitionBouncesDeterministicSubsetWithoutRenewingLeases) {
  sim::FaultSchedule s;
  s.add(sim::FaultKind::kPoolPartition, 10.0, 5.0, 0.5);
  const sim::FaultInjector inj(std::move(s));

  auto run = [&inj](std::vector<uint32_t>* bounced) {
    WorkerPoolConfig cfg = small_pool(/*cores=*/8);
    cfg.max_sessions = 64;
    WorkerPool pool(cfg);
    pool.set_fault_injector(&inj);
    std::vector<SessionId> ids;
    // Admitted just before the window so every lease is live at t=11.
    for (int i = 0; i < 32; ++i)
      ids.push_back(pool.open_session("lgv-" + std::to_string(i), 9.5).session);
    for (SessionId id : ids) {
      const WorkerVerdict v =
          pool.execute(id, KernelKind::kGeneric, 11.0, 0.001, 1);
      if (v.busy) {
        EXPECT_STREQ(v.busy_cause, "pool_partition");
        bounced->push_back(id);
      }
    }
    // Partitioned traffic must NOT renew the lease (the vehicle is
    // unreachable from the pool's point of view) — silence evicts it on
    // schedule while the served sessions, renewed at t=11, survive.
    const double expiry = 9.5 + kSessionLeaseS + 0.1;
    for (uint32_t id : *bounced) {
      pool.evict_expired(expiry);
      EXPECT_FALSE(pool.has_session(id));
    }
  };

  std::vector<uint32_t> first, second;
  run(&first);
  run(&second);
  // A real partition: some sessions cut, some fine, and the subset is the
  // same deterministic one on every run.
  EXPECT_GT(first.size(), 0u);
  EXPECT_LT(first.size(), 32u);
  EXPECT_EQ(first, second);
}

TEST(WorkerPool, DrainLetsInflightFinishThenEvicts) {
  WorkerPool pool(small_pool());
  const Admission a = pool.open_session("lgv-0", 0.0);
  const Admission b = pool.open_session("lgv-1", 0.0);
  ASSERT_NE(a.session, 0u);
  ASSERT_NE(b.session, 0u);

  // In-flight work admitted before the drain keeps its completion.
  const WorkerVerdict va =
      pool.execute(a.session, KernelKind::kGeneric, 0.0, 1.0, 1);
  ASSERT_FALSE(va.busy);

  pool.begin_drain(0.1);
  EXPECT_TRUE(pool.draining());
  EXPECT_FALSE(pool.drained(0.1));  // a's work is still on the cores

  // New admissions and new requests bounce with the retryable cause.
  EXPECT_TRUE(pool.open_session("lgv-2", 0.2).busy);
  const WorkerVerdict vb =
      pool.execute(b.session, KernelKind::kGeneric, 0.2, 0.1, 1);
  EXPECT_TRUE(vb.busy);
  EXPECT_STREQ(vb.busy_cause, "draining");

  // Once the outstanding work lands, step() evicts the sessions and the
  // drain is complete.
  pool.step(1.5);
  EXPECT_EQ(pool.active_sessions(), 0u);
  EXPECT_TRUE(pool.drained(1.5));
  EXPECT_GE(pool.drain_evictions(), 2u);

  // end_drain() reopens admission (the restarted replica).
  pool.end_drain();
  EXPECT_FALSE(pool.draining());
  EXPECT_NE(pool.open_session("lgv-0", 2.0).session, 0u);
}

// Regression (PR 9 satellite): evicting a session mid-flush-window must
// explicitly fail its pending coalesced requests — not silently drop them —
// and must not dispatch the evicted vehicle's block or corrupt the
// survivors' batch accounting.
TEST(WorkerPool, EvictionMidFlushWindowFailsPendingExplicitly) {
  WorkerPool pool(small_pool(/*cores=*/4));
  const Admission a = pool.open_session("lgv-0", 0.0);
  const Admission b = pool.open_session("lgv-1", 0.0);

  std::atomic<int> a_items{0};
  std::atomic<int> b_items{0};
  const double spc = 1e-9;
  const WorkerPool::Ticket ta = pool.submit_block(
      a.session, KernelKind::kScanMatch, 0.0, 16,
      [&a_items](size_t begin, size_t end) {
        a_items += static_cast<int>(end - begin);
        return static_cast<double>(end - begin);
      },
      spc, 1);
  const WorkerPool::Ticket tb = pool.submit_block(
      b.session, KernelKind::kScanMatch, 0.0, 16,
      [&b_items](size_t begin, size_t end) {
        b_items += static_cast<int>(end - begin);
        return static_cast<double>(end - begin);
      },
      spc, 1);
  ASSERT_FALSE(ta.busy);
  ASSERT_FALSE(tb.busy);

  // The eviction lands between submit and flush — the coalescing window.
  pool.close_session(a.session);
  pool.flush(0.0);

  // The evicted request has an explicit retryable failure, not a dangling
  // ticket.
  const WorkerVerdict va = pool.verdict(ta);
  EXPECT_TRUE(va.busy);
  EXPECT_STREQ(va.busy_cause, "evicted");
  EXPECT_EQ(pool.evicted_requests(), 1u);
  EXPECT_EQ(a_items.load(), 0);  // the evicted block never ran

  // The survivor was served over ALL of its items and — with the evicted
  // peer removed before dispatch — was not marked as coalesced with it.
  const WorkerVerdict vb = pool.verdict(tb);
  ASSERT_FALSE(vb.busy);
  EXPECT_FALSE(vb.batched);
  EXPECT_EQ(b_items.load(), 16);
  EXPECT_EQ(pool.batched_requests(), 0u);
}

// A flushed window's requests and verdicts are released by the next submit:
// ticket ids start again from 0, so the stores stay one window long instead
// of growing with every request the pool ever served.
TEST(WorkerPool, TicketIdsRestartInEachWindow) {
  WorkerPool pool(small_pool());
  const Admission a = pool.open_session("lgv-0", 0.0);
  for (int window = 0; window < 3; ++window) {
    const double now = 0.5 * window;
    const WorkerPool::Ticket t0 = pool.submit(a.session, KernelKind::kGeneric, now, 0.1, 1);
    const WorkerPool::Ticket t1 = pool.submit(a.session, KernelKind::kGeneric, now, 0.1, 1);
    ASSERT_FALSE(t0.busy);
    ASSERT_FALSE(t1.busy);
    EXPECT_EQ(t0.id, 0u) << "window " << window;
    EXPECT_EQ(t1.id, 1u) << "window " << window;
    pool.flush(now);
    EXPECT_FALSE(pool.verdict(t0).busy);
    EXPECT_DOUBLE_EQ(pool.verdict(t1).completion, now + 0.1);
  }
}

// An eviction can empty the flush list mid-window; a later submit in the same
// window must not recycle the evicted ticket's slot.
TEST(WorkerPool, EvictedVerdictSurvivesLaterSubmitInSameWindow) {
  WorkerPool pool(small_pool());
  const Admission a = pool.open_session("lgv-0", 0.0);
  const Admission b = pool.open_session("lgv-1", 0.0);
  const WorkerPool::Ticket ta = pool.submit(a.session, KernelKind::kGeneric, 0.0, 0.1, 1);
  ASSERT_FALSE(ta.busy);
  pool.close_session(a.session);
  const WorkerPool::Ticket tb = pool.submit(b.session, KernelKind::kGeneric, 0.0, 0.2, 1);
  ASSERT_FALSE(tb.busy);
  EXPECT_NE(tb.id, ta.id);
  pool.flush(0.0);

  const WorkerVerdict va = pool.verdict(ta);
  EXPECT_TRUE(va.busy);
  EXPECT_STREQ(va.busy_cause, "evicted");
  const WorkerVerdict vb = pool.verdict(tb);
  EXPECT_FALSE(vb.busy);
  EXPECT_DOUBLE_EQ(vb.service, 0.2);
}

TEST(WorkerPool, FailurePlaneTelemetryCoverage) {
  telemetry::Telemetry t;
  WorkerPool pool(small_pool(), &t);
  sim::FaultSchedule s;
  s.add(sim::FaultKind::kPoolCrash, 5.0, 1.0);
  const sim::FaultInjector inj(std::move(s));
  pool.set_fault_injector(&inj);

  pool.open_session("lgv-0", 0.0);
  pool.step(6.0);  // crosses the crash start
  EXPECT_DOUBLE_EQ(t.metrics().counter("pool_crashes_total").value(), 1.0);

  pool.begin_drain(7.0);
  EXPECT_DOUBLE_EQ(t.metrics().counter("pool_drains_total").value(), 1.0);
  // The drain fires the flight recorder exactly once (repeats are no-ops).
  EXPECT_DOUBLE_EQ(
      t.metrics()
          .counter("flight_recorder_dumps_total", {{"trigger", "pool_drain"}})
          .value(),
      1.0);
  pool.end_drain();
  pool.begin_drain(8.0);
  EXPECT_DOUBLE_EQ(
      t.metrics()
          .counter("flight_recorder_dumps_total", {{"trigger", "pool_drain"}})
          .value(),
      1.0);

  pool.note_busy_fallback();
  EXPECT_DOUBLE_EQ(t.metrics().counter("pool_busy_fallback_total").value(), 1.0);
}

TEST(WorkerPool, NoteBusyFallbackAggregatesTenantAccounting) {
  WorkerPool pool(small_pool());
  EXPECT_EQ(pool.busy_fallbacks(), 0u);
  pool.note_busy_fallback();
  pool.note_busy_fallback();
  EXPECT_EQ(pool.busy_fallbacks(), 2u);
}

}  // namespace
}  // namespace lgv::core
