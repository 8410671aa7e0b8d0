#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "platform/calibration.h"
#include "platform/cost_model.h"
#include "platform/execution_context.h"
#include "platform/platform_spec.h"
#include "platform/work_meter.h"
#include "platform/work_profile.h"

namespace lgv::platform {
namespace {

TEST(PlatformSpec, TableIIIValues) {
  const PlatformSpec tb = turtlebot3_spec();
  EXPECT_DOUBLE_EQ(tb.freq_ghz, 1.4);
  EXPECT_EQ(tb.cores, 4);
  const PlatformSpec gw = edge_gateway_spec();
  EXPECT_DOUBLE_EQ(gw.freq_ghz, 4.2);
  EXPECT_EQ(gw.cores, 4);
  EXPECT_EQ(gw.hw_threads, 8);
  const PlatformSpec cs = cloud_server_spec();
  EXPECT_DOUBLE_EQ(cs.freq_ghz, 3.1);
  EXPECT_EQ(cs.cores, 24);
}

TEST(PlatformSpec, SingleThreadOrdering) {
  // Gateway has the fastest single thread (high freq × wide core); the RPi
  // the slowest — the premise of Figs. 9/10's who-wins-where split.
  EXPECT_GT(edge_gateway_spec().single_thread_ops_per_sec(),
            cloud_server_spec().single_thread_ops_per_sec());
  EXPECT_GT(cloud_server_spec().single_thread_ops_per_sec(),
            turtlebot3_spec().single_thread_ops_per_sec());
}

TEST(PlatformSpec, ParallelThroughputShape) {
  const PlatformSpec gw = edge_gateway_spec();
  EXPECT_DOUBLE_EQ(gw.parallel_throughput(1), 1.0);
  EXPECT_DOUBLE_EQ(gw.parallel_throughput(4), 4.0);
  // SMT adds less than a full core.
  EXPECT_GT(gw.parallel_throughput(8), 4.0);
  EXPECT_LT(gw.parallel_throughput(8), 8.0);
  // Oversubscription past hw_threads adds nothing.
  EXPECT_DOUBLE_EQ(gw.parallel_throughput(16), gw.parallel_throughput(8));
  // The manycore server keeps scaling to 24 real cores.
  EXPECT_DOUBLE_EQ(cloud_server_spec().parallel_throughput(24), 24.0);
}

TEST(CostModel, SerialTimeScalesWithWork) {
  const CostModel m(turtlebot3_spec());
  WorkProfile p;
  p.add_serial(0.84e9);  // exactly 1 s at 1.4 GHz × 0.6 IPC
  EXPECT_NEAR(m.execution_time(p), 1.0, 1e-9);
  p.add_serial(0.84e9);
  EXPECT_NEAR(m.execution_time(p), 2.0, 1e-9);
}

TEST(CostModel, ParallelRegionChargedByLongestChunk) {
  const PlatformSpec spec = cloud_server_spec();
  const CostModel m(spec);
  WorkProfile p;
  ParallelRegion r;
  r.chunk_cycles = {1e9, 1e9, 4e9, 1e9};  // imbalanced
  p.add_region(r);
  const double t = m.execution_time(p);
  const double effective =
      spec.parallel_throughput(4) / (1.0 + spec.sync_tax_per_thread * 3.0);
  const double share = effective / 4.0;
  EXPECT_NEAR(t, 4e9 / (spec.single_thread_ops_per_sec() * share) +
                     4 * spec.dispatch_overhead_s,
              1e-9);
  // Doubling only a short chunk changes nothing; growing the longest does.
  ParallelRegion r2 = r;
  r2.chunk_cycles[0] = 2e9;
  WorkProfile p2;
  p2.add_region(r2);
  EXPECT_NEAR(m.execution_time(p2), t, 1e-12);
}

TEST(CostModel, ParallelFasterThanSerialUpToCores) {
  const CostModel m(cloud_server_spec());
  const double total = 24e9;
  double prev = 1e18;
  for (int threads : {1, 2, 4, 8, 12, 24}) {
    WorkProfile p;
    ParallelRegion r;
    r.chunk_cycles.assign(static_cast<size_t>(threads), total / threads);
    p.add_region(r);
    const double t = m.execution_time(p);
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(CostModel, TinyWorkDoesNotBenefitFromManyThreads) {
  // Fig. 10's plateau: dispatch overhead dominates small chunks.
  const CostModel m(edge_gateway_spec());
  auto time_with_threads = [&](int threads) {
    WorkProfile p;
    ParallelRegion r;
    const double total = 50e3;  // tiny kernel
    r.chunk_cycles.assign(static_cast<size_t>(threads), total / threads);
    p.add_region(r);
    return m.execution_time(p);
  };
  EXPECT_GT(time_with_threads(8), time_with_threads(2));
}

TEST(CostModel, DynamicEnergyFollowsEq1c) {
  const CostModel m(turtlebot3_spec());
  WorkProfile p;
  p.add_serial(1e9);
  const double e = m.dynamic_energy(p);
  EXPECT_NEAR(e, calib::kSwitchedCapacitance * 1e9 * 1.4 * 1.4, 1e-15);
  // Energy is frequency-squared: the gateway pays more per cycle.
  const CostModel gw(edge_gateway_spec());
  EXPECT_GT(gw.dynamic_energy(p), e);
}

TEST(ExecutionContext, SerialWorkAccumulates) {
  ExecutionContext ctx;
  ctx.serial_work(100.0);
  ctx.serial_work(50.0);
  EXPECT_DOUBLE_EQ(ctx.profile().total_cycles(), 150.0);
  EXPECT_TRUE(ctx.profile().regions.empty());
}

TEST(ExecutionContext, ParallelKernelWithoutPoolStillRecordsChunks) {
  ExecutionContext ctx(nullptr, 4);
  std::vector<int> touched(10, 0);
  ctx.parallel_kernel(10, [&](size_t i) {
    touched[i] = 1;
    return 10.0;
  });
  for (int t : touched) EXPECT_EQ(t, 1);
  ASSERT_EQ(ctx.profile().regions.size(), 1u);
  EXPECT_EQ(ctx.profile().regions[0].chunks(), 4);
  EXPECT_DOUBLE_EQ(ctx.profile().total_cycles(), 100.0);
}

TEST(ExecutionContext, ParallelKernelOnRealPoolMatchesSerial) {
  ThreadPool pool(4);
  ExecutionContext par(& pool, 4);
  ExecutionContext ser(nullptr, 1);
  auto work = [](size_t i) { return static_cast<double>(i + 1); };
  par.parallel_kernel(100, work);
  ser.parallel_kernel(100, work);
  EXPECT_DOUBLE_EQ(par.profile().total_cycles(), ser.profile().total_cycles());
  EXPECT_DOUBLE_EQ(par.profile().total_cycles(), 100.0 * 101.0 / 2.0);
}

TEST(ExecutionContext, DynamicChunkCyclesDoNotDependOnRealThreads) {
  // Cycles are keyed by grain, so a one-thread pool must model the region
  // exactly like a four-thread pool.
  auto chunk_cycles = [](size_t pool_threads) {
    ThreadPool pool(pool_threads);
    ExecutionContext ctx(&pool, 4);
    ctx.parallel_kernel_blocks(
        37,
        [](size_t begin, size_t end) {
          double cycles = 0.0;
          for (size_t i = begin; i < end; ++i) cycles += static_cast<double>((i + 1) * (i + 1));
          return cycles;
        },
        Schedule::kDynamic);
    return ctx.profile().regions.at(0).chunk_cycles;
  };
  EXPECT_EQ(chunk_cycles(1), chunk_cycles(4));
}

TEST(ExecutionContext, SingleThreadKernelCountsAsSerial) {
  ExecutionContext ctx(nullptr, 1);
  ctx.parallel_kernel(5, [](size_t) { return 1.0; });
  EXPECT_TRUE(ctx.profile().regions.empty());
  EXPECT_DOUBLE_EQ(ctx.profile().serial_cycles, 5.0);
}

TEST(WorkProfile, MergeAndTotals) {
  WorkProfile a, b;
  a.add_serial(10.0);
  ParallelRegion r;
  r.chunk_cycles = {5.0, 7.0};
  b.add_region(r);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_cycles(), 22.0);
  EXPECT_DOUBLE_EQ(a.regions[0].longest(), 7.0);
}

TEST(WorkMeter, ChargesAndFractions) {
  WorkMeter meter;
  meter.charge("slam", 60.0);
  meter.charge("slam", 40.0);
  meter.charge("costmap", 100.0);
  EXPECT_DOUBLE_EQ(meter.cycles("slam"), 100.0);
  EXPECT_EQ(meter.invocations("slam"), 2u);
  EXPECT_DOUBLE_EQ(meter.total_cycles(), 200.0);
  EXPECT_DOUBLE_EQ(meter.fraction("slam"), 0.5);
  EXPECT_DOUBLE_EQ(meter.fraction("missing"), 0.0);
  meter.reset();
  EXPECT_DOUBLE_EQ(meter.total_cycles(), 0.0);
}

TEST(SpeedupShape, EcnCloudBeatsGatewayAtScale) {
  // Fig. 9's conclusion: for the big parallel SLAM kernel the manycore cloud
  // server achieves the best acceleration; both beat local by 20-45×.
  const double work = 3.3e9;  // one SLAM update, Table II
  auto runtime = [&](const PlatformSpec& spec, int threads) {
    CostModel m(spec);
    WorkProfile p;
    ParallelRegion r;
    r.chunk_cycles.assign(static_cast<size_t>(threads), work / threads);
    p.add_region(r);
    p.add_serial(work * 0.02);  // 2% sequential resample (§V: 98% scanMatch)
    return m.execution_time(p);
  };
  const double local = runtime(turtlebot3_spec(), 1);
  const double gw = runtime(edge_gateway_spec(), 8);
  const double cloud = runtime(cloud_server_spec(), 24);
  EXPECT_LT(cloud, gw);
  const double gw_speedup = local / gw;
  const double cloud_speedup = local / cloud;
  // Paper: up to 27.97× (gateway) and 40.84× (cloud).
  EXPECT_GT(gw_speedup, 15.0);
  EXPECT_LT(gw_speedup, 40.0);
  EXPECT_GT(cloud_speedup, 25.0);
  EXPECT_LT(cloud_speedup, 55.0);
}

TEST(SpeedupShape, VdpGatewayBeatsCloud) {
  // Fig. 10's conclusion: the VDP has a serial costmap stage plus the
  // parallel scoring stage, so the high-frequency gateway beats the manycore
  // server end to end.
  const double serial_work = 0.86e9;    // CostmapGen (Table II)
  const double parallel_work = 1.39e9;  // Path Tracking
  auto runtime = [&](const PlatformSpec& spec, int threads) {
    CostModel m(spec);
    WorkProfile p;
    p.add_serial(serial_work);
    ParallelRegion r;
    r.chunk_cycles.assign(static_cast<size_t>(threads), parallel_work / threads);
    p.add_region(r);
    return m.execution_time(p);
  };
  EXPECT_LT(runtime(edge_gateway_spec(), 4), runtime(cloud_server_spec(), 4));
  EXPECT_LT(runtime(edge_gateway_spec(), 8), runtime(cloud_server_spec(), 12));
}

}  // namespace
}  // namespace lgv::platform
