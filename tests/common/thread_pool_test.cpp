#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/telemetry/telemetry.h"

namespace lgv {
namespace {

TEST(ChunkRange, EvenSplit) {
  const ChunkRange r0 = chunk_range(8, 4, 0);
  EXPECT_EQ(r0.begin, 0u);
  EXPECT_EQ(r0.end, 2u);
  const ChunkRange r3 = chunk_range(8, 4, 3);
  EXPECT_EQ(r3.begin, 6u);
  EXPECT_EQ(r3.end, 8u);
}

TEST(ChunkRange, RemainderGoesToLeadingChunks) {
  // 10 items over 4 chunks → 3,3,2,2.
  EXPECT_EQ(chunk_range(10, 4, 0).end - chunk_range(10, 4, 0).begin, 3u);
  EXPECT_EQ(chunk_range(10, 4, 1).end - chunk_range(10, 4, 1).begin, 3u);
  EXPECT_EQ(chunk_range(10, 4, 2).end - chunk_range(10, 4, 2).begin, 2u);
  EXPECT_EQ(chunk_range(10, 4, 3).end - chunk_range(10, 4, 3).begin, 2u);
}

TEST(ChunkRange, CoversAllItemsExactlyOnce) {
  for (size_t count : {1u, 7u, 24u, 100u}) {
    for (size_t chunks : {1u, 3u, 8u}) {
      std::vector<int> hits(count, 0);
      for (size_t c = 0; c < chunks; ++c) {
        const ChunkRange r = chunk_range(count, chunks, c);
        for (size_t i = r.begin; i < r.end; ++i) ++hits[i];
      }
      for (size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i], 1) << count << " " << chunks;
    }
  }
}

TEST(ChunkRange, FewerItemsThanChunks) {
  // 3 items over 8 chunks → one item each for the first three, empty after.
  for (size_t c = 0; c < 8; ++c) {
    const ChunkRange r = chunk_range(3, 8, c);
    EXPECT_LE(r.begin, r.end);
    EXPECT_EQ(r.end - r.begin, c < 3 ? 1u : 0u) << c;
  }
  // Empty chunks must still be valid (begin == end, within bounds).
  EXPECT_EQ(chunk_range(3, 8, 7).begin, 3u);
  EXPECT_EQ(chunk_range(3, 8, 7).end, 3u);
}

TEST(ChunkRange, ZeroItems) {
  for (size_t c = 0; c < 4; ++c) {
    const ChunkRange r = chunk_range(0, 4, c);
    EXPECT_EQ(r.begin, 0u);
    EXPECT_EQ(r.end, 0u);
  }
}

TEST(ThreadPool, RunsSubmittedTasks) {
  // A region posts min(workers, chunks) tasks, each one worker's share; the
  // caller runs chunks too and withdraws the seats no worker took once none
  // is left, so a region runs at most that many tasks. The pool-level series
  // count and time exactly the tasks that ran.
  telemetry::Telemetry telemetry;
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  pool.set_telemetry(&telemetry, "test_pool");
  std::atomic<int> counter{0};
  for (int round = 0; round < 25; ++round) {
    pool.parallel_chunks(4, 4, [&counter](size_t begin, size_t end) {
      counter.fetch_add(static_cast<int>(end - begin));
    });
  }
  EXPECT_EQ(counter.load(), 100);
  const telemetry::Labels labels = {{"pool", "test_pool"}};
  auto& m = telemetry.metrics();
  const uint64_t tasks = m.counter("pool_tasks_total", labels).value();
  EXPECT_LE(tasks, 100u);
  EXPECT_EQ(m.histogram("pool_task_wait_us", labels).count(), tasks);
  EXPECT_EQ(m.histogram("pool_task_run_us", labels).count(), tasks);
  EXPECT_DOUBLE_EQ(m.gauge("pool_queue_depth", labels).value(), 0.0);
}

TEST(ThreadPool, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelChunksSumMatches) {
  ThreadPool pool(4);
  std::vector<long> data(257);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<long> total{0};
  pool.parallel_chunks(data.size(), 4, [&](size_t begin, size_t end) {
    long local = 0;
    for (size_t i = begin; i < end; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 257L * 256L / 2L);
}

TEST(ThreadPool, ParallelChunksMoreChunksThanItems) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.parallel_chunks(3, 8, [&](size_t begin, size_t end) {
    EXPECT_LT(begin, end);
    calls.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, ParallelDynamicVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1003);
  pool.parallel_dynamic(hits.size(), 4, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelDynamicRangesRespectGrain) {
  // Grain boundaries do not depend on the worker count: a one-thread pool
  // walks the same three grains.
  for (size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    std::atomic<int> calls{0};
    pool.parallel_dynamic(10, 4, [&](size_t begin, size_t end) {
      EXPECT_EQ(begin % 4, 0u);
      EXPECT_LE(end - begin, 4u);
      calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 3) << threads;  // [0,4) [4,8) [8,10)
  }
}

TEST(ThreadPool, ParallelDynamicGrainLargerThanCount) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  pool.parallel_dynamic(3, 100, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
    visited.fetch_add(1);
  });
  EXPECT_EQ(visited.load(), 1);
}

TEST(ThreadPool, ParallelDynamicEmpty) {
  ThreadPool pool(2);
  pool.parallel_dynamic(0, 4, [](size_t, size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ReentrantUseAfterWait) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(50, [&n](size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 50);
  }
}

TEST(ThreadPool, BackToBackTinyRegionsNeverOutliveTheirCaller) {
  // Completion-race guard: a region must not signal through anything on its
  // caller's stack, because the caller may already have returned and reused
  // that stack for the next region. Tiny back-to-back regions make that
  // window as wide as it gets; TSan reports a worker that touches it.
  ThreadPool pool(4);
  for (size_t i = 0; i < 12000; ++i) {
    const size_t count = 2 + i % 7;  // 2..8 items
    std::atomic<size_t> items{0};    // the same stack slot every iteration
    const auto add = [&items](size_t begin, size_t end) { items.fetch_add(end - begin); };
    if (i % 2 == 0) {
      pool.parallel_chunks(count, 2 + i % 3, add);  // 2..4 tasks
    } else {
      pool.parallel_dynamic(count, 2, add);  // 1..4 grains
    }
    ASSERT_EQ(items.load(), count) << "region " << i;
  }
}

TEST(ThreadPool, CallerRunsUnitsOfItsOwnRegion) {
  // Units run by workers wait, with a time limit, on a latch that only a unit
  // run by the caller opens. Blocked workers hold at most two of the three
  // units, so a caller that claims units gets one; a caller that only waits
  // leaves every worker to time out.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex m;
  std::condition_variable opened;
  bool open = false;
  int caller_units = 0;
  int timed_out = 0;
  pool.parallel_dynamic(3, 1, [&](size_t, size_t) {
    std::unique_lock lock(m);
    if (std::this_thread::get_id() == caller) {
      ++caller_units;
      open = true;
      opened.notify_all();
    } else if (!opened.wait_for(lock, std::chrono::seconds(5), [&] { return open; })) {
      ++timed_out;
    }
  });
  EXPECT_GE(caller_units, 1);
  EXPECT_EQ(timed_out, 0);
}

TEST(ThreadPool, DestructionWithPendingWorkJoinsCleanly) {
  // Destroy each pool right after its region: every worker must have left
  // the region, and the join must not hang or touch the telemetry late.
  std::atomic<int> done{0};
  for (int round = 0; round < 50; ++round) {
    telemetry::Telemetry telemetry;
    ThreadPool pool(2);
    pool.set_telemetry(&telemetry);
    pool.parallel_chunks(20, 2, [&done](size_t begin, size_t end) {
      done.fetch_add(static_cast<int>(end - begin));
    });
  }
  EXPECT_EQ(done.load(), 50 * 20);
}

}  // namespace
}  // namespace lgv
