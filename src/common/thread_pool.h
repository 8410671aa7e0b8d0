// Fixed-size fork-join worker pool used by the cloud-acceleration kernels
// (parallel scanMatch, Fig. 6; parallel scoreTrajectory, Fig. 5). The pool
// mirrors the paper's design: a main thread partitions M work items into N
// chunks and blocks until all chunks complete.
//
// Every call is one *region*: the caller posts it, then runs units of it
// beside the workers' tasks until none is left, and returns once the last
// task has finished. The pool owns all of a region's completion state, so no
// worker touches the caller's stack once the caller can return. Regions
// posted from different threads run one at a time; a region's fn must not
// post a region on the same pool.
//
// Concurrency hygiene follows the C++ Core Guidelines: RAII locks only
// (CP.20), condition waits always have a predicate (CP.42), threads are
// joined in the destructor (CP.23/CP.25), tasks are the unit of work (CP.4).
// All condition waits are timed (see kWaitSlice in the .cpp) so a lost
// wakeup — glibc < 2.41 can drop one under notify churn (bug 25847) —
// degrades to a bounded delay instead of a shutdown deadlock.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lgv {

namespace telemetry {
class Counter;
class Gauge;
class Histogram;
class Telemetry;
}  // namespace telemetry

class ThreadPool {
 public:
  using RangeFn = std::function<void(size_t begin, size_t end)>;

  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Wire the pool's hot-path metrics into `telemetry` (nullptr disconnects):
  /// `pool_tasks_total`, `pool_queue_depth`, `pool_task_wait_us` /
  /// `pool_task_run_us` histograms and `pool_busy_us_total`, all labeled
  /// {pool=`pool_name`}. A task is one worker's share of a region; its wait
  /// runs from the region's post to the task's start. Units the caller runs
  /// itself are not tasks and appear in none of these metrics. Times are host
  /// wall-clock — the pool runs real threads; virtual time never advances
  /// inside a task. Worker utilization over an interval is
  /// busy_us / (interval · num_threads).
  ///
  /// Lifetime: `telemetry` must outlive the pool (or be disconnected first):
  /// declare the bundle before the pool. A worker records a task's metrics
  /// before the task counts as finished, so nothing is written into the
  /// bundle after a region returns.
  void set_telemetry(telemetry::Telemetry* telemetry,
                     const std::string& pool_name = "remote_pool");

  /// Run fn(i) for i in [0, count) across the pool, blocking until done.
  /// Work is partitioned into contiguous chunks, one per worker, matching the
  /// static partitioning the paper describes for both parallel kernels.
  /// Templated so the per-item call inlines inside each chunk — only one
  /// type-erased dispatch happens per chunk, not per index.
  template <typename Fn>
  void parallel_for(size_t count, Fn&& fn) {
    parallel_chunks(count, num_threads(), [&fn](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }

  /// Chunked variant: fn(begin, end) once per chunk of
  /// chunk_range(count, chunks, ·). Exposed so callers can meter per-chunk
  /// work. The chunk boundaries depend only on `count` and `chunks`.
  void parallel_chunks(size_t count, size_t chunks, const RangeFn& fn);

  /// Dynamic-scheduling variant: min(workers, ceil(count/grain)) tasks and
  /// the caller each grab the next `grain`-sized range of [0, count) off a
  /// shared counter until none remain. Unlike the static
  /// partition above, a worker that drew cheap items (e.g. trajectory
  /// candidates that early-exit on collision) immediately takes more work
  /// instead of idling, so the region finishes when the *work* runs out, not
  /// when the unluckiest pre-assigned chunk does. fn(begin, end) may run
  /// concurrently with itself on disjoint ranges. Every call covers exactly
  /// one grain [k·grain, min((k+1)·grain, count)), at any worker count —
  /// a one-thread pool walks the grains in order.
  void parallel_dynamic(size_t count, size_t grain, const RangeFn& fn);

 private:
  /// One fork-join region: `units` work units over [0, count). grain == 0
  /// means unit u is chunk_range(count, units, u); otherwise unit u is the
  /// u-th `grain`-sized range.
  struct Region {
    const RangeFn* fn = nullptr;
    size_t count = 0;
    size_t units = 0;
    size_t grain = 0;
    std::chrono::steady_clock::time_point posted;
  };

  /// Run every unit of `region` on min(workers, units) tasks plus the caller,
  /// and return once all of them finished. With one task the caller runs the
  /// units alone.
  void run_region(const Region& region);
  void worker_loop();

  std::mutex region_mutex_;  ///< held by the caller for a whole region

  std::mutex mutex_;  ///< guards everything below except next_unit_
  std::condition_variable task_ready_;
  std::condition_variable region_done_;
  Region region_;           ///< the posted region
  size_t seats_ = 0;        ///< tasks of region_ no worker has started yet;
                            ///< the caller withdraws them once it runs out of units
  size_t running_ = 0;      ///< tasks of region_ started and not finished
  bool stopping_ = false;
  std::atomic<size_t> next_unit_{0};  ///< next unit of region_ to claim

  // Telemetry handles (cached once in set_telemetry; null when disabled).
  telemetry::Counter* tasks_total_ = nullptr;
  telemetry::Counter* busy_us_total_ = nullptr;
  telemetry::Gauge* queue_depth_ = nullptr;
  telemetry::Histogram* task_wait_us_ = nullptr;
  telemetry::Histogram* task_run_us_ = nullptr;

  std::vector<std::thread> workers_;  ///< last: the threads use every member above
};

/// Compute the contiguous [begin, end) range of chunk `chunk` out of `chunks`
/// over `count` items, distributing the remainder over the leading chunks.
struct ChunkRange {
  size_t begin;
  size_t end;
};
ChunkRange chunk_range(size_t count, size_t chunks, size_t chunk);

}  // namespace lgv
