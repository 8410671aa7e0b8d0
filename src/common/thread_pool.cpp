#include "common/thread_pool.h"

#include <algorithm>
#include <cassert>

#include "common/telemetry/telemetry.h"

namespace lgv {

namespace {
double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// Every condition wait in the pool is a timed wait. glibc before 2.41 can
// lose a condvar wakeup outright (bug 25847, "pthread_cond_signal failed to
// wake up pthread_cond_wait due to a bug in undoing stealing"): after heavy
// notify_one churn a later notify_all may leave one waiter asleep. During a
// mission a lost wake self-heals — the caller and the workers re-check their
// predicates every slice — but the destructor's notify_all is the last signal
// ever sent, and a worker that misses it sleeps forever while join() blocks.
// The periodic predicate re-check turns that into a bounded delay instead of
// a deadlock.
constexpr std::chrono::milliseconds kWaitSlice{100};

// Wall-clock microsecond buckets: 1 µs .. 100 ms.
std::vector<double> us_bounds() {
  return {1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
          1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5};
}

// Unit `unit` of a region (see ThreadPool::Region).
ChunkRange unit_range(size_t count, size_t units, size_t grain, size_t unit) {
  if (grain == 0) return chunk_range(count, units, unit);
  const size_t begin = unit * grain;
  return {begin, std::min(begin + grain, count)};
}
}  // namespace

ChunkRange chunk_range(size_t count, size_t chunks, size_t chunk) {
  assert(chunks > 0 && chunk < chunks);
  const size_t base = count / chunks;
  const size_t extra = count % chunks;
  const size_t begin = chunk * base + std::min(chunk, extra);
  const size_t len = base + (chunk < extra ? 1 : 0);
  return {begin, begin + len};
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::set_telemetry(telemetry::Telemetry* telemetry,
                               const std::string& pool_name) {
  const std::scoped_lock lock(mutex_);
  if (telemetry == nullptr || !telemetry->enabled()) {
    tasks_total_ = nullptr;
    busy_us_total_ = nullptr;
    queue_depth_ = nullptr;
    task_wait_us_ = nullptr;
    task_run_us_ = nullptr;
    return;
  }
  const telemetry::Labels labels = {{"pool", pool_name}};
  auto& m = telemetry->metrics();
  tasks_total_ = &m.counter("pool_tasks_total", labels);
  busy_us_total_ = &m.counter("pool_busy_us_total", labels);
  queue_depth_ = &m.gauge("pool_queue_depth", labels);
  task_wait_us_ = &m.histogram("pool_task_wait_us", labels, us_bounds());
  task_run_us_ = &m.histogram("pool_task_run_us", labels, us_bounds());
}

void ThreadPool::parallel_chunks(size_t count, size_t chunks, const RangeFn& fn) {
  if (count == 0) return;
  run_region({&fn, count, std::clamp<size_t>(chunks, 1, count), 0, {}});
}

void ThreadPool::parallel_dynamic(size_t count, size_t grain, const RangeFn& fn) {
  if (count == 0) return;
  grain = std::max<size_t>(1, grain);
  run_region({&fn, count, (count + grain - 1) / grain, grain, {}});
}

void ThreadPool::run_region(const Region& region) {
  const size_t tasks = std::min(num_threads(), region.units);
  if (tasks <= 1) {
    for (size_t u = 0; u < region.units; ++u) {
      const ChunkRange r = unit_range(region.count, region.units, region.grain, u);
      (*region.fn)(r.begin, r.end);
    }
    return;
  }
  const std::scoped_lock one_region(region_mutex_);
  {
    const std::scoped_lock lock(mutex_);
    region_ = region;
    region_.posted = std::chrono::steady_clock::now();
    next_unit_.store(0, std::memory_order_relaxed);
    seats_ = tasks;
    if (queue_depth_ != nullptr) queue_depth_->set(static_cast<double>(seats_));
  }
  for (size_t t = 0; t < tasks; ++t) task_ready_.notify_one();
  // The caller, which holds a CPU already, claims units like a worker. When
  // none is left it withdraws the seats no worker has taken, so it waits only
  // for the tasks already running: a descheduled worker that wakes late finds
  // no seat and nothing to do.
  size_t u;
  while ((u = next_unit_.fetch_add(1, std::memory_order_relaxed)) < region.units) {
    const ChunkRange r = unit_range(region.count, region.units, region.grain, u);
    (*region.fn)(r.begin, r.end);
  }
  // running_ is a pool member changed under mutex_: once it reads zero with
  // no seat left, every task has left fn and will not touch the region again.
  std::unique_lock lock(mutex_);
  seats_ = 0;
  if (queue_depth_ != nullptr) queue_depth_->set(0.0);
  while (!region_done_.wait_for(lock, kWaitSlice, [this] { return running_ == 0; })) {
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    Region region;
    // Handles read under the lock; they are stable for the pool's lifetime.
    telemetry::Counter* tasks_total = nullptr;
    telemetry::Counter* busy_us_total = nullptr;
    telemetry::Histogram* task_wait_us = nullptr;
    telemetry::Histogram* task_run_us = nullptr;
    {
      std::unique_lock lock(mutex_);
      while (!task_ready_.wait_for(lock, kWaitSlice,
                                   [this] { return stopping_ || seats_ > 0; })) {
      }
      if (seats_ == 0) return;  // stopping_, and no region is posted
      --seats_;
      ++running_;
      region = region_;
      tasks_total = tasks_total_;
      busy_us_total = busy_us_total_;
      task_wait_us = task_wait_us_;
      task_run_us = task_run_us_;
      if (queue_depth_ != nullptr) queue_depth_->set(static_cast<double>(seats_));
    }
    const auto start = std::chrono::steady_clock::now();
    size_t u;
    while ((u = next_unit_.fetch_add(1, std::memory_order_relaxed)) < region.units) {
      const ChunkRange r = unit_range(region.count, region.units, region.grain, u);
      (*region.fn)(r.begin, r.end);
    }
    if (tasks_total != nullptr) {
      const double run_us = elapsed_us(start, std::chrono::steady_clock::now());
      tasks_total->inc();
      busy_us_total->inc(static_cast<uint64_t>(run_us));
      task_wait_us->observe(elapsed_us(region.posted, start));
      task_run_us->observe(run_us);
    }
    const std::scoped_lock lock(mutex_);
    if (--running_ == 0 && seats_ == 0) region_done_.notify_all();
  }
}

}  // namespace lgv
