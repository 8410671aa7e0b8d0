// ExecutionContext is the handle an algorithm kernel receives when it runs.
// It carries the thread pool of the host platform (null on the LGV's
// in-order cores or when parallel optimization is disabled), the configured
// thread count, and the WorkProfile being recorded for this invocation.
//
// parallel_kernel() is the bridge between *real* execution and *modeled*
// timing: the per-item functor genuinely runs (on the pool when available)
// and returns the cycles it performed; the context groups those cycles into
// per-chunk totals exactly matching the static partitioning of Figs. 5/6.
#pragma once

#include <functional>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "platform/work_profile.h"

namespace lgv::platform {

/// How parallel_kernel spreads items over workers.
enum class Schedule {
  /// Fixed contiguous chunks, one per thread — the paper's Figs. 5/6
  /// partitioning and the reference mode. Imbalance (items that early-exit)
  /// is charged faithfully: the region costs its longest chunk.
  kStatic,
  /// Workers grab small fixed grains off a shared counter, so cheap items
  /// don't strand a worker idle. Cycles are recorded per grain and then
  /// assigned to virtual workers by a deterministic greedy schedule (grains
  /// in index order, each to the least-loaded worker), which models the
  /// atomic-counter execution while keeping virtual-time costs reproducible
  /// run to run regardless of which real thread grabbed what.
  kDynamic,
};

class ExecutionContext {
 public:
  ExecutionContext() = default;
  ExecutionContext(ThreadPool* pool, int threads) : pool_(pool), threads_(threads) {}

  int threads() const { return threads_; }
  ThreadPool* pool() const { return pool_; }

  /// Record `cycles` of sequential work (already performed by the caller).
  void serial_work(double cycles) { profile_.add_serial(cycles); }

  /// Items per dynamic-scheduling grab (small, so early-exiting items
  /// rebalance quickly; fixed, so the virtual-time model is deterministic).
  static constexpr size_t kDynamicGrain = 4;

  /// Execute fn(i) for i in [0, count); fn returns the cycles item i cost.
  /// Items are spread over `threads()` workers per `schedule`; per-chunk
  /// cycles are recorded so the cost model charges the longest chunk.
  /// fn must be safe to invoke concurrently for distinct items.
  void parallel_kernel(size_t count, const std::function<double(size_t)>& fn,
                       Schedule schedule = Schedule::kStatic);

  /// Block-granular variant: fn(begin, end) processes items [begin, end) and
  /// returns the cycles the whole block cost. Blocks are the scheduling
  /// units the per-item form already used — kDynamicGrain-sized grains under
  /// kDynamic, one contiguous chunk per worker under kStatic — so a kernel
  /// that vectorizes across a block sees exactly the ranges the cost model
  /// charges. fn must be safe to invoke concurrently for disjoint blocks,
  /// and per-item results must not depend on the blocking (the schedule
  /// equivalence contract).
  void parallel_kernel_blocks(size_t count,
                              const std::function<double(size_t, size_t)>& fn,
                              Schedule schedule = Schedule::kStatic);

  /// Per-thread bump arena for kernel temporaries (SoA staging buffers and
  /// the like). Arena::Scope-guard every use; allocations are only valid
  /// within the enclosing parallel_kernel block / serial region.
  static Arena& scratch() { return thread_scratch(); }

  WorkProfile& profile() { return profile_; }
  const WorkProfile& profile() const { return profile_; }
  void reset() { profile_.clear(); }

 private:
  ThreadPool* pool_ = nullptr;
  int threads_ = 1;
  WorkProfile profile_;
};

}  // namespace lgv::platform
