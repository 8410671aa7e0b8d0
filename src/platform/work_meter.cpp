#include "platform/work_meter.h"

#include "platform/execution_context.h"

namespace lgv::platform {

void ExecutionContext::parallel_kernel(size_t count,
                                       const std::function<double(size_t)>& fn,
                                       Schedule schedule) {
  parallel_kernel_blocks(
      count,
      [&fn](size_t begin, size_t end) {
        double cycles = 0.0;
        for (size_t i = begin; i < end; ++i) cycles += fn(i);
        return cycles;
      },
      schedule);
}

void ExecutionContext::parallel_kernel_blocks(
    size_t count, const std::function<double(size_t, size_t)>& fn,
    Schedule schedule) {
  if (count == 0) return;

  if (schedule == Schedule::kDynamic) {
    // Real execution grabs kDynamicGrain-sized ranges off a shared counter;
    // cycles are recorded per grain (each grain runs exactly once — one
    // writer per slot) and assigned to virtual workers deterministically
    // below, so virtual time does not depend on which thread grabbed what.
    const size_t n_grains = (count + kDynamicGrain - 1) / kDynamicGrain;
    std::vector<double> grain_cycles(n_grains, 0.0);
    auto run_range = [&](size_t begin, size_t end) {
      grain_cycles[begin / kDynamicGrain] = fn(begin, end);
    };
    if (pool_ != nullptr && threads_ > 1 && n_grains > 1) {
      pool_->parallel_dynamic(count, kDynamicGrain, run_range);
    } else {
      for (size_t g = 0; g < n_grains; ++g) {
        run_range(g * kDynamicGrain, std::min(count, (g + 1) * kDynamicGrain));
      }
    }

    const size_t bins =
        std::max<size_t>(1, std::min<size_t>(static_cast<size_t>(threads_), n_grains));
    if (bins == 1) {
      double total = 0.0;
      for (double c : grain_cycles) total += c;
      profile_.add_serial(total);
      return;
    }
    // Greedy list schedule in grain order: each grain goes to the currently
    // least-loaded virtual worker — the idealized behavior of the atomic
    // counter when workers run at equal speed.
    ParallelRegion region;
    region.dynamic = true;
    region.chunk_cycles.assign(bins, 0.0);
    for (double cycles : grain_cycles) {
      size_t bin = 0;
      for (size_t b = 1; b < bins; ++b) {
        if (region.chunk_cycles[b] < region.chunk_cycles[bin]) bin = b;
      }
      region.chunk_cycles[bin] += cycles;
    }
    profile_.add_region(std::move(region));
    return;
  }

  const size_t chunks =
      std::max<size_t>(1, std::min<size_t>(static_cast<size_t>(threads_), count));
  ParallelRegion region;
  region.chunk_cycles.assign(chunks, 0.0);

  auto run_chunk = [&](size_t chunk) {
    const ChunkRange r = chunk_range(count, chunks, chunk);
    region.chunk_cycles[chunk] = fn(r.begin, r.end);  // one writer per slot
  };

  if (pool_ != nullptr && chunks > 1) {
    pool_->parallel_chunks(chunks, chunks, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) run_chunk(c);
    });
  } else {
    for (size_t c = 0; c < chunks; ++c) run_chunk(c);
  }

  if (chunks == 1) {
    // A single chunk is just serial work; don't charge dispatch overhead.
    profile_.add_serial(region.chunk_cycles[0]);
  } else {
    profile_.add_region(std::move(region));
  }
}

void WorkMeter::charge(const std::string& node, double cycles) {
  Entry& e = entries_[node];
  e.cycles += cycles;
  ++e.invocations;
}

double WorkMeter::cycles(const std::string& node) const {
  const auto it = entries_.find(node);
  return it == entries_.end() ? 0.0 : it->second.cycles;
}

size_t WorkMeter::invocations(const std::string& node) const {
  const auto it = entries_.find(node);
  return it == entries_.end() ? 0 : it->second.invocations;
}

double WorkMeter::total_cycles() const {
  double t = 0.0;
  for (const auto& [name, e] : entries_) t += e.cycles;
  return t;
}

double WorkMeter::fraction(const std::string& node) const {
  const double total = total_cycles();
  return total > 0.0 ? cycles(node) / total : 0.0;
}

std::vector<std::string> WorkMeter::node_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, e] : entries_) names.push_back(name);
  return names;
}

void WorkMeter::reset() { entries_.clear(); }

}  // namespace lgv::platform
