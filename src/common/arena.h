// Bump-pointer arena for kernel temporaries. The SIMD scanMatch and rollout
// paths stage beam endpoints, cell indices and per-lane scratch in arrays
// whose size changes every call; allocating them from the global heap inside
// parallel_kernel workers serializes on the allocator lock and fragments.
// The arena hands out pointers from reusable blocks, never frees on the hot
// path, and rewinds in O(1).
//
// Lifetime rules (see docs/kernels.md):
//  - allocations are only valid until the enclosing Scope rewinds (or
//    reset() is called) — never store arena pointers in long-lived objects;
//  - Arena is NOT thread-safe: use thread_scratch() (one arena per thread)
//    from parallel workers, which is what ExecutionContext::scratch() returns;
//  - alloc_array<T> only supports trivially-destructible T — the rewind does
//    not run destructors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace lgv {

class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes < 256 ? 256 : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Aligned raw allocation; falls back to a dedicated oversized block when
  /// `bytes` exceeds the block size.
  void* allocate(size_t bytes, size_t align = 32) {
    if (bytes == 0) return blocks_.empty() ? nullptr : current_ptr();
    if (blocks_.empty()) new_block(bytes + align);
    uintptr_t p = reinterpret_cast<uintptr_t>(current_ptr());
    uintptr_t aligned = (p + (align - 1)) & ~static_cast<uintptr_t>(align - 1);
    const size_t needed = (aligned - p) + bytes;
    if (offset_ + needed > blocks_[block_].size) {
      new_block(bytes + align);
      p = reinterpret_cast<uintptr_t>(current_ptr());
      aligned = (p + (align - 1)) & ~static_cast<uintptr_t>(align - 1);
    }
    offset_ += (aligned - reinterpret_cast<uintptr_t>(current_ptr())) + bytes;
    bytes_live_ += bytes;
    high_water_ = bytes_live_ > high_water_ ? bytes_live_ : high_water_;
    return reinterpret_cast<void*>(aligned);
  }

  /// Typed array of `n` elements, 32-byte aligned, uninitialized.
  template <typename T>
  T* alloc_array(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena rewind does not run destructors");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T) < 32 ? 32 : alignof(T)));
  }

  /// Rewind everything; blocks are kept for reuse (capacity survives).
  void reset() {
    block_ = 0;
    offset_ = 0;
    bytes_live_ = 0;
  }

  /// RAII watermark: rewinds to the construction point on destruction so
  /// nested kernel calls can share one per-thread arena.
  class Scope {
   public:
    explicit Scope(Arena& arena)
        : arena_(arena), block_(arena.block_), offset_(arena.offset_),
          live_(arena.bytes_live_) {}
    ~Scope() {
      arena_.block_ = block_;
      arena_.offset_ = offset_;
      arena_.bytes_live_ = live_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Arena& arena_;
    size_t block_;
    size_t offset_;
    size_t live_;
  };

  size_t block_count() const { return blocks_.size(); }
  size_t bytes_live() const { return bytes_live_; }
  size_t high_water_bytes() const { return high_water_; }
  size_t capacity_bytes() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
  };

  uint8_t* current_ptr() { return blocks_[block_].data.get() + offset_; }

  void new_block(size_t min_bytes) {
    // Advance to an existing spare block big enough, else append one.
    const size_t want = min_bytes > block_bytes_ ? min_bytes : block_bytes_;
    size_t next = blocks_.empty() ? 0 : block_ + 1;
    while (next < blocks_.size() && blocks_[next].size < want) ++next;
    if (next >= blocks_.size()) {
      // Uninitialized, as alloc_array promises: a value-initialized block
      // would make every page of it resident whether or not it is touched.
      Block b;
      b.data = std::make_unique_for_overwrite<uint8_t[]>(want);
      b.size = want;
      blocks_.push_back(std::move(b));
      next = blocks_.size() - 1;
    }
    block_ = next;
    offset_ = 0;
  }

  size_t block_bytes_;
  std::vector<Block> blocks_;
  size_t block_ = 0;   ///< index of the block being bumped
  size_t offset_ = 0;  ///< bump offset inside blocks_[block_]
  size_t bytes_live_ = 0;
  size_t high_water_ = 0;
};

/// The per-thread scratch arena kernel code allocates temporaries from.
/// Exposed through ExecutionContext::scratch() inside parallel_kernel
/// workers; safe to call anywhere (main thread included).
inline Arena& thread_scratch() {
  static thread_local Arena arena;
  return arena;
}

}  // namespace lgv
