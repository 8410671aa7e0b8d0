// Crash isolation for bench_e2e: each mission (or the whole fleet episode)
// runs in a fork()ed child that streams its results back over a pipe. A child
// that dies on a signal loses only its own missions, which the run counts as
// failed with cause "signal:<n>", and the parent still reports. The parent's
// rusage for each child gives the run's peak RSS and CPU time.
//
// The parent must hold no threads when it forks: every thread pool is built
// inside a child.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace lgv::e2e {

/// Append-only byte buffer for trivially copyable records (parent and child
/// are the same binary, so raw layouts round-trip).
class ByteWriter {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  template <typename T>
  void put_vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(static_cast<uint64_t>(values.size()));
    const auto* p = reinterpret_cast<const uint8_t*>(values.data());
    bytes_.insert(bytes_.end(), p, p + values.size() * sizeof(T));
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}
  bool done() const { return pos_ == bytes_.size(); }
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, take(sizeof(T)), sizeof(T));
    return value;
  }
  template <typename T>
  std::vector<T> get_vector() {
    const auto n = get<uint64_t>();
    if (n > (bytes_.size() - pos_) / sizeof(T)) throw std::runtime_error("short child record");
    std::vector<T> values(n);
    if (n > 0) std::memcpy(values.data(), take(n * sizeof(T)), n * sizeof(T));
    return values;
  }

 private:
  const uint8_t* take(size_t n) {
    if (n > bytes_.size() - pos_) throw std::runtime_error("short child record");
    const uint8_t* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

struct ChildOutcome {
  std::vector<uint8_t> payload;  ///< everything the child's body wrote
  int exit_code = 0;             ///< valid when signal == 0
  int signal = 0;                ///< nonzero: the child was killed by it
  double max_rss_mb = 0.0;
  double cpu_s = 0.0;            ///< user + system

  bool ok() const { return signal == 0 && exit_code == 0; }
};

/// Run `body` in a fork()ed child and wait for it. The child exits with 0
/// after its writer reaches the parent, or 3 when `body` throws.
ChildOutcome run_in_child(const std::function<void(ByteWriter&)>& body);

}  // namespace lgv::e2e
