// Span tracing against the virtual clock. Components record complete spans
// (node executions, state migrations) and instant events (Algorithm 1/2
// decisions, drops) with a track identity of (process lane, thread lane) —
// we map hosts to process lanes and nodes/components to thread lanes, so a
// mission trace opened in Perfetto / chrome://tracing shows the VDP pipeline
// as per-node rows grouped under lgv / edge_gateway / cloud_server, and an
// Algorithm 2 migration as a node's work jumping between groups.
//
// Causality: a TraceContext (trace_id + parent span) is carried across the
// middleware queues and the framed wire envelope, so every event recorded
// while a context is active becomes a node in one cross-host span DAG. A
// trace starts at the sensor tick (`begin_trace`) and is re-entered on the
// remote side when a frame carrying the context is delivered.
//
// Export formats: Chrome trace-event JSON (the `traceEvents` array schema,
// loadable by Perfetto) and a line-per-event JSONL stream for ad-hoc jq/grep
// analysis and the critical-path analyzer. Output is deterministic for a
// fixed event sequence — golden-file testable under the virtual clock.
//
// Storage (docs/observability.md, "Trace storage"): events are kept as
// fixed-size records of interned string ids plus typed argument slots, in
// blocks that never move; values are rendered to text only at export.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/telemetry/metrics.h"

namespace lgv::telemetry {

/// String args of a materialized event, rendered into the Chrome `args`
/// object. Values are emitted as raw JSON when they parse as a number, else
/// quoted.
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

/// An event as exported: what `events()`, `flight_events()` and
/// `parse_trace_jsonl` return and the critical-path analyzer reads.
struct TraceEvent {
  std::string name;
  char phase = 'i';    ///< 'X' complete span, 'i' instant event
  double ts_s = 0.0;   ///< virtual start time (seconds)
  double dur_s = 0.0;  ///< span duration (seconds, 'X' only)
  std::string pid;     ///< process lane (host)
  std::string tid;     ///< thread lane (node / component)
  // Causal identity; all zero when recorded outside an active trace. Emitted
  // in the JSON output only when set, so untraced output is unchanged.
  uint32_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_span_id = 0;
  TraceArgs args;
};

/// A typed argument value, rendered at export exactly as `std::to_string`
/// renders it: a double as `%f`, an integer in decimal, a string as given.
/// Pass the number itself, not its string. Holds a view: the string must
/// outlive the recording call (a temporary in the call expression does).
class TraceValue {
 public:
  enum class Kind : uint8_t { kString, kDouble, kInt, kUint };

  TraceValue(std::string_view s) : kind_(Kind::kString), str_(s) {}
  TraceValue(const char* s) : TraceValue(std::string_view(s)) {}
  TraceValue(const std::string& s) : TraceValue(std::string_view(s)) {}
  TraceValue(double v) : kind_(Kind::kDouble), f64_(v) {}
  template <std::signed_integral T>
  TraceValue(T v) : kind_(Kind::kInt), i64_(v) {}
  template <std::unsigned_integral T>
  TraceValue(T v) : kind_(Kind::kUint), u64_(v) {}

  Kind kind() const { return kind_; }
  std::string_view str() const { return str_; }
  double f64() const { return f64_; }
  int64_t i64() const { return i64_; }
  uint64_t u64() const { return u64_; }

 private:
  Kind kind_;
  union {
    std::string_view str_;
    double f64_;
    int64_t i64_;
    uint64_t u64_;
  };
};

struct TraceArg {
  std::string_view key;
  TraceValue value;
};

/// The args of one recording call: a braced list at the call site, or a
/// vector built beforehand. A view, read before the call returns (a braced
/// list's array lives until the end of the call's full-expression).
class TraceArgList {
 public:
  TraceArgList() = default;
  TraceArgList(std::initializer_list<TraceArg> args) : args_(args.begin(), args.size()) {}
  TraceArgList(const std::vector<TraceArg>& args) : args_(args) {}

  auto begin() const { return args_.begin(); }
  auto end() const { return args_.end(); }
  size_t size() const { return args_.size(); }

 private:
  std::span<const TraceArg> args_;
};

/// Propagated causal context: the trace this execution belongs to and the
/// span it should parent under. `span_id == 0` means "root of the trace".
/// Contexts are value types — capture them into queues, frames, and deferred
/// completions; restore with ScopedTraceContext around the continuation.
struct TraceContext {
  uint32_t trace_id = 0;
  uint32_t span_id = 0;  ///< parent span for events recorded under this context

  bool active() const { return trace_id != 0; }
};

class Tracer {
 public:
  /// Events past `max_events` are dropped (and counted) so a runaway mission
  /// cannot exhaust memory; a retained event costs a 56-byte record plus 16
  /// bytes per argument (about 80 bytes in a mission), so 1M events hold
  /// about 80 MB. The flight recorder is a second, much smaller ring that
  /// always keeps the most recent `flight_capacity` events (overwriting the
  /// oldest) — even after the main buffer saturates — so a post-mortem dump
  /// at lease expiry / migration abort / integrity reject always has the
  /// window that matters.
  explicit Tracer(size_t max_events = 1u << 20, size_t flight_capacity = 256)
      : max_events_(max_events), flight_capacity_(flight_capacity) {}

  /// Register the virtual clock used by the convenience overloads; the
  /// explicit-timestamp API works without one.
  void set_clock(const SimClock* clock) { clock_ = clock; }
  double now() const { return clock_ != nullptr ? clock_->now() : 0.0; }

  /// Mirror every ring-buffer drop into this counter (typically
  /// `telemetry_dropped_spans_total`); nullptr disconnects.
  void set_dropped_counter(Counter* counter) { dropped_counter_ = counter; }

  /// Optional vehicle identity appended as the last arg (`vehicle_id`) of
  /// every event recorded from now on (fleet-scale disambiguation). Empty =
  /// off.
  void set_vehicle_id(std::string_view vehicle_id);

  // --- causal context ------------------------------------------------------
  // The current context is what the *mission loop* is doing right now; it is
  // saved/restored around queue drains and frame deliveries, not per thread.
  // Pool workers record spans without touching it.

  /// Start a fresh trace (new trace_id, no parent) and make it current.
  TraceContext begin_trace();
  /// Re-enter a propagated context (e.g. decoded from a wire frame).
  void set_current(TraceContext ctx);
  TraceContext current() const;

  /// Complete span [start_s, start_s + dur_s). Returns the span id assigned
  /// under the current trace (0 outside a trace); pass it to `set_current`
  /// to parent subsequent events under this span.
  uint32_t span(std::string_view name, std::string_view pid, std::string_view tid,
                double start_s, double dur_s, TraceArgList args = {});
  /// Instant event at t_s. Returns the assigned span id (0 outside a trace).
  uint32_t instant(std::string_view name, std::string_view pid, std::string_view tid,
                   double t_s, TraceArgList args = {});
  /// Instant event stamped with the registered clock's current time.
  uint32_t instant_now(std::string_view name, std::string_view pid,
                       std::string_view tid, TraceArgList args = {});

  size_t size() const;
  uint64_t dropped() const;
  void clear();

  /// Chrome trace-event JSON: {"traceEvents": [...]} with process/thread
  /// name metadata so Perfetto shows host/node lane names.
  void write_chrome_json(std::ostream& os) const;
  /// One event per line, same field names as the Chrome schema except that
  /// pid/tid stay strings (host / node names) — the form the critical-path
  /// analyzer and jq pipelines consume.
  void write_jsonl(std::ostream& os) const;

  /// Snapshot of the recorded events (test / analysis use).
  std::vector<TraceEvent> events() const;

  // --- flight recorder -----------------------------------------------------

  size_t flight_capacity() const { return flight_capacity_; }
  /// Events the flight ring has overwritten (its "drops"; bounded-memory
  /// operation, not data loss — the main buffer usually still has them).
  uint64_t flight_overwritten() const;
  /// The retained window, oldest first.
  std::vector<TraceEvent> flight_events() const;
  /// JSONL dump of the retained window (same schema as write_jsonl).
  void write_flight_jsonl(std::ostream& os) const;

 private:
  static constexpr uint32_t kNoVehicle = UINT32_MAX;

  /// One event. Strings are ids into `strings_`; the args are `arg_count`
  /// consecutive slots of the owning store starting at `first_arg`.
  struct Record {
    double ts_s;
    double dur_s;
    uint32_t name;
    uint32_t pid;
    uint32_t tid;
    uint32_t trace_id;
    uint32_t span_id;
    uint32_t parent_span_id;
    uint32_t first_arg;
    uint32_t arg_count;
    uint32_t vehicle;  ///< interned vehicle_id in force when recorded, or kNoVehicle
    char phase;
  };

  struct Arg {
    uint32_t key;  ///< interned
    TraceValue::Kind kind;
    union {
      uint32_t str;  ///< interned
      double f64;
      int64_t i64;
      uint64_t u64;
    };
  };
  static_assert(sizeof(Record) == 56 && sizeof(Arg) == 16,
                "docs/observability.md quotes these sizes");

  /// Append-only storage in fixed blocks: elements never move, growth is
  /// one block allocation with no copy, and the only slack is the tail of
  /// the last block. Blocks are left uninitialized until written.
  template <typename T, size_t kBlock>
  class BlockStore {
   public:
    size_t size() const { return size_; }
    const T& operator[](size_t i) const { return blocks_[i / kBlock][i % kBlock]; }
    void push_back(const T& v) {
      if (size_ == blocks_.size() * kBlock) {
        blocks_.push_back(std::make_unique_for_overwrite<T[]>(kBlock));
      }
      blocks_[size_ / kBlock][size_ % kBlock] = v;
      ++size_;
    }
    void clear() {
      blocks_.clear();
      size_ = 0;
    }

   private:
    std::vector<std::unique_ptr<T[]>> blocks_;
    size_t size_ = 0;
  };

  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  uint32_t record(char phase, std::string_view name, std::string_view pid,
                  std::string_view tid, double ts_s, double dur_s, TraceArgList args);
  uint32_t intern(std::string_view s);
  Arg encode(const TraceArg& a);
  uint32_t reserve_flight_args(uint32_t n);
  template <typename ArgAt>
  TraceEvent materialize(const Record& r, ArgAt arg_at) const;
  TraceEvent event_at(size_t i) const;
  TraceEvent flight_event_at(size_t i) const;

  mutable std::mutex mutex_;
  // Interned strings: `strings_[id]` points at the key of `ids_` (map nodes
  // never move).
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>> ids_;
  std::vector<const std::string*> strings_;

  BlockStore<Record, 512> records_;
  BlockStore<Arg, 1024> args_;
  size_t max_events_;
  uint64_t dropped_ = 0;
  const SimClock* clock_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  uint32_t vehicle_ = kNoVehicle;

  TraceContext current_;
  uint32_t next_trace_id_ = 0;
  uint32_t next_span_id_ = 0;

  // Flight ring: record slots, plus a circular arg buffer (a power-of-two
  // size, doubled when the retained window's args outgrow it) addressed by
  // absolute positions modulo its size.
  std::vector<Record> flight_;
  size_t flight_capacity_;
  size_t flight_head_ = 0;  ///< next overwrite position once full
  uint64_t flight_overwritten_ = 0;
  std::vector<Arg> flight_args_;
  uint32_t flight_args_end_ = 0;  ///< absolute position after the newest args
};

/// RAII save/restore of a tracer's current context around a continuation
/// (queue drain, deferred completion, frame delivery). A nullptr tracer makes
/// the whole thing a no-op, preserving the one-pointer-test disabled path.
class ScopedTraceContext {
 public:
  ScopedTraceContext(Tracer* tracer, TraceContext ctx) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      saved_ = tracer_->current();
      tracer_->set_current(ctx);
    }
  }
  ~ScopedTraceContext() {
    if (tracer_ != nullptr) tracer_->set_current(saved_);
  }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  Tracer* tracer_;
  TraceContext saved_;
};

}  // namespace lgv::telemetry
