// Differential test of Tracer against a reference copy of its original
// implementation: a std::vector<TraceEvent> of owned strings and string args,
// a second vector copy of every event for the flight ring, and
// std::to_string'd values at the call site. Both sides take the same calls
// (the reference gets std::to_string(x) where the tracer gets x); every
// export, snapshot and counter must match byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/telemetry/json_util.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"

namespace lgv::telemetry {
namespace {

// --------------------------------------------------------------------------
// Reference: the tracer as it was before its storage became compact.

std::string fmt_us(double seconds) { return json_fixed(seconds * 1e6, 3); }

bool looks_numeric(const std::string& v) {
  if (v.empty()) return false;
  char* end = nullptr;
  std::strtod(v.c_str(), &end);
  return end == v.c_str() + v.size();
}

void write_args(std::ostream& os, const TraceArgs& args) {
  os << "\"args\":{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(args[i].first) << "\":";
    if (looks_numeric(args[i].second)) {
      os << args[i].second;
    } else {
      os << "\"" << json_escape(args[i].second) << "\"";
    }
  }
  os << "}";
}

struct LaneIds {
  std::map<std::string, int> pids;
  std::map<std::pair<std::string, std::string>, int> tids;

  int pid(const std::string& p) {
    auto [it, inserted] = pids.try_emplace(p, static_cast<int>(pids.size()) + 1);
    return it->second;
  }
  int tid(const std::string& p, const std::string& t) {
    auto [it, inserted] =
        tids.try_emplace({p, t}, static_cast<int>(tids.size()) + 1);
    return it->second;
  }
};

void write_trace_ids(std::ostream& os, const TraceEvent& e) {
  if (e.span_id == 0) return;
  os << ",\"trace_id\":" << e.trace_id << ",\"span_id\":" << e.span_id;
  if (e.parent_span_id != 0) os << ",\"parent_span_id\":" << e.parent_span_id;
}

void write_event_chrome(std::ostream& os, const TraceEvent& e, LaneIds& lanes) {
  os << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"" << e.phase
     << "\",\"ts\":" << fmt_us(e.ts_s);
  if (e.phase == 'X') os << ",\"dur\":" << fmt_us(e.dur_s);
  os << ",\"pid\":" << lanes.pid(e.pid) << ",\"tid\":" << lanes.tid(e.pid, e.tid);
  if (e.phase == 'i') os << ",\"s\":\"t\"";
  write_trace_ids(os, e);
  if (!e.args.empty()) {
    os << ",";
    write_args(os, e.args);
  }
  os << "}";
}

void write_event_jsonl(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"" << e.phase
     << "\",\"ts\":" << fmt_us(e.ts_s);
  if (e.phase == 'X') os << ",\"dur\":" << fmt_us(e.dur_s);
  os << ",\"pid\":\"" << json_escape(e.pid) << "\",\"tid\":\"" << json_escape(e.tid)
     << "\"";
  if (e.phase == 'i') os << ",\"s\":\"t\"";
  write_trace_ids(os, e);
  if (!e.args.empty()) {
    os << ",";
    write_args(os, e.args);
  }
  os << "}";
}

class ReferenceTracer {
 public:
  explicit ReferenceTracer(size_t max_events = 1u << 20, size_t flight_capacity = 256)
      : max_events_(max_events), flight_capacity_(flight_capacity) {}

  void set_clock(const SimClock* clock) { clock_ = clock; }
  double now() const { return clock_ != nullptr ? clock_->now() : 0.0; }
  void set_dropped_counter(Counter* counter) { dropped_counter_ = counter; }
  void set_vehicle_id(std::string vehicle_id);

  TraceContext begin_trace();
  void set_current(TraceContext ctx);
  TraceContext current() const;

  uint32_t span(std::string name, std::string pid, std::string tid, double start_s,
                double dur_s, TraceArgs args = {});
  uint32_t instant(std::string name, std::string pid, std::string tid, double t_s,
                   TraceArgs args = {});
  uint32_t instant_now(std::string name, std::string pid, std::string tid,
                       TraceArgs args = {});

  size_t size() const;
  uint64_t dropped() const;
  void clear();
  void write_chrome_json(std::ostream& os) const;
  void write_jsonl(std::ostream& os) const;
  std::vector<TraceEvent> events() const;
  uint64_t flight_overwritten() const;
  std::vector<TraceEvent> flight_events() const;
  void write_flight_jsonl(std::ostream& os) const;

 private:
  uint32_t record(TraceEvent e);

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  size_t max_events_;
  uint64_t dropped_ = 0;
  const SimClock* clock_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  std::string vehicle_id_;

  TraceContext current_;
  uint32_t next_trace_id_ = 0;
  uint32_t next_span_id_ = 0;

  std::vector<TraceEvent> flight_;
  size_t flight_capacity_;
  size_t flight_head_ = 0;
  uint64_t flight_overwritten_ = 0;
};

void ReferenceTracer::set_vehicle_id(std::string vehicle_id) {
  const std::scoped_lock lock(mutex_);
  vehicle_id_ = std::move(vehicle_id);
}

TraceContext ReferenceTracer::begin_trace() {
  const std::scoped_lock lock(mutex_);
  current_ = TraceContext{++next_trace_id_, 0};
  return current_;
}

void ReferenceTracer::set_current(TraceContext ctx) {
  const std::scoped_lock lock(mutex_);
  current_ = ctx;
}

TraceContext ReferenceTracer::current() const {
  const std::scoped_lock lock(mutex_);
  return current_;
}

uint32_t ReferenceTracer::record(TraceEvent e) {
  const std::scoped_lock lock(mutex_);
  if (current_.trace_id != 0) {
    e.trace_id = current_.trace_id;
    e.span_id = ++next_span_id_;
    e.parent_span_id = current_.span_id;
  }
  if (!vehicle_id_.empty()) e.args.emplace_back("vehicle_id", vehicle_id_);
  const uint32_t assigned = e.span_id;
  if (flight_capacity_ > 0) {
    if (flight_.size() < flight_capacity_) {
      flight_.push_back(e);
    } else {
      flight_[flight_head_] = e;
      ++flight_overwritten_;
    }
    flight_head_ = (flight_head_ + 1) % flight_capacity_;
  }
  if (events_.size() >= max_events_) {
    ++dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->inc();
    return assigned;
  }
  events_.push_back(std::move(e));
  return assigned;
}

uint32_t ReferenceTracer::span(std::string name, std::string pid, std::string tid,
                               double start_s, double dur_s, TraceArgs args) {
  TraceEvent e;
  e.name = std::move(name);
  e.phase = 'X';
  e.ts_s = start_s;
  e.dur_s = dur_s;
  e.pid = std::move(pid);
  e.tid = std::move(tid);
  e.args = std::move(args);
  return record(std::move(e));
}

uint32_t ReferenceTracer::instant(std::string name, std::string pid, std::string tid,
                                  double t_s, TraceArgs args) {
  TraceEvent e;
  e.name = std::move(name);
  e.phase = 'i';
  e.ts_s = t_s;
  e.pid = std::move(pid);
  e.tid = std::move(tid);
  e.args = std::move(args);
  return record(std::move(e));
}

uint32_t ReferenceTracer::instant_now(std::string name, std::string pid, std::string tid,
                                      TraceArgs args) {
  return instant(std::move(name), std::move(pid), std::move(tid), now(),
                 std::move(args));
}

size_t ReferenceTracer::size() const {
  const std::scoped_lock lock(mutex_);
  return events_.size();
}

uint64_t ReferenceTracer::dropped() const {
  const std::scoped_lock lock(mutex_);
  return dropped_;
}

void ReferenceTracer::clear() {
  const std::scoped_lock lock(mutex_);
  events_.clear();
  dropped_ = 0;
  flight_.clear();
  flight_head_ = 0;
  flight_overwritten_ = 0;
  current_ = TraceContext{};
}

std::vector<TraceEvent> ReferenceTracer::events() const {
  const std::scoped_lock lock(mutex_);
  return events_;
}

uint64_t ReferenceTracer::flight_overwritten() const {
  const std::scoped_lock lock(mutex_);
  return flight_overwritten_;
}

std::vector<TraceEvent> ReferenceTracer::flight_events() const {
  const std::scoped_lock lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(flight_.size());
  if (flight_.size() < flight_capacity_) {
    out = flight_;
  } else {
    out.insert(out.end(), flight_.begin() + static_cast<long>(flight_head_),
               flight_.end());
    out.insert(out.end(), flight_.begin(),
               flight_.begin() + static_cast<long>(flight_head_));
  }
  return out;
}

void ReferenceTracer::write_chrome_json(std::ostream& os) const {
  const std::vector<TraceEvent> events = this->events();
  LaneIds lanes;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",\n";
    first = false;
    write_event_chrome(os, e, lanes);
  }
  for (const auto& [name, id] : lanes.pids) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << id
       << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const auto& [key, id] : lanes.tids) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << lanes.pid(key.first)
       << ",\"tid\":" << id << ",\"args\":{\"name\":\"" << json_escape(key.second)
       << "\"}}";
  }
  os << "\n]}\n";
}

void ReferenceTracer::write_jsonl(std::ostream& os) const {
  const std::vector<TraceEvent> events = this->events();
  for (const TraceEvent& e : events) {
    write_event_jsonl(os, e);
    os << "\n";
  }
}

void ReferenceTracer::write_flight_jsonl(std::ostream& os) const {
  const std::vector<TraceEvent> events = this->flight_events();
  for (const TraceEvent& e : events) {
    write_event_jsonl(os, e);
    os << "\n";
  }
}

// --------------------------------------------------------------------------
// Driving both sides.

/// One call's args in both forms: typed for the tracer, std::to_string'd for
/// the reference. The tracer's side holds views, so keys and string values
/// must outlive the recording call (literals and the static pools below).
struct BothArgs {
  std::vector<TraceArg> typed;
  TraceArgs text;

  template <typename T>
  void add(std::string_view key, const T& v) {
    typed.push_back({key, v});
    if constexpr (std::is_arithmetic_v<T>) {
      text.emplace_back(std::string(key), std::to_string(v));
    } else {
      text.emplace_back(std::string(key), std::string(v));
    }
  }
};

// Names, lanes and keys: quotes, backslashes, control characters, strings past
// the small-string buffer, an empty one, and the reserved `vehicle_id` key.
const std::vector<std::string>& words() {
  static const std::vector<std::string> w = {
      "lgv", "edge_gateway", "cloud_server", "localization", "a\"quoted\"name",
      "back\\slash", "new\nline", "tab\tbed", std::string("ctl\x01\x1f", 5),
      "a lane name well past fifteen characters", "", "x", "vehicle_id",
      "node.path_tracking", "{\"json\":1}"};
  return w;
}

// String values: numeric-looking ones (emitted raw) and ones that are not.
const std::vector<std::string>& string_values() {
  static const std::vector<std::string> v = {
      "42", "1e3", "inf", "nan", "-0", "0x1p3", " 7", "7 ", "1", "0", "true",
      "remote", "hello world", "quote\"d", "back\\", "", "a value longer than fifteen"};
  return v;
}

const std::string& pick(Rng& rng, const std::vector<std::string>& from) {
  return from[static_cast<size_t>(rng.uniform_int(0, static_cast<int>(from.size()) - 1))];
}

void add_random_arg(Rng& rng, BothArgs& args) {
  const std::string& key = pick(rng, words());
  const double doubles[] = {0.0, -0.0, -3.25, 1e300, -1e300,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 1e-7, 12345678.5};
  switch (rng.uniform_int(0, 7)) {
    case 0: args.add(key, pick(rng, string_values())); break;
    case 1: args.add(key, pick(rng, string_values()).c_str()); break;
    case 2: args.add(key, doubles[rng.uniform_int(0, 9)]); break;
    case 3: args.add(key, rng.uniform(-1e6, 1e6)); break;
    case 4: args.add(key, static_cast<size_t>(rng.uniform_int(0, 1) ? 0 : SIZE_MAX)); break;
    case 5: args.add(key, rng.uniform_int(-1000000, 1000000)); break;
    case 6: args.add(key, static_cast<uint64_t>(rng.uniform_int(0, 1 << 30)) << 20); break;
    default: args.add(key, static_cast<int64_t>(INT64_MIN) + rng.uniform_int(0, 1)); break;
  }
}

void expect_same_event(const TraceEvent& got, const TraceEvent& want, const char* what,
                       size_t i) {
  SCOPED_TRACE(std::string(what) + " event " + std::to_string(i));
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.phase, want.phase);
  EXPECT_EQ(std::memcmp(&got.ts_s, &want.ts_s, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.dur_s, &want.dur_s, sizeof(double)), 0);
  EXPECT_EQ(got.pid, want.pid);
  EXPECT_EQ(got.tid, want.tid);
  EXPECT_EQ(got.trace_id, want.trace_id);
  EXPECT_EQ(got.span_id, want.span_id);
  EXPECT_EQ(got.parent_span_id, want.parent_span_id);
  EXPECT_EQ(got.args, want.args);
}

void expect_same(const Tracer& tracer, const ReferenceTracer& ref) {
  EXPECT_EQ(tracer.size(), ref.size());
  EXPECT_EQ(tracer.dropped(), ref.dropped());
  EXPECT_EQ(tracer.flight_overwritten(), ref.flight_overwritten());
  std::ostringstream got, want;
  tracer.write_chrome_json(got);
  ref.write_chrome_json(want);
  EXPECT_EQ(got.str(), want.str());
  got.str("");
  want.str("");
  tracer.write_jsonl(got);
  ref.write_jsonl(want);
  EXPECT_EQ(got.str(), want.str());
  got.str("");
  want.str("");
  tracer.write_flight_jsonl(got);
  ref.write_flight_jsonl(want);
  EXPECT_EQ(got.str(), want.str());
  const auto events = tracer.events();
  const auto ref_events = ref.events();
  ASSERT_EQ(events.size(), ref_events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    expect_same_event(events[i], ref_events[i], "main", i);
  }
  const auto flight = tracer.flight_events();
  const auto ref_flight = ref.flight_events();
  ASSERT_EQ(flight.size(), ref_flight.size());
  for (size_t i = 0; i < flight.size(); ++i) {
    expect_same_event(flight[i], ref_flight[i], "flight", i);
  }
}

/// `steps` random calls on both sides: spans, instants (explicit and clock
/// time), args of every kind, traces begun and re-entered, scoped contexts,
/// vehicle ids switched mid-stream, and clear() followed by reuse.
void drive(uint64_t seed, size_t max_events, size_t flight_capacity, int steps) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " max_events " +
               std::to_string(max_events) + " flight " +
               std::to_string(flight_capacity));
  Rng rng(seed);
  SimClock clock;
  Counter dropped, ref_dropped;
  Tracer tracer(max_events, flight_capacity);
  ReferenceTracer ref(max_events, flight_capacity);
  tracer.set_clock(&clock);
  ref.set_clock(&clock);
  tracer.set_dropped_counter(&dropped);
  ref.set_dropped_counter(&ref_dropped);

  for (int step = 0; step < steps; ++step) {
    clock.set(clock.now() + rng.uniform(0.0, 0.01));
    const int op = rng.uniform_int(0, 99);
    if (op < 4) {
      EXPECT_EQ(tracer.begin_trace().trace_id, ref.begin_trace().trace_id);
    } else if (op < 7) {
      const TraceContext ctx{static_cast<uint32_t>(rng.uniform_int(0, 3)),
                             static_cast<uint32_t>(rng.uniform_int(0, 50))};
      tracer.set_current(ctx);
      ref.set_current(ctx);
    } else if (op < 9) {
      const std::string& v = pick(rng, words());
      tracer.set_vehicle_id(v);
      ref.set_vehicle_id(v);
    } else if (op < 10) {
      // Check before clearing, then keep recording into the cleared pair.
      expect_same(tracer, ref);
      tracer.clear();
      ref.clear();
    } else {
      BothArgs args;
      const int n = rng.uniform_int(0, 9) == 0 ? rng.uniform_int(5, 14) : rng.uniform_int(0, 3);
      for (int a = 0; a < n; ++a) add_random_arg(rng, args);
      const std::string& name = pick(rng, words());
      const std::string& pid = pick(rng, words());
      const std::string& tid = pick(rng, words());
      const double ts = rng.uniform(-1.0, 1e4);
      const double dur = rng.uniform(0.0, 2.0);
      // A scoped context around some calls, as the middleware drain does;
      // the reference saves and restores by hand.
      const bool scoped = rng.uniform_int(0, 4) == 0;
      const TraceContext ctx{static_cast<uint32_t>(rng.uniform_int(1, 5)),
                             static_cast<uint32_t>(rng.uniform_int(0, 9))};
      const TraceContext ref_saved = ref.current();
      if (scoped) ref.set_current(ctx);
      uint32_t got = 0, want = 0;
      {
        ScopedTraceContext scope(scoped ? &tracer : nullptr, ctx);
        switch (op % 3) {
          case 0:
            got = tracer.span(name, pid, tid, ts, dur, args.typed);
            want = ref.span(name, pid, tid, ts, dur, args.text);
            break;
          case 1:
            got = tracer.instant(name, pid, tid, ts, args.typed);
            want = ref.instant(name, pid, tid, ts, args.text);
            break;
          default:
            got = tracer.instant_now(name, pid, tid, args.typed);
            want = ref.instant_now(name, pid, tid, args.text);
            break;
        }
      }
      ref.set_current(ref_saved);
      EXPECT_EQ(got, want);
    }
    EXPECT_EQ(tracer.current().trace_id, ref.current().trace_id);
    EXPECT_EQ(tracer.current().span_id, ref.current().span_id);
  }
  expect_same(tracer, ref);
  EXPECT_EQ(dropped.value(), ref_dropped.value());
}

TEST(TracerReference, RandomCallsMatch) {
  for (uint64_t seed = 1; seed <= 4; ++seed) drive(seed, 1u << 20, 256, 1500);
}

TEST(TracerReference, CapCrossedAndRingWrappedMatch) {
  // A cap crossed early, a ring wrapped many times over, both on and off.
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    drive(seed, 40, 7, 1200);
    drive(seed, 0, 3, 300);
    drive(seed, 25, 0, 300);
    drive(seed, 0, 0, 100);
    drive(seed, 5, 1, 300);
  }
}

TEST(TracerReference, EdgeValuesRenderAsToString) {
  SimClock clock;
  clock.set(3.5);
  Tracer tracer(16, 4);
  ReferenceTracer ref(16, 4);
  tracer.set_clock(&clock);
  ref.set_clock(&clock);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  tracer.span("loc", "lgv", "localization", 0.5, 0.25,
              {{"pz", 0.0}, {"nz", -0.0}, {"neg", -2.5}, {"big", 1e300}, {"inf", inf},
               {"ninf", -inf}, {"nan", nan}});
  ref.span("loc", "lgv", "localization", 0.5, 0.25,
           {{"pz", std::to_string(0.0)}, {"nz", std::to_string(-0.0)},
            {"neg", std::to_string(-2.5)}, {"big", std::to_string(1e300)},
            {"inf", std::to_string(inf)}, {"ninf", std::to_string(-inf)},
            {"nan", std::to_string(nan)}});
  const size_t size_max = SIZE_MAX;
  const int threads = 4;
  tracer.instant_now("ints", "p", "t",
                     {{"zero", 0}, {"max", size_max}, {"threads", threads}, {"neg", -7}});
  ref.instant_now("ints", "p", "t",
                  {{"zero", std::to_string(0)}, {"max", std::to_string(size_max)},
                   {"threads", std::to_string(threads)}, {"neg", std::to_string(-7)}});
  tracer.instant("strs", "p", "t", 1.0,
                 {{"n", "42"}, {"e", "1e3"}, {"i", "inf"}, {"one", "1"}, {"zero", "0"},
                  {"s", "hello"}, {"q", "say \"hi\""}});
  ref.instant("strs", "p", "t", 1.0,
              {{"n", "42"}, {"e", "1e3"}, {"i", "inf"}, {"one", "1"}, {"zero", "0"},
               {"s", "hello"}, {"q", "say \"hi\""}});
  tracer.set_vehicle_id("lgv-07");
  ref.set_vehicle_id("lgv-07");
  tracer.instant("after", "p", "t", 2.0);
  ref.instant("after", "p", "t", 2.0);
  expect_same(tracer, ref);
}

TEST(TracerReference, ConcurrentRecordersMatchSortedJsonl) {
  // Four threads record into both tracers; interleavings differ between the
  // two, so compare the sorted lines. Outside a trace no span id depends on
  // the interleaving.
  Tracer tracer;
  ReferenceTracer ref;
  tracer.set_vehicle_id("lgv-3");
  ref.set_vehicle_id("lgv-3");
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &ref, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      const std::string lane = "worker-" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        BothArgs args;
        args.add("i", i);
        for (int a = rng.uniform_int(0, 3); a > 0; --a) add_random_arg(rng, args);
        const std::string& name = pick(rng, words());
        tracer.span(name, "cloud_server", lane, i * 1e-3, 1e-4, args.typed);
        ref.span(name, "cloud_server", lane, i * 1e-3, 1e-4, args.text);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto sorted_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  std::ostringstream got, want;
  tracer.write_jsonl(got);
  ref.write_jsonl(want);
  EXPECT_EQ(tracer.size(), static_cast<size_t>(kThreads) * kIters);
  EXPECT_EQ(tracer.size(), ref.size());
  EXPECT_EQ(sorted_lines(got.str()), sorted_lines(want.str()));
  EXPECT_EQ(tracer.flight_events().size(), ref.flight_events().size());
  EXPECT_EQ(tracer.flight_overwritten(), ref.flight_overwritten());
}

}  // namespace
}  // namespace lgv::telemetry
