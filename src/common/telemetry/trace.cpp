#include "common/telemetry/trace.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <ostream>

#include "common/telemetry/json_util.h"

namespace lgv::telemetry {

namespace {

/// Microsecond timestamp with fixed 3-decimal precision: deterministic and
/// fine enough for sub-µs virtual durations.
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

/// Stable pid/tid numbering: lanes are numbered in first-appearance order so
/// the output only depends on the event sequence.
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

/// Causal identity fields, present only when the event was recorded inside a
/// trace — untraced output stays byte-identical to the pre-context schema.
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
  if (e.phase == 'i') os << ",\"s\":\"t\"";  // instant scoped to its thread lane
  write_trace_ids(os, e);
  if (!e.args.empty()) {
    os << ",";
    write_args(os, e.args);
  }
  os << "}";
}

/// JSONL keeps pid/tid as the host / node name strings: jq filters and the
/// critical-path analyzer classify spans by lane name, not lane number.
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

}  // namespace

void Tracer::set_vehicle_id(std::string_view vehicle_id) {
  const std::scoped_lock lock(mutex_);
  vehicle_ = vehicle_id.empty() ? kNoVehicle : intern(vehicle_id);
}

TraceContext Tracer::begin_trace() {
  const std::scoped_lock lock(mutex_);
  current_ = TraceContext{++next_trace_id_, 0};
  return current_;
}

void Tracer::set_current(TraceContext ctx) {
  const std::scoped_lock lock(mutex_);
  current_ = ctx;
}

TraceContext Tracer::current() const {
  const std::scoped_lock lock(mutex_);
  return current_;
}

uint32_t Tracer::intern(std::string_view s) {
  const auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(strings_.size());
  strings_.push_back(&ids_.emplace(std::string(s), id).first->first);
  return id;
}

Tracer::Arg Tracer::encode(const TraceArg& a) {
  Arg out;
  out.key = intern(a.key);
  out.kind = a.value.kind();
  switch (out.kind) {
    case TraceValue::Kind::kString: out.str = intern(a.value.str()); break;
    case TraceValue::Kind::kDouble: out.f64 = a.value.f64(); break;
    case TraceValue::Kind::kInt: out.i64 = a.value.i64(); break;
    case TraceValue::Kind::kUint: out.u64 = a.value.u64(); break;
  }
  return out;
}

uint32_t Tracer::reserve_flight_args(uint32_t n) {
  // The args that must survive this push start at the oldest record that
  // stays in the ring: slot 0 while it fills, then the one after the slot
  // about to be overwritten.
  uint32_t live_begin = flight_args_end_;
  if (flight_.size() < flight_capacity_) {
    if (!flight_.empty()) live_begin = flight_[0].first_arg;
  } else if (flight_capacity_ > 1) {
    live_begin = flight_[(flight_head_ + 1) % flight_capacity_].first_arg;
  }
  const uint32_t live = flight_args_end_ - live_begin;
  if (live + n > flight_args_.size()) {
    size_t size = std::max<size_t>(16, flight_args_.size());
    while (size < live + n) size *= 2;
    std::vector<Arg> grown(size);
    for (uint32_t p = live_begin; p != flight_args_end_; ++p) {
      grown[p & (size - 1)] = flight_args_[p & (flight_args_.size() - 1)];
    }
    flight_args_.swap(grown);
  }
  const uint32_t first = flight_args_end_;
  flight_args_end_ += n;
  return first;
}

uint32_t Tracer::record(char phase, std::string_view name, std::string_view pid,
                        std::string_view tid, double ts_s, double dur_s,
                        TraceArgList args) {
  const std::scoped_lock lock(mutex_);
  Record r{};
  r.phase = phase;
  r.ts_s = ts_s;
  r.dur_s = dur_s;
  if (current_.trace_id != 0) {
    r.trace_id = current_.trace_id;
    r.span_id = ++next_span_id_;
    r.parent_span_id = current_.span_id;
  }
  const bool keep = records_.size() < max_events_;
  if (!keep) {
    ++dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->inc();
  }
  const bool fly = flight_capacity_ > 0;
  if (!keep && !fly) return r.span_id;

  r.name = intern(name);
  r.pid = intern(pid);
  r.tid = intern(tid);
  r.arg_count = static_cast<uint32_t>(args.size());
  r.vehicle = vehicle_;
  const auto main_first = static_cast<uint32_t>(args_.size());
  const uint32_t flight_first = fly ? reserve_flight_args(r.arg_count) : 0;
  uint32_t i = 0;
  for (const TraceArg& a : args) {
    const Arg enc = encode(a);
    if (keep) args_.push_back(enc);
    if (fly) flight_args_[(flight_first + i++) & (flight_args_.size() - 1)] = enc;
  }
  if (keep) {
    r.first_arg = main_first;
    records_.push_back(r);
  }
  if (fly) {
    r.first_arg = flight_first;
    if (flight_.size() < flight_capacity_) {
      flight_.push_back(r);
    } else {
      flight_[flight_head_] = r;
      ++flight_overwritten_;
    }
    flight_head_ = (flight_head_ + 1) % flight_capacity_;
  }
  return r.span_id;
}

uint32_t Tracer::span(std::string_view name, std::string_view pid, std::string_view tid,
                      double start_s, double dur_s, TraceArgList args) {
  return record('X', name, pid, tid, start_s, dur_s, args);
}

uint32_t Tracer::instant(std::string_view name, std::string_view pid,
                         std::string_view tid, double t_s, TraceArgList args) {
  return record('i', name, pid, tid, t_s, 0.0, args);
}

uint32_t Tracer::instant_now(std::string_view name, std::string_view pid,
                             std::string_view tid, TraceArgList args) {
  return instant(name, pid, tid, now(), args);
}

size_t Tracer::size() const {
  const std::scoped_lock lock(mutex_);
  return records_.size();
}

uint64_t Tracer::dropped() const {
  const std::scoped_lock lock(mutex_);
  return dropped_;
}

void Tracer::clear() {
  const std::scoped_lock lock(mutex_);
  records_.clear();
  args_.clear();
  dropped_ = 0;
  flight_.clear();
  flight_head_ = 0;
  flight_overwritten_ = 0;
  flight_args_end_ = 0;
  current_ = TraceContext{};
}

template <typename ArgAt>
TraceEvent Tracer::materialize(const Record& r, ArgAt arg_at) const {
  TraceEvent e;
  e.name = *strings_[r.name];
  e.phase = r.phase;
  e.ts_s = r.ts_s;
  e.dur_s = r.dur_s;
  e.pid = *strings_[r.pid];
  e.tid = *strings_[r.tid];
  e.trace_id = r.trace_id;
  e.span_id = r.span_id;
  e.parent_span_id = r.parent_span_id;
  e.args.reserve(r.arg_count + (r.vehicle != kNoVehicle ? 1 : 0));
  for (uint32_t j = 0; j < r.arg_count; ++j) {
    const Arg& a = arg_at(r.first_arg + j);
    // The text std::to_string gave the call site's value.
    std::string value;
    switch (a.kind) {
      case TraceValue::Kind::kString: value = *strings_[a.str]; break;
      case TraceValue::Kind::kDouble: value = std::to_string(a.f64); break;
      case TraceValue::Kind::kInt: value = std::to_string(a.i64); break;
      case TraceValue::Kind::kUint: value = std::to_string(a.u64); break;
    }
    e.args.emplace_back(*strings_[a.key], std::move(value));
  }
  if (r.vehicle != kNoVehicle) e.args.emplace_back("vehicle_id", *strings_[r.vehicle]);
  return e;
}

TraceEvent Tracer::event_at(size_t i) const {
  return materialize(records_[i], [this](uint32_t j) -> const Arg& { return args_[j]; });
}

TraceEvent Tracer::flight_event_at(size_t i) const {
  // Once the ring is full the oldest entry sits at the next overwrite slot.
  const size_t slot =
      flight_.size() < flight_capacity_ ? i : (flight_head_ + i) % flight_capacity_;
  return materialize(flight_[slot], [this](uint32_t p) -> const Arg& {
    return flight_args_[p & (flight_args_.size() - 1)];
  });
}

std::vector<TraceEvent> Tracer::events() const {
  const std::scoped_lock lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) out.push_back(event_at(i));
  return out;
}

uint64_t Tracer::flight_overwritten() const {
  const std::scoped_lock lock(mutex_);
  return flight_overwritten_;
}

std::vector<TraceEvent> Tracer::flight_events() const {
  const std::scoped_lock lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(flight_.size());
  for (size_t i = 0; i < flight_.size(); ++i) out.push_back(flight_event_at(i));
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const std::scoped_lock lock(mutex_);
  LaneIds lanes;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (!first) os << ",\n";
    first = false;
    write_event_chrome(os, event_at(i), lanes);
  }
  // Metadata events name the numeric lanes after their host / node strings.
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

void Tracer::write_jsonl(std::ostream& os) const {
  const std::scoped_lock lock(mutex_);
  for (size_t i = 0; i < records_.size(); ++i) {
    write_event_jsonl(os, event_at(i));
    os << "\n";
  }
}

void Tracer::write_flight_jsonl(std::ostream& os) const {
  const std::scoped_lock lock(mutex_);
  for (size_t i = 0; i < flight_.size(); ++i) {
    write_event_jsonl(os, flight_event_at(i));
    os << "\n";
  }
}

}  // namespace lgv::telemetry
