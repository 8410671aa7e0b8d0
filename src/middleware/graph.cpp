#include "middleware/graph.h"

#include <stdexcept>

namespace lgv::mw {

void Graph::register_node(const NodeName& node, Host host) { hosts_[node] = host; }

Host Graph::host_of(const NodeName& node) const {
  const auto it = hosts_.find(node);
  if (it == hosts_.end()) throw std::invalid_argument("unknown node: " + node);
  return it->second;
}

void Graph::set_host(const NodeName& node, Host host) {
  if (!has_node(node)) throw std::invalid_argument("unknown node: " + node);
  hosts_[node] = host;
}

std::vector<NodeName> Graph::nodes() const {
  std::vector<NodeName> out;
  out.reserve(hosts_.size());
  for (const auto& [name, host] : hosts_) out.push_back(name);
  return out;
}

void Graph::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry != nullptr && telemetry->enabled() ? telemetry : nullptr;
  for (auto& [name, rec] : topics_) rec.telemetry = detail::TopicTelemetry{};
}

telemetry::Telemetry* Graph::topic_telemetry(detail::TopicRec& rec) {
  if (telemetry_ == nullptr) return nullptr;
  if (!rec.telemetry.wired) {
    const telemetry::Labels labels = {{"topic", rec.name}};
    auto& m = telemetry_->metrics();
    rec.telemetry.published = &m.counter("mw_published_total", labels);
    rec.telemetry.delivered = &m.counter("mw_delivered_total", labels);
    rec.telemetry.dropped = &m.counter("mw_dropped_total", labels);
    rec.telemetry.sent_remote = &m.counter("mw_sent_remote_total", labels);
    rec.telemetry.payload_copies = &m.counter("mw_payload_copies_total", labels);
    rec.telemetry.zero_copy = &m.counter("mw_zero_copy_total", labels);
    rec.telemetry.queue_depth = &m.gauge("mw_queue_depth", labels);
    rec.telemetry.message_bytes = &m.histogram(
        "mw_message_bytes", labels,
        {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576});
    rec.telemetry.wired = true;
  }
  return telemetry_;
}

void Graph::enqueue(detail::TopicRec& rec, detail::SubscriptionRec& sub,
                    const detail::ErasedMessage& msg) {
  if (sub.queue.size() >= sub.max_queue) {
    // Bounded queue, freshest wins: drop the oldest (ROS queue_size semantics).
    sub.queue.pop_front();
    ++sub.dropped;
    ++rec.stats.dropped_queue;
    if (telemetry::Telemetry* t = topic_telemetry(rec)) {
      rec.telemetry.dropped->inc();
      t->tracer().instant_now("mw.drop", "middleware", rec.name,
                              {{"subscriber", sub.subscriber}});
    }
  }
  telemetry::TraceContext ctx;
  if (telemetry_ != nullptr) ctx = telemetry_->tracer().current();
  sub.queue.push_back(detail::QueuedMessage{msg, ctx});
  if (topic_telemetry(rec) != nullptr) {
    rec.telemetry.queue_depth->set(static_cast<double>(sub.queue.size()));
  }
}

void Graph::dispatch(detail::TopicRec& rec, const NodeName& publisher,
                     const detail::ErasedMessage& msg) {
  const Host src = host_of(publisher);
  // Lazy serialization: bytes exist only once something needs them — a
  // remote hop, or the size histogram when telemetry is wired. A local-only
  // publish on a quiet topic costs no encoding at all; subscribers share the
  // publisher's immutable payload.
  std::vector<uint8_t> bytes;
  bool have_bytes = false;
  const auto ensure_bytes = [&]() -> const std::vector<uint8_t>& {
    if (!have_bytes) {
      bytes = rec.serialize(msg.get());
      have_bytes = true;
      rec.last_bytes = bytes.size();
      rec.last_bytes_valid = true;
    }
    return bytes;
  };
  if (telemetry::Telemetry* t = topic_telemetry(rec)) {
    rec.telemetry.published->inc();
    rec.telemetry.message_bytes->observe(static_cast<double>(ensure_bytes().size()));
    t->tracer().instant_now("mw.publish", platform::host_name(src), rec.name,
                            {{"publisher", publisher},
                             {"bytes", bytes.size()}});
  }
  for (auto& sub : rec.subs) {
    const Host dst = host_of(sub->subscriber);
    if (dst == src || transport_ == nullptr) {
      enqueue(rec, *sub, msg);
      ++rec.stats.delivered_local;
    } else {
      ++rec.stats.sent_remote;
      if (topic_telemetry(rec) != nullptr) rec.telemetry.sent_remote->inc();
      transport_->send(rec.name, sub->subscriber, src, dst, ensure_bytes());
    }
  }
}

void Graph::deliver_serialized(const TopicName& topic, const NodeName& dst,
                               const std::vector<uint8_t>& bytes) {
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return;
  detail::TopicRec& rec = it->second;
  // No remote byte stream is trusted to decode: the Switcher's CRC keeps the
  // channel honest, but version skew or a schema bug on the far host still
  // produces well-checksummed garbage. That is a counted drop, never a crash
  // of the mission loop.
  detail::ErasedMessage msg;
  try {
    msg = rec.deserialize(bytes);
  } catch (const std::exception&) {
    ++rec.stats.decode_failures;
    if (topic_telemetry(rec) != nullptr) {
      telemetry_->metrics()
          .counter("mw_decode_failures_total", {{"topic", rec.name}})
          .inc();
    }
    return;
  }
  for (auto& sub : rec.subs) {
    if (sub->subscriber == dst) {
      enqueue(rec, *sub, msg);
      return;
    }
  }
}

size_t Graph::spin() {
  size_t invoked = 0;
  // Two-phase drain so that callbacks publishing new messages don't recurse
  // into queues we're iterating.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& [name, rec] : topics_) {
      for (auto& sub : rec.subs) {
        while (!sub->queue.empty()) {
          detail::QueuedMessage qm = std::move(sub->queue.front());
          sub->queue.pop_front();
          ++sub->received;
          {
            // The callback runs under the publisher's context so everything
            // it records (node spans, republications) stitches causally.
            telemetry::ScopedTraceContext scope(
                telemetry_ != nullptr ? &telemetry_->tracer() : nullptr, qm.ctx);
            if (telemetry::Telemetry* t = topic_telemetry(rec)) {
              rec.telemetry.delivered->inc();
              t->tracer().instant_now("mw.deliver",
                                      platform::host_name(host_of(sub->subscriber)),
                                      rec.name, {{"subscriber", sub->subscriber}});
            }
            sub->callback(qm.msg);
          }
          ++invoked;
          progressed = true;
        }
      }
    }
  }
  return invoked;
}

std::optional<Host> Graph::service_host(const std::string& service) const {
  const auto it = services_.find(service);
  if (it == services_.end()) return std::nullopt;
  return host_of(it->second.first);
}

const TopicStats* Graph::topic_stats(const TopicName& topic) const {
  const auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : &it->second.stats;
}

std::vector<SubscriptionStats> Graph::subscription_stats(const TopicName& topic) const {
  std::vector<SubscriptionStats> out;
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return out;
  out.reserve(it->second.subs.size());
  for (const auto& sub : it->second.subs) {
    SubscriptionStats s;
    s.subscriber = sub->subscriber;
    s.received = sub->received;
    s.dropped = sub->dropped;
    s.queue_depth = sub->queue.size();
    s.max_queue = sub->max_queue;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<TopicName> Graph::topics() const {
  std::vector<TopicName> out;
  out.reserve(topics_.size());
  for (const auto& [name, rec] : topics_) out.push_back(name);
  return out;
}

size_t Graph::last_message_bytes(const TopicName& topic) const {
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return 0;
  const detail::TopicRec& rec = it->second;
  if (!rec.last_bytes_valid) {
    if (rec.last_msg == nullptr) return 0;
    // Serialize on demand: the publish path skipped encoding because nothing
    // needed the bytes at the time.
    rec.last_bytes = rec.serialize(rec.last_msg.get()).size();
    rec.last_bytes_valid = true;
  }
  return rec.last_bytes;
}

}  // namespace lgv::mw
