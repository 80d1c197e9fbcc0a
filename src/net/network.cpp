#include "net/network.hpp"

#include <algorithm>

#include "common/check.hpp"

#include "net/faults.hpp"

namespace alpu::hw::testing {
std::atomic<bool> inject_lookahead_violation{false};
}  // namespace alpu::hw::testing

namespace alpu::net {

Network::Network(sim::Engine& engine, const NetworkConfig& config)
    : sim::Component(engine, "network"), config_(config) {}

Network::~Network() = default;

Network::PerNode& Network::node_state(NodeId node) {
  if (nodes_.size() <= node) {
    ALPU_ASSERT(shards_ == nullptr,
                "all nodes must attach before enable_sharding");
    nodes_.resize(node + 1);
  }
  return nodes_[node];
}

void Network::attach(NodeId node, sim::Engine& node_engine,
                     DeliveryHandler handler) {
  PerNode& state = node_state(node);
  ALPU_ASSERT(!state.handler, "node already attached");
  state.engine = &node_engine;
  state.handler = std::move(handler);
}

void Network::install_faults(const FaultConfig& config) {
  ALPU_ASSERT(!faults_, "fault injector already installed");
  faults_ = std::make_unique<FaultInjector>(config);
}

void Network::enable_sharding(sim::ShardGroup& group,
                              std::vector<unsigned> shard_of) {
  ALPU_ASSERT(shards_ == nullptr, "sharding already enabled");
  ALPU_ASSERT(group.parallel(), "a 1-shard group runs the legacy direct path");
  ALPU_ASSERT(shard_of.size() >= nodes_.size(),
              "every attached node needs a shard assignment");
  shards_ = &group;
  shard_of_ = std::move(shard_of);
  // Pre-size the per-sender partition: no vector growth can happen once
  // worker threads send concurrently.
  if (nodes_.size() < shard_of_.size()) nodes_.resize(shard_of_.size());
  for (PerNode& n : nodes_) n.links.reserve(nodes_.size());
  if (faults_ != nullptr) faults_->reserve_nodes(nodes_.size());
}

void Network::set_wire_latency(NodeId src, NodeId dst, TimePs latency) {
  // lint: ok(unbounded-peer-growth) — setup-time topology API driven by
  // the local configuration, not by packet arrivals.
  wire_latency_override_[{src, dst}] = latency;
  // Write through to a link that already resolved its latency, so late
  // (post-first-send) overrides behave exactly as before the fold.
  if (src < nodes_.size()) {
    if (LinkState* link = nodes_[src].links.find(dst)) {
      link->wire_latency = latency;
    }
  }
}

TimePs Network::wire_latency(NodeId src, NodeId dst) const {
  const auto it = wire_latency_override_.find({src, dst});
  return it == wire_latency_override_.end() ? config_.wire_latency
                                            : it->second;
}

TimePs Network::min_lookahead() const {
  TimePs min_wire = config_.wire_latency;
  for (const auto& [link, latency] : wire_latency_override_) {
    min_wire = std::min(min_wire, latency);
  }
  return min_wire + config_.header_bytes * config_.ps_per_byte;
}

const NetworkStats& Network::stats() const {
  aggregated_stats_ = {};
  for (const PerNode& n : nodes_) {
    aggregated_stats_.packets += n.stats.packets;
    aggregated_stats_.payload_bytes += n.stats.payload_bytes;
    aggregated_stats_.busiest_link_busy = std::max(
        aggregated_stats_.busiest_link_busy, n.stats.busiest_link_busy);
    aggregated_stats_.faults_dropped += n.stats.faults_dropped;
    aggregated_stats_.faults_duplicated += n.stats.faults_duplicated;
    aggregated_stats_.faults_reordered += n.stats.faults_reordered;
    aggregated_stats_.faults_corrupted += n.stats.faults_corrupted;
  }
  return aggregated_stats_;
}

void Network::schedule_delivery(const Packet& packet, TimePs when,
                                TimePs sent_at) {
  // Capture {this, packet} (64 bytes: inline in EventCallback) rather
  // than a PerNode reference — nodes_ may still grow in single-engine
  // unit-test setups.
  if (shards_ == nullptr) {
    nodes_[packet.dst].engine->schedule_at(
        when, [this, packet] { nodes_[packet.dst].handler(packet); });
    return;
  }
  // Parallel mode: EVERY delivery — including one whose destination
  // happens to share the sender's shard — goes through the window
  // barrier.  That keeps the set of events an engine schedules (and so
  // its sequence numbers and same-timestamp tie order) independent of
  // the partition, which is what makes 2-shard and 8-shard runs
  // byte-identical.  Safe because `when` >= sent_at + min_lookahead()
  // >= the current window's end.
  PerNode& src = nodes_[packet.src];
  sim::CrossKey key;
  key.when = when;
  key.sent_at = sent_at;
  key.src_node = packet.src;
  key.src_seq = src.departure_seq++;
  // Seeded causality bug (the auditor's must-fail test): deliver one true
  // cross-shard packet at its send time — zero wire latency — violating
  // the conservative lookahead contract the window protocol depends on.
  // The auditor catches it at the merge barrier before the destination
  // engine ever sees it.
  if (shard_of_[packet.src] != shard_of_[packet.dst] &&
      hw::testing::inject_lookahead_violation.load(
          std::memory_order_relaxed) &&
      hw::testing::inject_lookahead_violation.exchange(
          false, std::memory_order_relaxed)) {
    key.when = key.sent_at;
  }
  shards_->post(shard_of_[packet.src], shard_of_[packet.dst], key,
                [this, packet] { nodes_[packet.dst].handler(packet); });
}

void Network::send(Packet packet) {
  ALPU_ASSERT(packet.dst < nodes_.size() && nodes_[packet.dst].handler,
              "destination not attached");
  PerNode& src = node_state(packet.src);
  // Sends happen inside the sending node's events, so in sharded mode
  // this is the sender's shard clock; in the single-engine machine it is
  // the one global clock (src.engine is null for never-attached senders
  // in unit tests — fall back to the component engine, identical there).
  const TimePs now =
      src.engine != nullptr ? src.engine->now() : engine().now();
  packet.injected_at = now;
  ++src.stats.packets;
  src.stats.payload_bytes += packet.payload_bytes;

  // Serialise header + payload onto the (src, dst) link; the link frees
  // up when the last byte leaves, and delivery happens one wire latency
  // after that.  Taking max(now, link_free) keeps per-link packets in
  // order — a later send can never be delivered before an earlier one.
  const std::uint64_t bytes = config_.header_bytes + packet.payload_bytes;
  const TimePs serialise = bytes * config_.ps_per_byte;
  LinkState& link = src.links[packet.dst];
  if (link.wire_latency == kLatencyUnresolved) {
    // First packet on this link: resolve the override once.  Every
    // later send is a single indexed load instead of a tree probe.
    link.wire_latency = wire_latency(packet.src, packet.dst);
  }
  const TimePs start = std::max(now, link.free_at);
  link.free_at = start + serialise;
  src.stats.busiest_link_busy =
      std::max(src.stats.busiest_link_busy, link.free_at);
  const TimePs deliver_at = link.free_at + link.wire_latency;

  if (faults_ == nullptr) {
    schedule_delivery(packet, deliver_at, now);
    return;
  }

  // Fault-injected path.  The packet consumed its link slot above
  // regardless of fate (the wire carried the bytes; only delivery is in
  // question), so the fault-free traffic schedule is unperturbed.
  const FaultDecision d = faults_->decide(packet);
  if (d.corrupt) {
    packet.crc_ok = false;
    ++src.stats.faults_corrupted;
  }
  if (d.duplicate) {
    // The copy tail-gates the original by one header serialisation time
    // (a link-layer replay, not a second injection: it does not occupy
    // the sender's injection port again).
    ++src.stats.faults_duplicated;
    const TimePs copy_at =
        deliver_at + config_.header_bytes * config_.ps_per_byte;
    schedule_delivery(packet, copy_at, now);
  }
  if (d.drop) {
    ++src.stats.faults_dropped;
    return;  // the original never arrives (a duplicate may still)
  }
  TimePs at = deliver_at;
  if (d.extra_delay > 0) {
    // Reordering: this packet is held in the switch while later traffic
    // on the same link overtakes it.
    ++src.stats.faults_reordered;
    at += d.extra_delay;
  }
  schedule_delivery(packet, at, now);
}

}  // namespace alpu::net
