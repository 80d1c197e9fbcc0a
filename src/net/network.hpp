// Point-to-point network model.
//
// The paper's simulator uses "a simple network" with a 200 ns wire
// latency (Table III).  This model delivers packets between nodes with
// (a) per-link serialisation at a configured bandwidth, and (b) a fixed
// wire latency — and guarantees in-order delivery per (source,
// destination) pair, the property MPI's ordering semantics build on.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/dense.hpp"
#include "common/time.hpp"
#include "match/match.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace alpu::hw::testing {
/// Fault-seeding hook for the determinism auditor's must-fail test:
/// when set, the next cross-shard delivery is posted one lookahead too
/// early — exactly the causality bug the conservative window protocol
/// exists to prevent.  The auditor must catch it at the merge barrier
/// with a provenance-chain report.  Same pattern as
/// `inject_compaction_off_by_one` (alpu/array.hpp).  Self-clearing.
extern std::atomic<bool> inject_lookahead_violation;
}  // namespace alpu::hw::testing

namespace alpu::net {

using common::TimePs;

/// Node address within the simulated machine.
using NodeId = std::uint32_t;

/// Protocol discriminator for packets (interpreted by the NIC firmware).
enum class PacketKind : std::uint8_t {
  kEager,     ///< header + full payload
  kRtsRendezvous,  ///< rendezvous request-to-send (header only)
  kCtsRendezvous,  ///< clear-to-send reply carrying the sender's token
  kRendezvousData, ///< the bulk payload after a CTS
  kAck,       ///< reliability-sublayer cumulative acknowledgement
  /// Receiver-not-ready NACK: the receiver's eager-resource budget is
  /// exhausted, the packet at `ack_seq` was refused, and the sender
  /// should back off for ~`rnr_hint_us` before retrying (the InfiniBand
  /// RNR-NAK discipline).  Carries a credit advertisement like kAck.
  kRnrNack,
};

/// One packet on the wire.  The header models the fixed-size envelope a
/// real NIC would parse; `payload_bytes` drives serialisation time only
/// (contents are not simulated).
///
/// Field order packs the struct into 56 bytes so the network delivery
/// capture (`this` + one Packet, 64 bytes) stays within EventCallback's
/// inline buffer — no per-event heap allocation on the hot path.
struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  PacketKind kind = PacketKind::kEager;
  /// Sequenced by the reliability sublayer (false for raw/ACK traffic).
  bool reliable = false;
  /// Modeled link CRC: cleared by an injected corruption fault.  The
  /// receiving NIC checks it before parsing anything else.
  bool crc_ok = true;
  std::uint32_t payload_bytes = 0;
  match::MatchWord match_bits = 0;  ///< packed {context, source, tag}
  /// Per-(src,dst) sequence number (valid when `reliable`).  32 bits
  /// wrap only after 4G packets on one link — beyond any workload here.
  std::uint32_t seq = 0;
  /// Cumulative acknowledgement: next sequence number the receiver
  /// expects from this packet's sender (kAck/kRnrNack packets only).
  std::uint32_t ack_seq = 0;
  /// Credit advertisement (kAck/kRnrNack from a budget-limited
  /// receiver): free eager-pool bytes, saturated to 32 bits.  Zero on
  /// every packet when the receiver's budget is unlimited, so enabling
  /// the fields alone changes no bytes on the wire.
  std::uint32_t credit_bytes = 0;
  /// Free unexpected-queue slots, saturated to 16 bits.
  std::uint16_t credit_slots = 0;
  /// RNR retry hint in microseconds (kRnrNack only): the receiver's
  /// suggested base backoff before the refused window is re-offered.
  std::uint16_t rnr_hint_us = 0;
  std::uint64_t token = 0;   ///< protocol token (pairs RTS/CTS/DATA legs)
  TimePs injected_at = 0;    ///< stamped by the network at send time
};

struct NetworkConfig {
  TimePs wire_latency = 200'000;  ///< 200 ns (Table III)
  /// Serialisation cost per byte; 500 ps/B == 2 GB/s links.
  TimePs ps_per_byte = 500;
  /// Fixed per-packet header serialisation (the envelope itself).
  std::uint32_t header_bytes = 32;
};

struct NetworkStats {
  std::uint64_t packets = 0;
  std::uint64_t payload_bytes = 0;
  TimePs busiest_link_busy = 0;
  // Injected-fault counters (all zero without an installed injector).
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_reordered = 0;
  std::uint64_t faults_corrupted = 0;
};

struct FaultConfig;
class FaultInjector;

/// The machine-wide interconnect.
///
/// Sharded (parallel-DES) operation: Network is also the shard boundary.
/// After `enable_sharding`, all per-send mutable state (link horizons,
/// stats, the fault injector's per-link RNG streams) is partitioned by
/// the SENDING node, so concurrent sends from different shards never
/// touch the same state, and every delivery is posted to the ShardGroup
/// outbox (scheduled at the next window barrier in canonical order)
/// instead of directly onto an engine.  The wire latency plus the
/// header serialisation floor is the conservative lookahead that makes
/// the window protocol safe — see `min_lookahead()`.
class Network : public sim::Component {
 public:
  // lint: ok(std-function-hot-path) — set once per node at attach();
  // only invocation (no construction) happens per packet.
  using DeliveryHandler = std::function<void(const Packet&)>;

  Network(sim::Engine& engine, const NetworkConfig& config);
  ~Network() override;  // out-of-line: FaultInjector is incomplete here

  /// Register the receive handler for `node` (its NIC's Rx path),
  /// running on `node_engine` (the node's shard; the Network's own
  /// engine in the single-shard machine).
  void attach(NodeId node, sim::Engine& node_engine, DeliveryHandler handler);

  /// Single-engine convenience: attach with the Network's own engine.
  void attach(NodeId node, DeliveryHandler handler) {
    attach(node, engine(), std::move(handler));
  }

  /// Install a fault injector (src/net/faults.hpp) interposed on every
  /// send.  Without one the network is the original lossless in-order
  /// model with an unchanged delivery schedule.
  void install_faults(const FaultConfig& config);

  /// Route every delivery through `group`'s window barriers (parallel
  /// mode).  `shard_of[n]` maps node n to its shard index.  Call after
  /// all nodes have attached and before the first send.
  void enable_sharding(sim::ShardGroup& group, std::vector<unsigned> shard_of);

  /// Inject a packet at the current simulation time.  Delivery fires the
  /// destination handler after serialisation + wire latency, in order
  /// with all other packets on the same (src, dst) link — unless an
  /// installed fault injector drops, duplicates, delays or corrupts it.
  void send(Packet packet);

  /// Override the wire latency of one directed link (heterogeneous
  /// topologies).  Must be set before the first send; in sharded mode it
  /// feeds min_lookahead(), so a slower link never tightens the windows
  /// and a faster one is accounted for.
  void set_wire_latency(NodeId src, NodeId dst, TimePs latency);

  /// Effective wire latency of one directed link.
  TimePs wire_latency(NodeId src, NodeId dst) const;

  /// Conservative lookahead bound: no send issued at time t is ever
  /// delivered (anywhere) before t + min_lookahead().  Derivation: every
  /// packet serialises at least `header_bytes` before the wire, so
  /// delivery >= t + header_bytes * ps_per_byte + min over links of the
  /// wire latency.  Strictly positive for any physical configuration.
  TimePs min_lookahead() const;

  const NetworkConfig& config() const { return config_; }
  /// Machine-wide counters (aggregated over the per-sender partitions).
  const NetworkStats& stats() const;
  const FaultInjector* faults() const { return faults_.get(); }

 private:
  /// Latency sentinel: the link has not resolved its override yet.
  static constexpr TimePs kLatencyUnresolved = ~TimePs{0};

  /// Hot per-directed-link state, one cache line row per destination in
  /// the sender's dense table.  `wire_latency` folds the per-link
  /// override lookup (formerly a std::map probe on EVERY send) into
  /// state resolved once, on the link's first packet.
  struct LinkState {
    /// Serialisation horizon: when this injection port frees up.
    TimePs free_at = 0;
    TimePs wire_latency = kLatencyUnresolved;
  };

  /// All mutable per-send state, partitioned by sending node: inside a
  /// window only the sender's shard thread touches its entry.
  struct PerNode {
    sim::Engine* engine = nullptr;  ///< set by attach()
    DeliveryHandler handler;
    /// Per-destination link state, indexed by NodeId (dense: the machine
    /// fixes the node count).  Grows only on a link's first use, and
    /// only in the owning sender's thread.
    common::DenseNodeTable<LinkState> links;
    /// Monotone per-sender counter stamped on posted deliveries — the
    /// partition-stable tie-break of the canonical merge key.
    std::uint64_t departure_seq = 0;
    NetworkStats stats;
  };

  PerNode& node_state(NodeId node);
  /// Schedule one delivery at `when` (sent at `sent_at` by `src`):
  /// directly on the destination's engine in single-engine mode, via the
  /// ShardGroup outbox in sharded mode.
  void schedule_delivery(const Packet& packet, TimePs when, TimePs sent_at);

  NetworkConfig config_;
  std::vector<PerNode> nodes_;
  /// Per-directed-link wire-latency overrides (config_.wire_latency
  /// otherwise).  Written only during setup; the configuration source
  /// of truth for min_lookahead().  The hot path never probes it —
  /// send() reads the copy resolved into LinkState on first use.
  std::map<std::pair<NodeId, NodeId>, TimePs> wire_latency_override_;
  std::unique_ptr<FaultInjector> faults_;
  sim::ShardGroup* shards_ = nullptr;
  std::vector<unsigned> shard_of_;
  mutable NetworkStats aggregated_stats_;
};

}  // namespace alpu::net
