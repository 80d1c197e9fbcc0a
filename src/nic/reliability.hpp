// NIC link-reliability sublayer (go-back-N over the modelled network).
//
// The MPI layers above assume what the lossless network model used to
// guarantee: every packet arrives, exactly once, in per-link order.
// With fault injection (src/net/faults.hpp) that guarantee moves here,
// the way real NIC-resident engines do it (APEnet+ embeds link-level
// retransmission in its torus NIC; Yu et al. layer reliability under
// their NIC collective protocol):
//
//   * sender side: per-(src,dst) sequence numbers, a retransmit window
//     of unacknowledged packets, and a timeout with exponential backoff
//     that go-back-N retransmits the whole window.  After `max_retries`
//     consecutive timeouts without progress, the link is declared
//     failed — the window is discarded and a link-failure status is
//     surfaced (counters + any_link_failed()) instead of retrying
//     forever, so the simulation always drains;
//   * receiver side: CRC check (corrupted packets are dropped and
//     recovered by retransmission), duplicate detection (re-ACKed, so a
//     lost ACK cannot retransmit forever), and bounded reorder buffering
//     (out-of-order packets within `reorder_window` are held and
//     released in sequence);
//   * cumulative ACKs: each in-order delivery (or detected duplicate)
//     sends one standalone kAck carrying the next expected sequence
//     number.  ACKs themselves are unsequenced and may be lost — the
//     sender's timeout covers them;
//   * receiver-not-ready flow control (optional, installed by the Nic
//     when its eager budget is finite): before an in-sequence eager/RTS
//     packet is delivered up, an EagerAdmission hook may refuse it.
//     The refusal sends a kRnrNack (cumulative ack + retry hint +
//     credit advertisement) instead of an ACK and does NOT advance the
//     expected sequence number, so go-back-N retransmission naturally
//     re-offers the refused packet.  The sender pauses the window and
//     retries after a deterministic exponential backoff seeded by the
//     hint; credits returned as buffers drain (piggybacked on ACKs,
//     plus one explicit credit-bearing ACK pushed to the longest-waiting
//     paused peer per release) cut the wait short.  Consecutive
//     refusals without a credit grant feed the same bounded-retry →
//     link-failure discipline as timeouts, so a wedged receiver cannot
//     stall the simulation silently.
//
// Disabled (the default), the layer is a transparent pass-through: no
// sequence numbers are stamped, no ACKs are generated, no timers are
// armed, and the packet schedule is byte-identical to the pre-reliability
// simulator.  The rendezvous RTS/CTS/DATA handshake needs no changes to
// survive loss of any leg: each leg is an ordinary reliable packet here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/dense.hpp"
#include "common/fifo.hpp"
#include "common/time.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace alpu::nic {

struct ReliabilityConfig {
  /// Off by default: the clean-path figures must not change.
  bool enabled = false;
  /// First retransmit timeout.  Must exceed the worst-case in-flight
  /// time of one window: serialising a 64 KB rendezvous DATA at the
  /// Table-III 2 GB/s takes ~33 us, plus wire latency and the ACK's
  /// return trip — 60 us gives slack without dragging out recovery.
  common::TimePs base_timeout_ps = 60'000'000;
  /// Backoff cap (the shift doubles the timeout per consecutive retry).
  common::TimePs max_timeout_ps = 2'000'000'000;
  /// Consecutive timeouts without ACK progress before the link is
  /// declared failed and the window discarded.
  unsigned max_retries = 12;
  /// Receiver-side out-of-order buffer capacity per peer.
  std::size_t reorder_window = 64;
  /// Retry hint advertised in RNR NACKs (microseconds).  The refused
  /// sender's first backoff; doubles per consecutive refusal up to
  /// `max_timeout_ps`.
  std::uint32_t rnr_hint_us = 20;
  /// Consecutive RNR refusals (without a credit grant) after which the
  /// sender-side flow hook demotes the peer's eager traffic to
  /// rendezvous for guaranteed forward progress.
  unsigned rnr_demote_after = 2;
};

struct ReliabilityStats {
  std::uint64_t data_tx = 0;        ///< reliable packets first-transmitted
  std::uint64_t delivered = 0;      ///< in-order deliveries up the stack
  std::uint64_t acks_tx = 0;
  std::uint64_t acks_rx = 0;
  std::uint64_t retransmits = 0;    ///< packets re-sent by timeouts
  std::uint64_t timeouts = 0;       ///< timer expiries that retransmitted
  std::uint64_t crc_drops = 0;      ///< corrupted packets discarded
  std::uint64_t dup_drops = 0;      ///< duplicate packets discarded
  std::uint64_t ooo_buffered = 0;   ///< out-of-order packets held
  std::uint64_t ooo_dropped = 0;    ///< out-of-order past the buffer bound
  std::uint64_t link_failures = 0;  ///< peers given up on
  std::uint64_t sends_after_failure = 0;  ///< sends discarded on dead links
  // Receiver-not-ready flow control (all zero when no admission hook
  // is installed, i.e. unlimited budgets).
  std::uint64_t rnr_nacks_tx = 0;   ///< admission refusals NACKed
  std::uint64_t rnr_nacks_rx = 0;   ///< NACKs received (sender side)
  std::uint64_t rnr_retries = 0;    ///< paused windows re-offered
  std::uint64_t credit_acks_tx = 0; ///< explicit credit pushes on drain
  /// Backing-array growths of the pooled tx-window / rx-held buffers.
  /// Each is one heap allocation; at steady state (windows warmed up)
  /// this counter must stop moving — the zero-allocation property the
  /// soak tests assert.
  std::uint64_t buffer_allocs = 0;

  /// Aggregate across NICs (machine-level reporting).
  ReliabilityStats& operator+=(const ReliabilityStats& o) {
    data_tx += o.data_tx;
    delivered += o.delivered;
    acks_tx += o.acks_tx;
    acks_rx += o.acks_rx;
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    crc_drops += o.crc_drops;
    dup_drops += o.dup_drops;
    ooo_buffered += o.ooo_buffered;
    ooo_dropped += o.ooo_dropped;
    link_failures += o.link_failures;
    sends_after_failure += o.sends_after_failure;
    rnr_nacks_tx += o.rnr_nacks_tx;
    rnr_nacks_rx += o.rnr_nacks_rx;
    rnr_retries += o.rnr_retries;
    credit_acks_tx += o.credit_acks_tx;
    buffer_allocs += o.buffer_allocs;
    return *this;
  }
};

/// Receiver-side admission control for eager resources, implemented by
/// the Nic when its budget is finite.  `try_admit` is consulted once per
/// in-sequence eager/RTS packet, immediately before delivery up the
/// stack: returning false refuses the packet (no resources reserved)
/// and triggers an RNR NACK; returning true reserves the resources the
/// packet needs.  The credit accessors report the currently free budget
/// for advertisement on outgoing ACKs/NACKs.
class EagerAdmission {
 public:
  virtual ~EagerAdmission() = default;
  virtual bool try_admit(const net::Packet& packet) = 0;
  virtual std::uint64_t credit_bytes() const = 0;
  virtual std::uint32_t credit_slots() const = 0;
};

/// One NIC's reliability endpoint.  Owned by the Nic, interposed between
/// the firmware and the Network in both directions.
class ReliabilityLayer {
 public:
  /// `deliver_up` receives exactly the packets the old lossless network
  /// would have delivered: in per-link order, exactly once, CRC-clean.
  // lint: ok(std-function-hot-path) — bound once per layer; invocation only
  // on the per-packet path.
  using DeliverUp = std::function<void(const net::Packet&)>;

  ReliabilityLayer(sim::Engine& engine, std::string name,
                   const ReliabilityConfig& config, net::Network& network,
                   net::NodeId node, DeliverUp deliver_up);
  ~ReliabilityLayer();

  ReliabilityLayer(const ReliabilityLayer&) = delete;
  ReliabilityLayer& operator=(const ReliabilityLayer&) = delete;

  bool enabled() const { return config_.enabled; }

  /// Transmit path: stamp, window, and send a packet (or pass it through
  /// untouched when disabled).  On a failed link the packet is counted
  /// and discarded — the link-failure status is the surfaced outcome.
  void send(net::Packet packet);

  /// Receive path: the Network's delivery handler.
  void on_network_delivery(const net::Packet& packet);

  const ReliabilityConfig& config() const { return config_; }
  const ReliabilityStats& stats() const { return stats_; }
  bool any_link_failed() const { return stats_.link_failures > 0; }
  /// Unacknowledged packets currently in flight toward `peer`.
  std::size_t window_size(net::NodeId peer) const;

  /// Install receiver-side admission control (nullptr = unlimited; the
  /// default).  With no hook the layer never refuses, never NACKs, and
  /// advertises no credits — byte-identical to the pre-flow-control
  /// wire schedule.
  void set_admission(EagerAdmission* admission) { admission_ = admission; }

  /// Sender-side flow notifications, bound once by the owning Nic.
  struct FlowHooks {
    /// `streak` consecutive RNR refusals from `peer` without a credit
    /// grant — the Nic demotes eager traffic past a threshold.
    // lint: ok(std-function-hot-path) — bound once at wiring; invoked
    // only on the (rare) refusal path.
    std::function<void(net::NodeId peer, unsigned streak)> on_rnr;
    /// Credit advertisement received from `peer` (on any ACK/NACK with
    /// nonzero credit) — the Nic re-promotes demoted peers.
    // lint: ok(std-function-hot-path) — bound once at wiring.
    std::function<void(net::NodeId peer, std::uint64_t credit_bytes,
                       std::uint32_t credit_slots)>
        on_credit;
  };
  void set_flow_hooks(FlowHooks hooks) { flow_ = std::move(hooks); }

  /// Called by the admission owner whenever previously-reserved budget
  /// is released.  Pushes one explicit credit-bearing ACK to the
  /// longest-waiting refused peer (deterministic FIFO), waking its
  /// paused window without waiting out the backoff.
  void notify_credit_released();

  // Stall-watchdog introspection: quiescence with any of these nonzero
  // is undrained protocol work.
  std::size_t total_window_packets() const;  ///< unACKed, summed over peers
  std::size_t rnr_paused_windows() const;    ///< senders holding a backoff
  std::size_t credit_owed_peers() const {    ///< refused peers awaiting credit
    return credit_queue_.size();
  }
  bool undrained() const {
    // credit_queue_ is deliberately NOT part of this predicate: a peer
    // stays queued after its held packet is re-admitted (e.g. through
    // the posted-match bypass), so a stale token at quiescence is
    // benign.  A real wedge always shows up on the sender side as an
    // unACKed window or a paused backoff.
    return total_window_packets() > 0 || rnr_paused_windows() > 0;
  }

  /// Point backing-array growth of the per-peer tables at the owner's
  /// counters (the Nic wires NicStats.control_allocs/control_bytes).
  void set_alloc_sink(common::AllocSink sink) {
    tx_.set_alloc_sink(sink);
    rx_.set_alloc_sink(sink);
  }
  /// Pre-size both per-peer tables for nodes [0, n): no growth on the
  /// hot path afterwards.
  void reserve_nodes(std::size_t n) {
    tx_.reserve(n);
    rx_.reserve(n);
  }

 private:
  struct TxState {
    std::uint32_t next_seq = 0;
    std::uint32_t base = 0;  ///< oldest unacknowledged sequence number
    /// Unacknowledged packets, oldest first.  The window has no depth
    /// limit; its storage grows by doubling and is kept, so steady-state
    /// retries are allocation-free (ReliabilityStats.buffer_allocs).
    common::BoundedFifo<net::Packet> window{
        std::numeric_limits<std::size_t>::max()};
    sim::EventId timer = 0;
    bool timer_armed = false;
    unsigned attempts = 0;  ///< consecutive timeouts without progress
    bool failed = false;
    /// Consecutive RNR refusals without ack progress or a credit grant
    /// (feeds the same max_retries → link-failure bound as timeouts).
    unsigned rnr_streak = 0;
    /// Window held under RNR backoff: the timer slot carries the
    /// rnr-retry event instead of the retransmit timeout, and fresh
    /// sends are windowed but not transmitted until the retry.
    bool rnr_paused = false;
  };
  struct RxState {
    std::uint32_t expected = 0;
    /// This peer was refused and is queued for an explicit credit push.
    bool rnr_pending = false;
    /// Out-of-order packets held for in-sequence release, sorted by
    /// sequence number.  Capacity is reserved to `reorder_window` on
    /// first use, so steady-state holds/releases never allocate (a map
    /// node-allocates on every hold).
    std::vector<std::pair<std::uint32_t, net::Packet>> held;
  };

  void arm_timer(net::NodeId peer, TxState& tx);
  void cancel_timer(TxState& tx);
  void on_timeout(net::NodeId peer);
  void on_ack(const net::Packet& packet);
  void send_ack(net::NodeId peer, std::uint32_t ack_seq);
  /// Stamp the free-budget advertisement onto an outgoing ACK/NACK
  /// (no-op fields stay zero when no admission hook is installed).
  void fill_credits(net::Packet& packet) const;
  void send_rnr_nack(net::NodeId peer, RxState& rx);
  void on_rnr_nack(const net::Packet& packet);
  void on_rnr_retry(net::NodeId peer);
  /// Retransmit the whole window now (go-back-N re-offer) and re-arm
  /// the retransmit timeout.
  void retransmit_window(net::NodeId peer, TxState& tx);
  void fail_link(net::NodeId peer, TxState& tx, const char* why);

  sim::Engine& engine_;
  std::string name_;
  ReliabilityConfig config_;
  net::Network& network_;
  net::NodeId node_;
  DeliverUp deliver_up_;
  /// Per-peer protocol state, NodeId-indexed (dense: peers are the
  /// machine's nodes).  Formerly std::map — a tree probe per packet.
  common::DenseNodeTable<TxState> tx_;
  common::DenseNodeTable<RxState> rx_;
  EagerAdmission* admission_ = nullptr;
  FlowHooks flow_;
  /// Refused peers awaiting an explicit credit push, oldest first.
  /// Bounded by the node count (a peer is enqueued at most once —
  /// RxState.rnr_pending is the membership flag).
  std::deque<net::NodeId> credit_queue_;
  ReliabilityStats stats_;
};

}  // namespace alpu::nic
