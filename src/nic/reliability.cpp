#include "nic/reliability.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace alpu::nic {

using common::LogLevel;
using common::TimePs;

ReliabilityLayer::ReliabilityLayer(sim::Engine& engine, std::string name,
                                   const ReliabilityConfig& config,
                                   net::Network& network, net::NodeId node,
                                   DeliverUp deliver_up)
    : engine_(engine),
      name_(std::move(name)),
      config_(config),
      network_(network),
      node_(node),
      deliver_up_(std::move(deliver_up)) {
  ALPU_ASSERT(deliver_up_, "reliability layer needs an up-stack sink");
}

ReliabilityLayer::~ReliabilityLayer() {
  // Dead timers must not fire into a destroyed object (relevant only
  // when a Machine is torn down with events still pending).
  for (TxState& tx : tx_) cancel_timer(tx);
}

std::size_t ReliabilityLayer::window_size(net::NodeId peer) const {
  const TxState* tx = tx_.find(peer);
  return tx == nullptr ? 0 : tx->window.size();
}

std::size_t ReliabilityLayer::total_window_packets() const {
  std::size_t total = 0;
  for (const TxState& tx : tx_) total += tx.window.size();
  return total;
}

std::size_t ReliabilityLayer::rnr_paused_windows() const {
  std::size_t paused = 0;
  for (const TxState& tx : tx_) paused += tx.rnr_paused ? 1 : 0;
  return paused;
}

// ---------------------------------------------------------------------------
// Transmit path
// ---------------------------------------------------------------------------

void ReliabilityLayer::send(net::Packet packet) {
  if (!config_.enabled) {
    network_.send(packet);
    return;
  }
  TxState& tx = tx_[packet.dst];
  if (tx.failed) {
    // The link was declared dead: discard instead of queueing forever.
    // The firmware's observable outcome is the link-failure status.
    ++stats_.sends_after_failure;
    return;
  }
  packet.reliable = true;
  packet.seq = tx.next_seq++;
  // The table default-constructs TxState, so the window learns where to
  // count its growths on the link's first packet.
  if (packet.seq == 0) {
    tx.window.set_alloc_sink(common::AllocSink{&stats_.buffer_allocs, nullptr});
  }
  tx.window.push(packet);
  ++stats_.data_tx;
  if (tx.rnr_paused) {
    // The peer refused our window: hold fresh traffic too (it would
    // only be parked in the receiver's reorder buffer).  The pending
    // RNR retry re-offers the whole window, this packet included.
    return;
  }
  network_.send(packet);
  if (!tx.timer_armed) arm_timer(packet.dst, tx);
}

void ReliabilityLayer::arm_timer(net::NodeId peer, TxState& tx) {
  ALPU_DEBUG_ASSERT(!tx.timer_armed, "double-armed retransmit timer");
  // Exponential backoff: double per consecutive no-progress timeout,
  // capped.  The shift bound keeps the arithmetic in range.
  const unsigned shift = std::min(tx.attempts, 20u);
  const TimePs timeout = std::min(config_.base_timeout_ps << shift,
                                  config_.max_timeout_ps);
  tx.timer = engine_.schedule_in(timeout, [this, peer] { on_timeout(peer); });
  tx.timer_armed = true;
}

void ReliabilityLayer::cancel_timer(TxState& tx) {
  if (tx.timer_armed) {
    engine_.cancel(tx.timer);
    tx.timer_armed = false;
  }
}

void ReliabilityLayer::fail_link(net::NodeId peer, TxState& tx,
                                 const char* why) {
  // Bounded retry exhausted: surface a link failure instead of
  // spinning forever (the engine drains; callers observe the status).
  tx.failed = true;
  tx.rnr_paused = false;
  ++stats_.link_failures;
  ALPU_LOGF(LogLevel::kInfo, engine_.now(), name_,
            "link to {} failed after {} {} ({} packets discarded)", peer,
            config_.max_retries, why, tx.window.size());
  tx.window.clear();
}

void ReliabilityLayer::retransmit_window(net::NodeId peer, TxState& tx) {
  // Go-back-N: retransmit every unacknowledged packet, in order.  The
  // pooled ring is iterated in place — retransmission storms touch no
  // allocator.
  for (std::size_t i = 0; i < tx.window.size(); ++i) {
    ++stats_.retransmits;
    network_.send(tx.window.at(i));
  }
  arm_timer(peer, tx);
}

void ReliabilityLayer::on_timeout(net::NodeId peer) {
  TxState& tx = tx_[peer];
  tx.timer_armed = false;
  if (tx.window.empty()) return;  // fully ACKed just before expiry
  ++tx.attempts;
  if (tx.attempts > config_.max_retries) {
    fail_link(peer, tx, "retries");
    return;
  }
  ++stats_.timeouts;
  retransmit_window(peer, tx);
}

void ReliabilityLayer::on_ack(const net::Packet& packet) {
  ++stats_.acks_rx;
  TxState& tx = tx_[packet.src];
  if (tx.failed) return;
  // Cumulative: ack_seq is the next sequence the receiver expects; all
  // window packets below it are done.  Sequence numbers on one link are
  // assigned monotonically and windows are far smaller than 2^31, so
  // plain comparison is safe against 32-bit wrap in any workload here.
  bool progressed = false;
  while (!tx.window.empty() && tx.window.front().seq < packet.ack_seq) {
    tx.window.pop();
    ++tx.base;
    progressed = true;
  }
  const bool credited = packet.credit_bytes > 0 || packet.credit_slots > 0;
  if (credited) {
    // A credit grant on a real ACK proves the receiver is draining:
    // reset the refusal streak so a slow-but-live receiver is never
    // declared failed, and let the Nic re-promote a demoted peer.
    tx.rnr_streak = 0;
    if (flow_.on_credit) {
      flow_.on_credit(packet.src, packet.credit_bytes, packet.credit_slots);
    }
  }
  if (progressed) {
    tx.attempts = 0;
    tx.rnr_streak = 0;
    cancel_timer(tx);
    if (tx.rnr_paused) {
      // The refused window moved after all (e.g. a partial admit):
      // resume immediately rather than waiting out the backoff.
      on_rnr_retry(packet.src);
    } else if (!tx.window.empty()) {
      arm_timer(packet.src, tx);
    }
    return;
  }
  if (tx.rnr_paused && credited && !tx.window.empty()) {
    // Explicit credit push while we hold a refused window: re-offer
    // immediately, even if the advertised budget looks too small for
    // our oldest packet — the rest of the release (slot at match time,
    // bytes at DMA completion) lands within microseconds, while waiting
    // out the doubled backoff costs milliseconds and lets the refusal
    // streak of every non-woken peer keep climbing.  A premature
    // re-offer is one cheap NACK round trip (the streak was just reset
    // by the credit, and the NACK re-enters us in the receiver's fair
    // credit queue).
    cancel_timer(tx);
    on_rnr_retry(packet.src);
  }
}

// ---------------------------------------------------------------------------
// Receiver-not-ready flow control
// ---------------------------------------------------------------------------

void ReliabilityLayer::on_rnr_nack(const net::Packet& packet) {
  ++stats_.rnr_nacks_rx;
  TxState& tx = tx_[packet.src];
  if (tx.failed) return;
  // The NACK is also a cumulative acknowledgement (deliveries admitted
  // before the refusal count as progress).
  bool progressed = false;
  while (!tx.window.empty() && tx.window.front().seq < packet.ack_seq) {
    tx.window.pop();
    ++tx.base;
    progressed = true;
  }
  if (progressed) {
    tx.attempts = 0;
    tx.rnr_streak = 0;
  }
  if (flow_.on_credit &&
      (packet.credit_bytes > 0 || packet.credit_slots > 0)) {
    // The NACK still advertises whatever budget is free (useful for
    // re-promotion decisions); it does NOT reset the refusal streak —
    // only a credit grant on a real ACK proves draining.
    flow_.on_credit(packet.src, packet.credit_bytes, packet.credit_slots);
  }
  if (tx.window.empty()) {
    // Everything we sent was admitted or acknowledged; nothing to hold.
    tx.rnr_paused = false;
    cancel_timer(tx);
    return;
  }
  ++tx.rnr_streak;
  if (tx.rnr_streak > config_.max_retries) {
    // Refused max_retries times without a single credit grant: the
    // receiver is wedged, not slow.  Same discipline as timeouts.
    cancel_timer(tx);
    fail_link(packet.src, tx, "RNR refusals");
    return;
  }
  if (flow_.on_rnr) flow_.on_rnr(packet.src, tx.rnr_streak);
  // Hold the window: the timer slot now carries the RNR retry, at the
  // receiver's hinted backoff doubled per consecutive refusal (capped).
  cancel_timer(tx);
  const std::uint64_t hint_us =
      packet.rnr_hint_us > 0 ? packet.rnr_hint_us : config_.rnr_hint_us;
  const unsigned shift = std::min(tx.rnr_streak - 1, 20u);
  const TimePs backoff = std::min<TimePs>(
      static_cast<TimePs>(hint_us * 1'000'000) << shift, config_.max_timeout_ps);
  const net::NodeId peer = packet.src;
  tx.timer = engine_.schedule_in(backoff, [this, peer] { on_rnr_retry(peer); });
  tx.timer_armed = true;
  tx.rnr_paused = true;
}

void ReliabilityLayer::on_rnr_retry(net::NodeId peer) {
  TxState& tx = tx_[peer];
  tx.timer_armed = false;
  tx.rnr_paused = false;
  if (tx.failed || tx.window.empty()) return;
  ++stats_.rnr_retries;
  retransmit_window(peer, tx);
}

void ReliabilityLayer::notify_credit_released() {
  if (credit_queue_.empty()) return;
  // Fair FIFO: one explicit credit-bearing ACK to the longest-waiting
  // refused peer per release.  Waking one peer per freed unit avoids
  // the thundering herd (N paused senders racing for one slot, N-1
  // collecting another refusal each).
  const net::NodeId peer = credit_queue_.front();
  credit_queue_.pop_front();
  RxState& rx = rx_[peer];
  rx.rnr_pending = false;
  ++stats_.credit_acks_tx;
  send_ack(peer, rx.expected);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

/// Only packet kinds that pin receiver-side eager resources are
/// admission-gated.  CTS and rendezvous DATA land in host buffers the
/// receiver already posted, and must never be refused — they are the
/// forward-progress escape hatch demotion relies on.
static bool needs_admission(const net::Packet& packet) {
  return packet.kind == net::PacketKind::kEager ||
         packet.kind == net::PacketKind::kRtsRendezvous;
}

void ReliabilityLayer::fill_credits(net::Packet& packet) const {
  if (admission_ == nullptr) return;  // unlimited: fields stay zero
  constexpr std::uint64_t kMaxBytes = 0xffff'ffffu;
  constexpr std::uint32_t kMaxSlots = 0xffffu;
  packet.credit_bytes =
      static_cast<std::uint32_t>(std::min(admission_->credit_bytes(), kMaxBytes));
  packet.credit_slots = static_cast<std::uint16_t>(
      std::min(admission_->credit_slots(), kMaxSlots));
}

void ReliabilityLayer::send_ack(net::NodeId peer, std::uint32_t ack_seq) {
  net::Packet ack;
  ack.src = node_;
  ack.dst = peer;
  ack.kind = net::PacketKind::kAck;
  ack.ack_seq = ack_seq;
  fill_credits(ack);
  ++stats_.acks_tx;
  network_.send(ack);
}

void ReliabilityLayer::send_rnr_nack(net::NodeId peer, RxState& rx) {
  net::Packet nack;
  nack.src = node_;
  nack.dst = peer;
  nack.kind = net::PacketKind::kRnrNack;
  nack.ack_seq = rx.expected;
  nack.rnr_hint_us = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(config_.rnr_hint_us, 0xffffu));
  fill_credits(nack);
  if (!rx.rnr_pending) {
    // Queue the peer for an explicit credit push when budget frees up.
    rx.rnr_pending = true;
    // lint: ok(unbounded-peer-growth) — rnr_pending is the membership
    // flag: at most one entry per peer, so the queue is bounded by the
    // node count.
    credit_queue_.push_back(peer);
  }
  ++stats_.rnr_nacks_tx;
  network_.send(nack);
}

void ReliabilityLayer::on_network_delivery(const net::Packet& packet) {
  if (!config_.enabled) {
    deliver_up_(packet);
    return;
  }
  if (!packet.crc_ok) {
    // Modeled link CRC failed: the payload cannot be trusted, including
    // its sequence number.  Drop; the sender's timeout recovers it.
    ++stats_.crc_drops;
    return;
  }
  if (packet.kind == net::PacketKind::kAck) {
    on_ack(packet);
    return;
  }
  if (packet.kind == net::PacketKind::kRnrNack) {
    on_rnr_nack(packet);
    return;
  }
  if (!packet.reliable) {
    deliver_up_(packet);  // raw traffic from an unsequenced sender
    return;
  }
  RxState& rx = rx_[packet.src];
  if (rx.held.capacity() < config_.reorder_window) {
    // One-time pool reservation per peer: after this, holding and
    // releasing out-of-order packets never touches the allocator.
    rx.held.reserve(config_.reorder_window);
    ++stats_.buffer_allocs;
  }
  if (packet.seq < rx.expected) {
    // Duplicate (retransmission of something already delivered).  The
    // re-ACK matters: if the original ACK was lost, only this stops the
    // sender from retransmitting until its retry bound declares the
    // link dead.
    ++stats_.dup_drops;
    send_ack(packet.src, rx.expected);
    return;
  }
  if (packet.seq > rx.expected) {
    // Out of order: hold within the bounded buffer, or drop beyond it
    // (go-back-N retransmission refills the gap either way).  The hold
    // is a sorted insert into the reserved vector — capacity never
    // grows, since size is bounded by the reserved reorder_window.
    const auto it = std::lower_bound(
        rx.held.begin(), rx.held.end(), packet.seq,
        [](const std::pair<std::uint32_t, net::Packet>& held,
           std::uint32_t seq) { return held.first < seq; });
    if (rx.held.size() < config_.reorder_window &&
        (it == rx.held.end() || it->first != packet.seq)) {
      rx.held.emplace(it, packet.seq, packet);
      ++stats_.ooo_buffered;
    } else {
      ++stats_.ooo_dropped;
    }
    return;
  }
  // In sequence: admission-check, deliver, then release any
  // directly-following held packets (a sorted prefix of `held`), then
  // ACK — or NACK — the new cumulative horizon once.
  if (admission_ != nullptr && needs_admission(packet) &&
      !admission_->try_admit(packet)) {
    // Refused: `expected` does NOT advance, so the sender's go-back-N
    // window naturally re-offers this packet on retry.
    send_rnr_nack(packet.src, rx);
    return;
  }
  deliver_up_(packet);
  ++stats_.delivered;
  ++rx.expected;
  std::size_t released = 0;
  bool refused_held = false;
  while (released < rx.held.size() &&
         rx.held[released].first == rx.expected) {
    const net::Packet& next = rx.held[released].second;
    if (admission_ != nullptr && needs_admission(next) &&
        !admission_->try_admit(next)) {
      // The refused packet must leave `held` too: its sequence equals
      // the (now stalled) expected horizon, and a held entry at that
      // seq would otherwise pin reorder-buffer space forever — the
      // retransmitted copy arrives through the in-sequence path above.
      refused_held = true;
      ++released;
      break;
    }
    deliver_up_(next);
    ++stats_.delivered;
    ++rx.expected;
    ++released;
  }
  // Front-erase keeps the reserved capacity: no allocation.
  if (released > 0) {
    rx.held.erase(rx.held.begin(),
                  rx.held.begin() + static_cast<std::ptrdiff_t>(released));
  }
  if (refused_held) {
    send_rnr_nack(packet.src, rx);
  } else {
    send_ack(packet.src, rx.expected);
  }
}

}  // namespace alpu::nic
