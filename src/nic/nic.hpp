// The network interface model (Figure 1).
//
// One Nic owns:
//   * an embedded-processor firmware, modelled as a coroutine that
//     executes the four-action loop of Section V-C (poll network, poll
//     host requests, advance active requests, update the ALPUs) and
//     charges cycle + memory-system costs for everything it does;
//   * the five MPI queues of Section V-C in simulated NIC memory
//     (postedRecvQ / unexpectedQ as match lists with per-entry simulated
//     addresses; send and active queues as firmware work queues);
//   * Tx and Rx DMA engines and the network attachment;
//   * optionally, one ALPU per matching queue, wired exactly as in
//     Figure 1: incoming headers are replicated into the posted-receive
//     ALPU in hardware (no firmware cost), receives being posted are fed
//     to the unexpected-message ALPU by the firmware over the local bus,
//     and all commands/results cross the 20 ns local bus.
//
// With `posted_alpu`/`unexpected_alpu` unset the Nic reproduces the
// paper's baseline (software linear lists); set, it implements the
// Section IV software interface: START INSERT / ACK / batched INSERT /
// STOP INSERT with result draining, first-N-entries offload with
// overflow search, and cookie-based O(1) location of matched entries.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alpu/alpu.hpp"
#include "common/dense.hpp"
#include "alpu/pipelined.hpp"
#include "match/list.hpp"
#include "mem/memory_system.hpp"
#include "net/network.hpp"
#include "nic/config.hpp"
#include "nic/dma.hpp"
#include "nic/host_protocol.hpp"
#include "nic/reliability.hpp"
#include "sim/process.hpp"

namespace alpu::nic {

struct NicStats {
  std::uint64_t packets_rx = 0;
  std::uint64_t packets_tx = 0;
  std::uint64_t eager_rx = 0;
  std::uint64_t rendezvous_rx = 0;

  std::uint64_t posted_searches = 0;
  std::uint64_t posted_entries_walked = 0;   ///< software-walked entries
  std::uint64_t unexpected_searches = 0;
  std::uint64_t unexpected_entries_walked = 0;

  std::uint64_t posted_appends = 0;
  std::uint64_t unexpected_appends = 0;

  std::uint64_t alpu_posted_hits = 0;
  std::uint64_t alpu_posted_misses = 0;
  std::uint64_t alpu_unexpected_hits = 0;
  std::uint64_t alpu_unexpected_misses = 0;
  std::uint64_t alpu_insert_sessions = 0;
  std::uint64_t alpu_entries_inserted = 0;

  // Graceful-degradation accounting (header-FIFO back-pressure).
  std::uint64_t alpu_probe_rejections = 0;  ///< probes refused by a full FIFO
  std::uint64_t alpu_probe_retries = 0;     ///< firmware re-offers after refusal
  std::uint64_t alpu_fallback_resets = 0;   ///< ALPU reset to enter fallback
  std::uint64_t alpu_fallback_searches = 0;  ///< software walks while degraded

  /// Completed scrub-and-rebuild recoveries (parity-triggered reset +
  /// re-shadow); the units count the faults themselves (Nic::seu_stats).
  std::uint64_t rebuilds = 0;

  // Eager-resource occupancy (tracked even with unlimited budgets, so
  // sweeps can report what an incast would have pinned).
  std::uint64_t unexpected_depth_peak = 0;  ///< max unexpectedQ length
  std::uint64_t eager_pool_peak_bytes = 0;  ///< max staged eager payload
  std::uint64_t unexpected_slots_peak = 0;  ///< max staged envelope slots
  // Receiver-not-ready flow control (nonzero only with finite budgets).
  std::uint64_t rnr_demotions = 0;     ///< peers demoted eager→rendezvous
  std::uint64_t rnr_promotions = 0;    ///< demoted peers re-promoted
  std::uint64_t demoted_sends = 0;     ///< small sends routed rendezvous

  std::uint64_t completions = 0;
  common::TimePs firmware_busy = 0;  ///< summed charged time

  // Control-path allocation accounting: backing-array growths of the
  // NIC's dense node tables, pooled flat maps, parked-leg queues and
  // the reliability layer's per-peer tables.  Each count is one heap
  // allocation; at steady state (tables warmed up, pools primed) both
  // counters must stop moving — the zero-allocation property the soak
  // tests assert, mirroring ReliabilityStats.buffer_allocs for the
  // retransmit ring.
  std::uint64_t control_allocs = 0;
  std::uint64_t control_bytes = 0;  ///< bytes of backing capacity grown
};

class Nic : public sim::Component, private EagerAdmission {
 public:
  Nic(sim::Engine& engine, std::string name, net::NodeId node,
      const NicConfig& config, net::Network& network);

  // ---- host-facing interface ----

  /// Submit a request descriptor.  The caller (host model) is expected
  /// to have already charged the doorbell latency; this call models the
  /// descriptor landing in NIC SRAM.
  void host_submit(const HostRequest& request);

  /// Register the completion sink.  Invoked `completion_ps` after the
  /// firmware writes the record (models host-visibility latency).
  // lint: ok(std-function-hot-path) — installed once at wiring time.
  void set_completion_handler(std::function<void(const Completion&)> h);

  /// Pre-size every per-peer control table for nodes [0, n) (the
  /// Machine passes its node count at build time): no node-keyed table
  /// grows on the message hot path afterwards.
  void reserve_nodes(std::size_t n);

  // ---- introspection ----

  net::NodeId node() const { return node_; }
  const NicConfig& config() const { return config_; }
  const NicStats& stats() const { return stats_; }
  /// Probe-level work counters summed over the software match lists and
  /// the attached units (probes issued, comparator cells scanned,
  /// entries moved by deletion compaction, inserts a full unit dropped).
  common::MatchCounters match_counters() const;
  /// Transient-fault counters summed over the attached units (zero
  /// unless an SEU model is configured).
  hw::SeuStats seu_stats() const;
  /// The link-reliability sublayer (pass-through when disabled).
  const ReliabilityLayer& reliability() const { return reliability_; }
  mem::MemorySystem& memory() { return memory_; }
  std::size_t posted_queue_length() const { return posted_.size(); }
  std::size_t unexpected_queue_length() const { return unexpected_.size(); }

  // ---- eager-resource budget (flow control) ----

  /// Staged eager payload bytes / envelope slots currently pinned.
  std::uint64_t eager_pool_used() const { return eager_pool_used_; }
  std::uint32_t eager_slots_used() const { return eager_slots_used_; }
  /// True while `peer`'s repeated RNR refusals have demoted our eager
  /// traffic toward it to rendezvous.
  bool peer_demoted(net::NodeId peer) const;

  /// Stall-watchdog hooks: quiescence with undrained protocol work is a
  /// stall; the snapshot is the per-NIC triage dump.
  bool undrained_work() const;
  std::string stall_snapshot() const;

  /// Transaction-level view (nullptr when absent OR when the NIC runs
  /// the pipelined model).
  const hw::Alpu* posted_alpu() const {
    return posted_ctx_ ? dynamic_cast<const hw::Alpu*>(posted_ctx_->unit.get())
                       : nullptr;
  }
  const hw::Alpu* unexpected_alpu() const {
    return unexpected_ctx_
               ? dynamic_cast<const hw::Alpu*>(unexpected_ctx_->unit.get())
               : nullptr;
  }

  void init() override;

 private:
  /// Firmware-side bookkeeping for one attached ALPU.
  struct AlpuCtx {
    std::unique_ptr<hw::AlpuDevice> unit;
    /// The queue prefix [0, synced) currently resident in the ALPU.
    std::size_t synced = 0;
    /// Next probe sequence number to assign.
    std::uint64_t next_probe_seq = 0;
    /// Match results drained from the result FIFO during insert
    /// sessions, awaiting their packets (Section IV-C).
    std::deque<hw::Response> drained;
    /// Set when a parity fault forced the reset; the next completed
    /// re-shadow session counts as a rebuild (NicStats::rebuilds).
    bool rebuild_pending = false;
    /// Drained responses that predate a parity-triggered reset.  They
    /// were verified at their own match time (detection precedes every
    /// result), so they stay deliverable — but their entries are no
    /// longer shadowed, which waives the `index < synced` check.
    std::size_t stale_ok = 0;
    /// True when read_match_result's last response came off the stale
    /// (pre-reset) portion of `drained`.
    bool last_from_stale = false;
    /// A parity-triggered RESET is in the command FIFO but the unit may
    /// not have decoded it yet (fault_pending() still true).  Stops the
    /// firmware's dormant-fault sweep from issuing one reset per loop
    /// iteration; cleared when the unit is observed fault-free.
    bool fault_reset_issued = false;
  };

  /// One entry of the firmware's Rx work queue.
  struct RxItem {
    net::Packet packet;
    /// Probe sequence assigned when the header was replicated into the
    /// posted-receive ALPU (matching packet kinds only).
    std::optional<std::uint64_t> probe_seq;
  };

  /// Simulated addresses of one queue entry.  The match fields live in a
  /// dense 64 B slot (the only line touched while walking the list); the
  /// rest of the request state fills a separate line touched on append
  /// and on match — together the paper's "several other pieces of data
  /// in the queue entry".
  struct EntryAddrs {
    mem::Addr match_line = 0;
    mem::Addr state_line = 0;
  };

  /// Software-side state of a posted receive, keyed by cookie.
  struct PostedInfo {
    mem::Addr buffer = 0;
    std::uint32_t max_bytes = 0;
    std::uint64_t req_id = 0;
    mem::Addr state_line = 0;
  };

  /// Software-side state of an unexpected message, keyed by cookie.
  struct UnexpectedInfo {
    net::PacketKind kind = net::PacketKind::kEager;
    std::uint32_t bytes = 0;
    std::uint64_t token = 0;  ///< rendezvous pairing token (RTS entries)
    net::NodeId src = 0;
    mem::Addr state_line = 0;
  };

  /// Rendezvous legs awaiting the bulk data.
  struct RdvzSendState {
    mem::Addr buffer = 0;
    std::uint32_t bytes = 0;
    std::uint64_t req_id = 0;
    net::NodeId dst = 0;
  };
  struct RdvzRecvState {
    mem::Addr buffer = 0;
    std::uint32_t max_bytes = 0;
    std::uint64_t req_id = 0;
    /// Envelope matched at RTS time; the DATA leg carries none, so the
    /// completion record reports these bits.
    match::MatchWord match_bits = 0;
  };

  // ---- firmware ----

  sim::Process firmware();
  sim::Process handle_packet(RxItem item);
  sim::Process handle_request(HostRequest request);
  sim::Process update_alpu(AlpuCtx& ctx, bool is_posted);

  /// Enter software fallback for one ALPU: push a RESET (retrying at bus
  /// cost while the command FIFO is full) and forget the synced prefix.
  /// Used when header-FIFO back-pressure rejected a probe, leaving a
  /// packet/post that the unit never saw — searching the software list
  /// while the unit still held entries would double-deliver.  Recovery
  /// is the normal Action-4 path: once the firmware drains, update_alpu
  /// re-shadows the queue from scratch.
  ///
  /// `parity` marks a parity-fault recovery (scrub-and-rebuild): unlike
  /// the back-pressure path it may run with stale drained responses
  /// outstanding (kept — they were verified before the fault latched)
  /// and arms `rebuild_pending` so the re-shadow counts as a rebuild.
  sim::Process degrade_alpu(AlpuCtx& ctx, bool is_posted,
                            bool parity = false);

  /// Read the next ALPU response for `expected_seq`, spinning on the
  /// result FIFO over the bus; consumes drained responses first.
  sim::Process read_match_result(AlpuCtx& ctx, std::uint64_t expected_seq,
                                 hw::Response* out);

  // ---- helpers (pure cost computations mutate the cache model) ----

  common::TimePs instr(std::uint32_t cycles) const {
    return config_.clock.cycles(cycles);
  }
  /// The one firmware charge path: count `t` in NicStats::firmware_busy
  /// and return the delay the firmware awaits (`co_await busy(t)`).
  sim::DelayAwaiter busy(common::TimePs t) {
    stats_.firmware_busy += t;
    return sim::delay(engine(), t);
  }
  /// Cost of software-walking `visited` entries starting at `first`
  /// (touches each entry's match line through the cache model).
  common::TimePs walk_cost_posted(std::size_t first, std::size_t visited);
  common::TimePs walk_cost_unexpected(std::size_t first, std::size_t visited);
  /// Cost of touching a matched entry's state line plus unlink work.
  common::TimePs erase_cost(mem::Addr state_line);
  /// Cost of appending an entry (write match and state lines).
  common::TimePs append_cost(const EntryAddrs& addrs);

  EntryAddrs alloc_entry();
  void release_entry(const EntryAddrs& addrs);

  void on_network_delivery(const net::Packet& packet);
  void wake_firmware() { work_.fire(); }

  /// Queue an "advance active request" job for the firmware loop: the
  /// completion record it writes once the job's turn comes.
  void enqueue_advance(const Completion& completion);

  /// Emit a completion record toward the host.
  void complete(const Completion& completion);

  /// Remove posted entry at `index`, maintaining ALPU sync bookkeeping.
  void erase_posted(std::size_t index);
  void erase_unexpected(std::size_t index);

  /// Map a cookie back to its current list index (O(1) both charged and
  /// actual: the cookie is a direct pointer in hardware, and the lists
  /// keep a cookie→index side table).
  std::size_t posted_index_of(match::Cookie cookie) const {
    return posted_.index_of(cookie);
  }
  std::size_t unexpected_index_of(match::Cookie cookie) const {
    return unexpected_.index_of(cookie);
  }

  /// Inject a matchable send leg, honouring per-destination MPI order
  /// (see the tx_ticket_* members).  Releases parked successors.
  void inject_matchable(const net::Packet& packet, std::uint64_t ticket);

  /// `budget_reserved` is false for packets admitted through the
  /// posted-match bypass: no eager resources were reserved for them, so
  /// none must be released here.
  sim::Process deliver_to_posted(match::Cookie cookie,
                                 const net::Packet& packet,
                                 common::TimePs accrued,
                                 bool budget_reserved);
  sim::Process deliver_from_unexpected(match::Cookie cookie,
                                       const HostRequest& request,
                                       common::TimePs accrued);

  // ---- eager-resource accounting (EagerAdmission) ----

  /// True when this NIC enforces a finite budget (admission installed).
  bool budget_limited() const {
    return config_.eager_pool_bytes > 0 || config_.unexpected_slots > 0;
  }
  bool try_admit(const net::Packet& packet) override;
  std::uint64_t credit_bytes() const override;
  std::uint32_t credit_slots() const override;
  /// Reserve the resources `packet` pins (one envelope slot, plus the
  /// payload bytes for eager kinds).  `enforce` refuses over-budget
  /// reservations; without it the occupancy is tracked stats-only.
  bool reserve_eager(const net::Packet& packet, bool enforce);
  void release_eager_slot();
  void release_eager_bytes(std::uint32_t bytes);
  /// Key for the posted-match promise table: one in-flight admitted
  /// packet per (source, sequence).
  static std::uint64_t promise_key(const net::Packet& packet) {
    return (static_cast<std::uint64_t>(packet.src) << 32) | packet.seq;
  }
  /// Posted-list search that skips entries promised to other in-flight
  /// packets (identical to posted_.search_from when no budget is set:
  /// the promise tables stay empty).  `visited` accumulates across the
  /// skipped probes for the walk-cost model.
  match::SearchResult posted_search_from(std::size_t first,
                                         match::MatchWord word,
                                         match::Cookie own_promise) const;
  /// Flow hooks from the reliability sublayer (sender side).
  void on_peer_rnr(net::NodeId peer, unsigned streak);
  void on_peer_credit(net::NodeId peer, std::uint64_t bytes,
                      std::uint32_t slots);

  // ---- members ----

  net::NodeId node_;
  NicConfig config_;
  net::Network& network_;
  ReliabilityLayer reliability_;
  mem::MemorySystem memory_;
  mem::SimHeap match_heap_;  ///< dense 64 B match-line slots
  mem::SimHeap state_heap_;  ///< per-entry request-state lines
  std::vector<EntryAddrs> entry_freelist_;

  DmaEngine tx_dma_;
  DmaEngine rx_dma_;

  match::PostedList posted_;
  match::UnexpectedList unexpected_;
  /// Per-message protocol side tables: insertion-ordered pooled flat
  /// maps (common::FlatMap), so the PostedInfo/UnexpectedInfo and
  /// rendezvous states they hold are recycled through slot free lists —
  /// steady-state insert/erase churn never touches the allocator, and
  /// no behaviour can depend on hash-bucket order.
  common::FlatMap<match::Cookie, PostedInfo> posted_info_;
  common::FlatMap<match::Cookie, UnexpectedInfo> unexpected_info_;
  common::FlatMap<std::uint64_t, RdvzSendState> rdvz_send_;
  common::FlatMap<std::uint64_t, RdvzRecvState> rdvz_recv_;

  // Per-destination transmit-order gate for matchable legs (eager
  // packets and rendezvous RTS headers).  MPI non-overtaking is defined
  // at the matching level: two sends to the same peer must reach its
  // match engine in posting order.  An eager payload injects from its
  // DMA completion while an RTS injects straight from the firmware, so
  // without the gate an RTS issued behind an in-flight eager DMA would
  // overtake it on the wire.  Tickets are issued in request-processing
  // order; a leg whose turn has not yet come is parked until the
  // earlier injection releases it (same event, no extra model time).
  struct TxOrder {
    std::uint64_t next = 0;  ///< next ticket to issue
    std::uint64_t due = 0;   ///< next ticket allowed onto the wire
    /// Out-of-turn legs, sorted by ticket.  Capacity is retained across
    /// release, so a warmed queue parks without allocating.
    std::vector<std::pair<std::uint64_t, net::Packet>> parked;
  };
  common::DenseNodeTable<TxOrder> tx_order_;
  match::Cookie next_cookie_ = 1;
  std::uint64_t next_token_ = 1;

  /// Per-peer sender-side flow state: demoted peers route small sends
  /// through rendezvous until a credit grant re-promotes them.
  struct PeerFlow {
    bool demoted = false;
  };
  common::DenseNodeTable<PeerFlow> peer_flow_;
  /// Receiver-side eager occupancy (bytes staged / envelope slots).
  std::uint64_t eager_pool_used_ = 0;
  std::uint32_t eager_slots_used_ = 0;
  /// Posted-match admission bypass (budget-limited mode only).  The
  /// admission probe (try_admit) pledges each admitted eager/RTS packet
  /// the first posted entry it matches, in admission order, skipping
  /// entries already pledged to earlier in-flight packets.  A packet
  /// that finds no budget but does find an unpledged posted match is
  /// admitted WITHOUT a reservation (`reserved == false`): its payload
  /// lands in the application buffer, not the eager pool, so refusing
  /// it would be a priority inversion (RNR means "receiver not ready",
  /// and this receiver is ready).  Firmware matching skips entries
  /// pledged to other packets so the probe's verdict holds.
  struct MatchPromise {
    match::Cookie cookie = 0;
    bool reserved = false;  ///< eager budget was reserved at admission
  };
  common::FlatMap<match::Cookie, std::uint8_t> promised_posted_;
  common::FlatMap<std::uint64_t, MatchPromise> match_promises_;

  std::deque<RxItem> rx_fifo_;
  std::deque<HostRequest> host_fifo_;
  std::deque<Completion> advance_fifo_;

  std::optional<AlpuCtx> posted_ctx_;
  std::optional<AlpuCtx> unexpected_ctx_;
  /// Section IV-C: header replication into the posted-receive ALPU is
  /// disabled until the firmware actually loads the unit (and again
  /// whenever the unit empties).  While disabled, packets take the full
  /// software search — which is safe exactly because the ALPU is empty.
  bool posted_probe_enabled_ = false;
  /// Set when header-FIFO back-pressure forced the posted ALPU into
  /// software fallback; cleared when an insert session re-shadows it.
  /// Only used for stats attribution (alpu_fallback_searches).
  bool posted_degraded_ = false;

  // lint: ok(std-function-hot-path) — installed once at wiring time.
  std::function<void(const Completion&)> on_completion_;
  sim::Trigger work_;
  sim::ProcessPool pool_;
  NicStats stats_;
};

}  // namespace alpu::nic
