#include "nic/nic.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"

namespace alpu::nic {

using common::LogLevel;
using common::TimePs;

namespace {

/// Packet kinds that traverse the posted-receive matching path.
bool is_matching_kind(net::PacketKind kind) {
  return kind == net::PacketKind::kEager ||
         kind == net::PacketKind::kRtsRendezvous;
}

hw::AlpuConfig with_flavor(hw::AlpuConfig cfg, hw::AlpuFlavor flavor) {
  cfg.flavor = flavor;
  // The NIC firmware only issues inserts against granted credit, so a
  // unit-level insert drop here is a firmware protocol bug, not a
  // modelled condition — make the unit trap it in checked builds.
  cfg.assert_on_insert_drop = true;
  return cfg;
}

/// Per-unit SEU injector stream: fold the node id and flavour into the
/// configured seed (the Xoshiro constructor splitmixes, so nearby
/// streams are unrelated), mirroring the per-link fault streams.
std::uint64_t seu_stream(std::uint64_t seed, net::NodeId node,
                         hw::AlpuFlavor flavor) {
  const std::uint64_t lane =
      2 * static_cast<std::uint64_t>(node) +
      (flavor == hw::AlpuFlavor::kUnexpected ? 1 : 0);
  return seed ^ (0x9e3779b97f4a7c15ULL * (lane + 1));
}

/// Build a unit of the configured model kind.
std::unique_ptr<hw::AlpuDevice> make_unit(sim::Engine& engine,
                                          std::string name,
                                          const hw::AlpuConfig& cfg,
                                          AlpuModelKind kind) {
  if (kind == AlpuModelKind::kPipelined) {
    ALPU_ASSERT(!cfg.seu.any(),
                "the SEU fault model is only implemented for the "
                "transaction-level ALPU (use --alpu-model transaction)");
    hw::PipelinedAlpuConfig p;
    p.flavor = cfg.flavor;
    p.total_cells = cfg.total_cells;
    p.block_size = cfg.block_size;
    p.clock = cfg.clock;
    p.significant_mask = cfg.significant_mask;
    p.header_fifo_depth = cfg.header_fifo_depth;
    p.command_fifo_depth = cfg.command_fifo_depth;
    p.result_fifo_depth = cfg.result_fifo_depth;
    p.assert_on_insert_drop = cfg.assert_on_insert_drop;
    return std::make_unique<hw::PipelinedAlpu>(engine, std::move(name), p);
  }
  return std::make_unique<hw::Alpu>(engine, std::move(name), cfg);
}

}  // namespace

Nic::Nic(sim::Engine& engine, std::string name, net::NodeId node,
         const NicConfig& config, net::Network& network)
    : sim::Component(engine, std::move(name)),
      node_(node),
      config_(config),
      network_(network),
      reliability_(engine, this->name() + ".rel", config.reliability, network,
                   node,
                   [this](const net::Packet& p) { on_network_delivery(p); }),
      memory_(config.memory),
      match_heap_(0x1000'0000 + (static_cast<mem::Addr>(node) << 32)),
      state_heap_(0x4000'0000 + (static_cast<mem::Addr>(node) << 32)),
      tx_dma_(engine, this->name() + ".txdma", config.dma),
      rx_dma_(engine, this->name() + ".rxdma", config.dma),
      pool_(engine) {
  if (config_.posted_alpu.has_value()) {
    posted_ctx_.emplace();
    hw::AlpuConfig ucfg =
        with_flavor(*config_.posted_alpu, hw::AlpuFlavor::kPostedReceive);
    ucfg.seu = config_.seu;
    ucfg.seu.seed =
        seu_stream(config_.seu.seed, node, hw::AlpuFlavor::kPostedReceive);
    posted_ctx_->unit = make_unit(engine, this->name() + ".alpu.posted", ucfg,
                                  config_.alpu_model);
    // A background scrub that latches a fault must wake the firmware so
    // dormant corruption is rebuilt without waiting for traffic.
    posted_ctx_->unit->set_fault_callback([this] { wake_firmware(); });
  }
  if (config_.unexpected_alpu.has_value()) {
    unexpected_ctx_.emplace();
    hw::AlpuConfig ucfg =
        with_flavor(*config_.unexpected_alpu, hw::AlpuFlavor::kUnexpected);
    ucfg.seu = config_.seu;
    ucfg.seu.seed =
        seu_stream(config_.seu.seed, node, hw::AlpuFlavor::kUnexpected);
    unexpected_ctx_->unit = make_unit(
        engine, this->name() + ".alpu.unexpected", ucfg, config_.alpu_model);
    unexpected_ctx_->unit->set_fault_callback([this] { wake_firmware(); });
  }
  // Raw deliveries pass through the reliability sublayer, which forwards
  // exactly the packets the lossless network used to deliver (in order,
  // once, CRC-clean) to on_network_delivery.
  network_.attach(node_, engine, [this](const net::Packet& p) {
    reliability_.on_network_delivery(p);
  });
  // Every control-path container reports backing growth into the same
  // pair of counters (done here, after stats_ is constructed).
  const common::AllocSink sink{&stats_.control_allocs,
                               &stats_.control_bytes};
  posted_info_.set_alloc_sink(sink);
  unexpected_info_.set_alloc_sink(sink);
  rdvz_send_.set_alloc_sink(sink);
  rdvz_recv_.set_alloc_sink(sink);
  tx_order_.set_alloc_sink(sink);
  peer_flow_.set_alloc_sink(sink);
  reliability_.set_alloc_sink(sink);
  if (posted_ctx_) posted_ctx_->unit->set_alloc_sink(sink);
  if (unexpected_ctx_) unexpected_ctx_->unit->set_alloc_sink(sink);
  // Finite eager budgets turn exhaustion into RNR-NACK protocol events
  // handled inside the reliability sublayer; with unlimited budgets no
  // admission hook is installed and the wire schedule is byte-identical
  // to the pre-flow-control simulator.
  if (budget_limited()) reliability_.set_admission(this);
  ReliabilityLayer::FlowHooks hooks;
  hooks.on_rnr = [this](net::NodeId peer, unsigned streak) {
    on_peer_rnr(peer, streak);
  };
  hooks.on_credit = [this](net::NodeId peer, std::uint64_t bytes,
                           std::uint32_t slots) {
    on_peer_credit(peer, bytes, slots);
  };
  reliability_.set_flow_hooks(std::move(hooks));
}

void Nic::reserve_nodes(std::size_t n) {
  tx_order_.reserve(n);
  peer_flow_.reserve(n);
  reliability_.reserve_nodes(n);
}

void Nic::init() {
  pool_.spawn(firmware());
}

// ---------------------------------------------------------------------------
// Host and network entry points
// ---------------------------------------------------------------------------

void Nic::host_submit(const HostRequest& request) {
  host_fifo_.push_back(request);
  wake_firmware();
}

// lint: ok(std-function-hot-path) — installed once per NIC at wiring time.
void Nic::set_completion_handler(std::function<void(const Completion&)> h) {
  on_completion_ = std::move(h);
}

void Nic::on_network_delivery(const net::Packet& packet) {
  // With the reliability sublayer disabled nothing filters corrupted
  // packets, so fault configs that corrupt require it enabled (the
  // Machine enforces this at construction).
  ALPU_ASSERT(packet.crc_ok, "corrupted packet above the reliability layer");
  ALPU_ASSERT(packet.kind != net::PacketKind::kAck &&
                  packet.kind != net::PacketKind::kRnrNack,
              "reliability control packet leaked above the sublayer");
  ++stats_.packets_rx;
  // Eager-resource accounting.  With a finite budget the reliability
  // sublayer's admission check (try_admit) already reserved for this
  // packet; otherwise track occupancy stats-only here, so sweeps report
  // what an incast pins even on an unlimited NIC.
  if (!(budget_limited() && reliability_.enabled()) &&
      (packet.kind == net::PacketKind::kEager ||
       packet.kind == net::PacketKind::kRtsRendezvous)) {
    reserve_eager(packet, /*enforce=*/false);
  }
  RxItem item{packet, std::nullopt};
  // Figure 1: headers of matching packets are replicated into the
  // posted-receive ALPU by hardware, before the firmware ever runs —
  // but only while the firmware has replication enabled (Section IV-C).
  // An un-probed packet may never coexist with a non-empty ALPU: the
  // firmware's full software search would erase entries the hardware
  // still holds.  The enable/disable points in update_alpu/erase_posted
  // maintain that invariant.
  if (posted_ctx_.has_value() && posted_probe_enabled_ &&
      is_matching_kind(packet.kind)) {
    hw::Probe probe{packet.match_bits, 0, posted_ctx_->next_probe_seq};
    if (posted_ctx_->unit->push_probe(probe)) {
      item.probe_seq = posted_ctx_->next_probe_seq++;
    } else {
      // Header FIFO full.  Real hardware back-pressures the Rx path; the
      // model instead degrades gracefully: stop replicating (this packet
      // and everything behind it go un-probed) and let the firmware
      // reset the unit before its next software search (handle_packet),
      // preserving the invariant above.  update_alpu re-shadows the
      // queue — and re-enables replication — once the firmware drains.
      ++stats_.alpu_probe_rejections;
      posted_probe_enabled_ = false;
    }
  }
  rx_fifo_.push_back(std::move(item));
  wake_firmware();
}

void Nic::enqueue_advance(const Completion& completion) {
  advance_fifo_.push_back(completion);
  wake_firmware();
}

void Nic::complete(const Completion& completion) {
  ++stats_.completions;
  ALPU_ASSERT(on_completion_, "no completion handler attached");
  engine().schedule_in(config_.completion_ps,
                       [this, completion] { on_completion_(completion); });
}

// ---------------------------------------------------------------------------
// Cost helpers (mutate the cache model as a side effect)
// ---------------------------------------------------------------------------

TimePs Nic::walk_cost_posted(std::size_t first, std::size_t visited) {
  ALPU_ASSERT(first + visited <= posted_.size(), "posted walk past the end");
  stats_.posted_entries_walked += visited;
  return memory_.load_run(posted_.addrs() + first, visited,
                          instr(config_.costs.per_entry_cycles));
}

TimePs Nic::walk_cost_unexpected(std::size_t first, std::size_t visited) {
  ALPU_ASSERT(first + visited <= unexpected_.size(),
              "unexpected walk past the end");
  stats_.unexpected_entries_walked += visited;
  return memory_.load_run(unexpected_.addrs() + first, visited,
                          instr(config_.costs.per_entry_cycles));
}

TimePs Nic::erase_cost(mem::Addr state_line) {
  // Unlink work plus a touch of the entry's request-state line.
  return instr(config_.costs.erase_entry_cycles) + memory_.load(state_line);
}

TimePs Nic::append_cost(const EntryAddrs& addrs) {
  // One store per statement: each moves LRU state, and the operands of
  // `+` are unsequenced.
  TimePs t = instr(config_.costs.append_entry_cycles);
  t += memory_.store(addrs.match_line);
  t += memory_.store(addrs.state_line);
  return t;
}

Nic::EntryAddrs Nic::alloc_entry() {
  if (!entry_freelist_.empty()) {
    const EntryAddrs a = entry_freelist_.back();
    entry_freelist_.pop_back();
    return a;
  }
  return EntryAddrs{match_heap_.alloc(64, 64), state_heap_.alloc(64, 64)};
}

void Nic::release_entry(const EntryAddrs& addrs) {
  entry_freelist_.push_back(addrs);
}

// ---------------------------------------------------------------------------
// Queue bookkeeping
// ---------------------------------------------------------------------------

void Nic::erase_posted(std::size_t index) {
  if (posted_ctx_.has_value() && index < posted_ctx_->synced) {
    // The ALPU matched (and deleted) this entry itself; keep the
    // software prefix aligned with the hardware array.
    --posted_ctx_->synced;
  }
  const match::Cookie cookie = posted_.at(index).cookie;
  release_entry(EntryAddrs{posted_.at(index).addr,
                           posted_info_.at(cookie).state_line});
  // posted_info_ is NOT erased here: the delivery path still needs the
  // buffer/request record and removes it itself.
  posted_.erase(index);
  if (posted_ctx_.has_value() && posted_ctx_->synced == 0) {
    // The unit emptied: stop replicating headers until it is reloaded.
    posted_probe_enabled_ = false;
  }
}

void Nic::erase_unexpected(std::size_t index) {
  if (unexpected_ctx_.has_value() && index < unexpected_ctx_->synced) {
    --unexpected_ctx_->synced;
  }
  const match::Cookie cookie = unexpected_.at(index).cookie;
  release_entry(EntryAddrs{unexpected_.at(index).addr,
                           unexpected_info_.at(cookie).state_line});
  unexpected_info_.erase(cookie);
  unexpected_.erase(index);
  // The entry's envelope slot frees here; eager payload bytes stay
  // pinned until the delivery DMA drains them to the host buffer.
  release_eager_slot();
}

common::MatchCounters Nic::match_counters() const {
  common::MatchCounters c;
  c += posted_.counters();
  c += unexpected_.counters();
  for (const auto* ctx : {posted_ctx_ ? &*posted_ctx_ : nullptr,
                          unexpected_ctx_ ? &*unexpected_ctx_ : nullptr}) {
    if (ctx != nullptr) c += ctx->unit->counters();
  }
  return c;
}

hw::SeuStats Nic::seu_stats() const {
  hw::SeuStats s;
  for (const auto* ctx : {posted_ctx_ ? &*posted_ctx_ : nullptr,
                          unexpected_ctx_ ? &*unexpected_ctx_ : nullptr}) {
    if (ctx != nullptr) s += ctx->unit->seu_stats();
  }
  return s;
}

// ---------------------------------------------------------------------------
// Firmware main loop (Section V-C: four actions per iteration)
// ---------------------------------------------------------------------------

sim::Process Nic::firmware() {
  auto& eng = engine();
  for (;;) {
    bool did_work = false;

    // Conglomeration policy (Section IV-B): under load, defer insert
    // sessions until min_batch entries are pending; when the firmware
    // has nothing else to do, sync whatever is left.
    const bool otherwise_idle =
        rx_fifo_.empty() && host_fifo_.empty() && advance_fifo_.empty();
    const std::size_t effective_min_batch =
        otherwise_idle ? 1 : config_.alpu_policy.min_batch;

    // Action 1: check the network for new incoming messages.
    if (!rx_fifo_.empty()) {
      RxItem item = std::move(rx_fifo_.front());
      rx_fifo_.pop_front();
      co_await handle_packet(std::move(item));
      did_work = true;
    }

    // Action 2: check for new requests from the main processor.
    if (!host_fifo_.empty()) {
      HostRequest request = host_fifo_.front();
      host_fifo_.pop_front();
      co_await handle_request(request);
      did_work = true;
    }

    // Action 3: advance active requests (the completion records staged
    // by DMA completions and protocol steps).
    if (!advance_fifo_.empty()) {
      const Completion completion = advance_fifo_.front();
      advance_fifo_.pop_front();
      const TimePs t = instr(config_.costs.delivery_setup_cycles);
      co_await busy(t);
      complete(completion);
      did_work = true;
    }

    // Transient-fault recovery sweep: a background scrub can latch a
    // parity fault with no traffic to bounce a PARITY FAULT response off
    // (the probe path reaches degrade_alpu through handle_packet /
    // handle_request).  Reset such a unit here so dormant corruption is
    // recovered before the next use — but only once per episode
    // (fault_reset_issued), and for the posted unit only when no probed
    // packets are outstanding, so in-flight responses keep their
    // rx-order pairing.  Runs before Action 4 so the RESET is queued
    // ahead of any re-shadow session's START INSERT.
    if (posted_ctx_.has_value()) {
      if (!posted_ctx_->unit->fault_pending()) {
        posted_ctx_->fault_reset_issued = false;
      } else if (!posted_ctx_->fault_reset_issued && rx_fifo_.empty() &&
                 posted_ctx_->drained.empty()) {
        co_await degrade_alpu(*posted_ctx_, /*is_posted=*/true,
                              /*parity=*/true);
        did_work = true;
      }
    }
    if (unexpected_ctx_.has_value()) {
      if (!unexpected_ctx_->unit->fault_pending()) {
        unexpected_ctx_->fault_reset_issued = false;
      } else if (!unexpected_ctx_->fault_reset_issued &&
                 unexpected_ctx_->drained.empty()) {
        co_await degrade_alpu(*unexpected_ctx_, /*is_posted=*/false,
                              /*parity=*/true);
        did_work = true;
      }
    }

    // Action 4: update the ALPUs (batch-insert any unsynced suffix).
    // A full ALPU is left alone until matches free slots — otherwise the
    // firmware would spin issuing empty insert sessions forever.
    //
    // The posted-receive ALPU is additionally gated on "no probes
    // answered but not yet processed" (rx backlog or drained results):
    // a MATCH FAILURE produced before an insert session is stale with
    // respect to that session's entries, and acting on it would lose a
    // match MPI semantics requires.  Probes that arrive once the session
    // is underway are safe — the unit holds failed matches for retry
    // until STOP INSERT (Section III-C).
    if (posted_ctx_.has_value() && rx_fifo_.empty() &&
        posted_ctx_->drained.empty() &&
        posted_.size() >= posted_ctx_->synced + effective_min_batch &&
        posted_ctx_->synced < posted_ctx_->unit->capacity() &&
        posted_.size() >= config_.alpu_policy.insert_threshold) {
      co_await update_alpu(*posted_ctx_, /*is_posted=*/true);
      did_work = true;
    }
    if (unexpected_ctx_.has_value() &&
        unexpected_.size() >= unexpected_ctx_->synced + effective_min_batch &&
        unexpected_ctx_->synced < unexpected_ctx_->unit->capacity() &&
        unexpected_.size() >= config_.alpu_policy.insert_threshold) {
      co_await update_alpu(*unexpected_ctx_, /*is_posted=*/false);
      did_work = true;
    }

    if (did_work) {
      const TimePs t = instr(config_.costs.loop_overhead_cycles);
      co_await busy(t);
    } else {
      co_await work_.wait(eng);
    }
  }
}

// ---------------------------------------------------------------------------
// ALPU result retrieval
// ---------------------------------------------------------------------------

sim::Process Nic::read_match_result(AlpuCtx& ctx, std::uint64_t expected_seq,
                                    hw::Response* out) {
  // Results drained during an insert session are consumed first; they
  // are strictly older than anything still in the result FIFO.
  if (!ctx.drained.empty()) {
    *out = ctx.drained.front();
    ctx.drained.pop_front();
    // Responses that predate a parity-triggered reset were verified at
    // their own match time, so they stay deliverable — but the synced
    // prefix beneath them is gone (see degrade_alpu).
    if (ctx.stale_ok > 0) {
      --ctx.stale_ok;
      ctx.last_from_stale = true;
    } else {
      ctx.last_from_stale = false;
    }
    ALPU_ASSERT(out->probe_seq == expected_seq, "drained response out of order with packet stream");
    const TimePs t = instr(config_.costs.alpu_poll_cycles);
    co_await busy(t);
    co_return;
  }
  for (;;) {
    // Result retrieval: a status read plus a data read across the local
    // bus (Section VI-B attributes the ~80 ns zero-queue penalty to this
    // forced processor/ALPU interaction), plus bookkeeping.
    const TimePs t =
        config_.costs.alpu_result_bus_reads * config_.bus_ps +
        instr(config_.costs.alpu_poll_cycles);
    co_await busy(t);
    auto r = ctx.unit->pop_result();
    if (!r.has_value()) continue;  // spin: result not ready yet
    ALPU_ASSERT(r->kind != hw::ResponseKind::kStartAck, "unexpected START ACK outside an insert session");
    ALPU_ASSERT(r->probe_seq == expected_seq, "response/probe order violated");
    ctx.last_from_stale = false;
    *out = *r;
    co_return;
  }
}

// ---------------------------------------------------------------------------
// ALPU update (Section IV-C insert protocol)
// ---------------------------------------------------------------------------

sim::Process Nic::update_alpu(AlpuCtx& ctx, bool is_posted) {
  const std::size_t list_size = is_posted ? posted_.size() : unexpected_.size();
  std::size_t pending = list_size - ctx.synced;
  if (pending == 0) co_return;
  // A quarantined unit ignores its planes until RESET: inserting into it
  // would be lost work.  The recovery sweep (or the probe path) resets
  // it first; this session retries on a later iteration.
  if (ctx.unit->fault_pending()) co_return;

  if (is_posted) {
    // Turn header replication on BEFORE anything can be inserted, so
    // every packet delivered from this instant carries a probe (the
    // rx-empty gate in the caller covers everything delivered earlier).
    posted_probe_enabled_ = true;
    posted_degraded_ = false;  // re-shadowing ends any fallback episode
  }

  ++stats_.alpu_insert_sessions;

  // START INSERT (one bus write).
  TimePs t = config_.bus_ps + instr(config_.costs.alpu_cmd_cycles);
  co_await busy(t);
  if (!ctx.unit->push_command(hw::Command{hw::CommandKind::kStartInsert,
                                          0, 0, 0})) {
    co_return;  // command FIFO full; retry next loop iteration
  }

  // Drain the result FIFO until START ACKNOWLEDGE; anything else is a
  // match result for a packet still queued behind us (Section IV-C).
  std::uint32_t granted = 0;
  bool stale_failure = false;
  for (;;) {
    const TimePs poll =
        config_.bus_ps + instr(config_.costs.alpu_poll_cycles);
    co_await busy(poll);
    auto r = ctx.unit->pop_result();
    if (!r.has_value()) continue;
    if (r->kind == hw::ResponseKind::kStartAck) {
      granted = r->free_slots;
      break;
    }
    // A failure that slipped in between our emptiness check and the
    // unit entering insert mode would be stale once we insert: its
    // packet must re-search against the entries this session would add.
    // Abort the session; the packet is processed first, then we retry.
    // A PARITY FAULT aborts for the same reason with more force: the
    // unit quarantined itself, so the session's inserts would be lost —
    // the packet's consumer runs the scrub-and-rebuild path first.
    if (r->kind == hw::ResponseKind::kMatchFailure ||
        r->kind == hw::ResponseKind::kParityFault) {
      stale_failure = true;
    }
    ctx.drained.push_back(*r);
  }
  if (is_posted && stale_failure) {
    const TimePs t2 = config_.bus_ps + instr(config_.costs.alpu_cmd_cycles);
    co_await busy(t2);
    const bool ok_stop = ctx.unit->push_command(
        hw::Command{hw::CommandKind::kStopInsert, 0, 0, 0});
    ALPU_ASSERT(ok_stop, "command FIFO overflow on abort STOP INSERT");
    (void)ok_stop;
    co_return;
  }

  const std::size_t batch = std::min({pending,
                                      static_cast<std::size_t>(granted),
                                      config_.alpu_policy.max_batch});
  ALPU_LOGF(LogLevel::kTrace, engine().now(), name(),
               "alpu insert session ({}): pending={} granted={} batch={}",
               is_posted ? "posted" : "unexpected", pending, granted, batch);
  for (std::size_t i = 0; i < batch; ++i) {
    // An INSERT carries match bits (+ mask for the posted flavour) and
    // the tag: two bus writes.
    const TimePs w = 2 * config_.bus_ps + instr(config_.costs.alpu_cmd_cycles);
    co_await busy(w);
    hw::Command cmd;
    cmd.kind = hw::CommandKind::kInsert;
    if (is_posted) {
      const match::PostedEntry& e = posted_.at(ctx.synced + i);
      cmd.bits = e.pattern.bits;
      cmd.mask = e.pattern.mask;
      cmd.cookie = e.cookie;
    } else {
      const match::UnexpectedEntry& e = unexpected_.at(ctx.synced + i);
      cmd.bits = e.word;
      cmd.mask = 0;
      cmd.cookie = e.cookie;
    }
    const bool ok = ctx.unit->push_command(cmd);
    ALPU_ASSERT(ok, "command FIFO overflow during granted insert batch");
    (void)ok;
    ++stats_.alpu_entries_inserted;
    // Periodically clear successful matches so the result FIFO cannot
    // fill while we hold the unit in insert mode.
    while (ctx.unit->result_available()) {
      const TimePs poll =
          config_.bus_ps + instr(config_.costs.alpu_poll_cycles);
      co_await busy(poll);
      auto r = ctx.unit->pop_result();
      if (r.has_value()) ctx.drained.push_back(*r);
    }
  }
  ctx.synced += batch;

  // STOP INSERT.
  t = config_.bus_ps + instr(config_.costs.alpu_cmd_cycles);
  co_await busy(t);
  const bool ok = ctx.unit->push_command(
      hw::Command{hw::CommandKind::kStopInsert, 0, 0, 0});
  ALPU_ASSERT(ok, "command FIFO overflow on STOP INSERT");
  (void)ok;

  // A completed re-shadow session after a parity-triggered reset closes
  // the scrub-and-rebuild episode.
  if (ctx.rebuild_pending) {
    ctx.rebuild_pending = false;
    ++stats_.rebuilds;
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation (header-FIFO back-pressure)
// ---------------------------------------------------------------------------

sim::Process Nic::degrade_alpu(AlpuCtx& ctx, bool is_posted, bool parity) {
  if (parity) {
    // Scrub-and-rebuild: responses drained before the fault latched were
    // parity-verified at their own match time (detection precedes every
    // result), so they stay deliverable.  Their entries are no longer
    // shadowed once `synced` resets below, so flag them to waive the
    // synced-prefix check when they are consumed.
    ctx.stale_ok = ctx.drained.size();
    ctx.fault_reset_issued = true;
  } else {
    // Every probed packet ahead of the trigger has already consumed its
    // response (rx order == probe order), so nothing drained is pending.
    ALPU_DEBUG_ASSERT(ctx.drained.empty(),
                      "degrading an ALPU with undrained responses");
  }
  ++stats_.alpu_fallback_resets;
  if (is_posted) {
    posted_probe_enabled_ = false;  // idempotent: rejection cleared it
    posted_degraded_ = true;
  }
  ALPU_LOGF(LogLevel::kDebug, engine().now(), name(),
               "alpu fallback ({}): resetting unit, synced={} forgotten",
               is_posted ? "posted" : "unexpected", ctx.synced);
  // RESET is honoured from Read Command and the command FIFO is serviced
  // in order, so any in-flight session commands land first.  Spin at bus
  // cost while the FIFO is full.
  for (;;) {
    const TimePs t = config_.bus_ps + instr(config_.costs.alpu_cmd_cycles);
    co_await busy(t);
    if (ctx.unit->push_command(hw::Command{hw::CommandKind::kReset, 0, 0, 0}))
      break;
  }
  // The software lists remain authoritative; forget the shadow copy.
  ctx.synced = 0;
  if (parity) {
    // The episode completes with a re-shadow (Action 4); when there is
    // nothing to re-shadow, the RESET alone restores the unit.
    if ((is_posted ? posted_.size() : unexpected_.size()) == 0) {
      ++stats_.rebuilds;
    } else {
      ctx.rebuild_pending = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Incoming packets
// ---------------------------------------------------------------------------

sim::Process Nic::handle_packet(RxItem item) {
  const net::Packet& p = item.packet;
  TimePs t = instr(config_.costs.parse_packet_cycles);

  switch (p.kind) {
    case net::PacketKind::kEager:
    case net::PacketKind::kRtsRendezvous: {
      if (p.kind == net::PacketKind::kEager) {
        ++stats_.eager_rx;
      } else {
        ++stats_.rendezvous_rx;
      }
      ++stats_.posted_searches;

      // Resolve the admission-time pledge, if any (posted-match bypass;
      // see try_admit).  Cookie 0 is never allocated, so it is a safe
      // "no pledge" sentinel for the promise-aware searches below.
      MatchPromise promise{};
      bool has_promise = false;
      if (const MatchPromise* pr = match_promises_.find(promise_key(p))) {
        promise = *pr;
        has_promise = true;
      }

      bool matched = false;
      match::Cookie cookie = 0;

      if (posted_ctx_.has_value() && item.probe_seq.has_value()) {
        co_await busy(t);
        t = 0;
        hw::Response r;
        co_await read_match_result(*posted_ctx_, *item.probe_seq, &r);
        if (r.kind == hw::ResponseKind::kMatchSuccess) {
          ++stats_.alpu_posted_hits;
          matched = true;
          cookie = r.cookie;
          // The cookie points straight at the entry: one state-line
          // touch, no list walk.  Stale (pre-parity-reset) responses are
          // still valid matches but their entries are no longer shadowed.
          const std::size_t index = posted_index_of(cookie);
          ALPU_ASSERT(posted_ctx_->last_from_stale ||
                          index < posted_ctx_->synced,
                      "ALPU matched an entry outside its synced prefix");
          t += erase_cost(posted_info_.at(cookie).state_line);
          erase_posted(index);
        } else {
          if (r.kind == hw::ResponseKind::kParityFault) {
            // The unit quarantined itself on a parity mismatch: its
            // answer for this probe is unusable.  Reset it (scrub-and-
            // rebuild) unless a reset is already queued or has already
            // landed, then fall back to a full software walk — after the
            // reset `synced` is 0, so the search-from-synced below
            // covers the whole list.
            if (posted_ctx_->unit->fault_pending() &&
                !posted_ctx_->fault_reset_issued) {
              co_await busy(t);
              t = 0;
              co_await degrade_alpu(*posted_ctx_, /*is_posted=*/true,
                                    /*parity=*/true);
            }
            ++stats_.alpu_fallback_searches;
          } else {
            ++stats_.alpu_posted_misses;
          }
          // Search the portion not yet loaded into the ALPU.
          const auto res = posted_search_from(posted_ctx_->synced,
                                              p.match_bits, promise.cookie);
          t += walk_cost_posted(posted_ctx_->synced, res.visited);
          if (res.found) {
            matched = true;
            cookie = res.cookie;
            t += erase_cost(posted_info_.at(cookie).state_line);
            erase_posted(res.index);
          }
        }
      } else {
        if (posted_ctx_.has_value() && posted_ctx_->synced > 0) {
          // An un-probed packet reached the head while the unit still
          // holds entries: header-FIFO back-pressure rejected its probe
          // (on_network_delivery).  The full software walk below would
          // erase entries the hardware still holds, so reset the unit
          // first and run degraded until Action 4 re-shadows the queue.
          co_await busy(t);
          t = 0;
          co_await degrade_alpu(*posted_ctx_, /*is_posted=*/true);
        }
        if (posted_degraded_) ++stats_.alpu_fallback_searches;
        // Baseline (or degraded): walk the full posted queue.
        const auto res = posted_search_from(0, p.match_bits, promise.cookie);
        t += walk_cost_posted(0, res.visited);
        if (res.found) {
          matched = true;
          cookie = res.cookie;
          t += erase_cost(posted_info_.at(cookie).state_line);
          erase_posted(res.index);
        }
      }

      // Retire the pledge now that matching has resolved.  If the
      // firmware matched a different entry than the pledged one (the
      // pledged entry was consumed through a path the pledge tables do
      // not cover), releasing the stale pledge makes that entry
      // matchable again — the scheme self-heals.
      if (has_promise) {
        match_promises_.erase(promise_key(p));
        if (promise.cookie != 0) promised_posted_.erase(promise.cookie);
        if (!matched && !promise.reserved) {
          // Safety valve: a bypass-admitted packet whose pledged entry
          // vanished lands in the unexpected queue, which must hold a
          // reservation.  Forced (non-enforcing) reserve keeps the
          // occupancy accounting honest even if it transiently
          // overshoots the budget.
          reserve_eager(p, /*enforce=*/false);
        }
      }
      const bool budget_reserved = !has_promise || promise.reserved;

      ALPU_LOGF(LogLevel::kDebug, engine().now(), name(),
                   "rx {} from {}: {}", match::to_string(
                       match::unpack(p.match_bits)),
                   p.src, matched ? "matched" : "unexpected");
      if (matched) {
        co_await deliver_to_posted(cookie, p, t, budget_reserved);
      } else {
        // Append to the unexpected queue.
        const EntryAddrs addrs = alloc_entry();
        const match::Cookie ck = next_cookie_++;
        unexpected_.append(
            match::UnexpectedEntry{p.match_bits, ck, addrs.match_line});
        unexpected_info_[ck] = UnexpectedInfo{p.kind, p.payload_bytes,
                                              p.token, p.src,
                                              addrs.state_line};
        ++stats_.unexpected_appends;
        stats_.unexpected_depth_peak = std::max<std::uint64_t>(
            stats_.unexpected_depth_peak, unexpected_.size());
        t += append_cost(addrs);
        co_await busy(t);
      }
      co_return;
    }

    case net::PacketKind::kCtsRendezvous: {
      // Sender side: our RTS was matched; stream the payload.
      const RdvzSendState* found = rdvz_send_.find(p.token);
      ALPU_ASSERT(found != nullptr, "CTS with unknown token");
      const RdvzSendState st = *found;
      rdvz_send_.erase(p.token);
      t += instr(config_.costs.rendezvous_cycles);
      co_await busy(t);
      tx_dma_.request(st.bytes, [this, st, token = p.token] {
        // Cut-through injection at DMA completion (as for eager sends).
        net::Packet data;
        data.src = node_;
        data.dst = st.dst;
        data.kind = net::PacketKind::kRendezvousData;
        data.payload_bytes = st.bytes;
        data.token = token;
        reliability_.send(data);
        ++stats_.packets_tx;
        enqueue_advance(Completion{st.req_id, st.bytes, 0});
      });
      co_return;
    }

    case net::PacketKind::kRendezvousData: {
      // Receiver side: the bulk payload for an earlier CTS.
      const RdvzRecvState* found = rdvz_recv_.find(p.token);
      ALPU_ASSERT(found != nullptr, "DATA with unknown token");
      const RdvzRecvState st = *found;
      rdvz_recv_.erase(p.token);
      t += instr(config_.costs.rendezvous_cycles);
      co_await busy(t);
      const std::uint32_t bytes = std::min(p.payload_bytes, st.max_bytes);
      const Completion done{st.req_id, bytes, st.match_bits};
      rx_dma_.request(bytes, [this, done] { enqueue_advance(done); });
      co_return;
    }

    case net::PacketKind::kAck:
    case net::PacketKind::kRnrNack:
      ALPU_CHECK_FAIL("reliability control packet reached the firmware");
  }
}

sim::Process Nic::deliver_to_posted(match::Cookie cookie,
                                    const net::Packet& packet,
                                    TimePs accrued, bool budget_reserved) {
  const PostedInfo* found = posted_info_.find(cookie);
  ALPU_ASSERT(found != nullptr, "posted cookie missing from the info map");
  const PostedInfo info = *found;
  posted_info_.erase(cookie);

  // Matched straight to a posted receive: the envelope slot frees now;
  // eager payload bytes stay pinned until the delivery DMA completes.
  // Bypass-admitted packets (posted-match bypass, try_admit) never
  // reserved, so there is nothing to release.
  if (budget_reserved) release_eager_slot();

  TimePs t = accrued + instr(config_.costs.delivery_setup_cycles);

  if (packet.kind == net::PacketKind::kEager) {
    const std::uint32_t bytes =
        std::min(packet.payload_bytes, info.max_bytes);
    co_await busy(t);
    const Completion done{info.req_id, bytes, packet.match_bits};
    rx_dma_.request(bytes, [this, done, pinned = packet.payload_bytes,
                            budget_reserved] {
      if (budget_reserved) release_eager_bytes(pinned);
      enqueue_advance(done);
    });
    co_return;
  }

  // Rendezvous RTS matched a posted receive: reply CTS and wait for data.
  ALPU_ASSERT(packet.kind == net::PacketKind::kRtsRendezvous,
              "non-rendezvous packet on the rendezvous path");
  t += instr(config_.costs.rendezvous_cycles);
  rdvz_recv_[packet.token] = RdvzRecvState{info.buffer, info.max_bytes,
                                           info.req_id, packet.match_bits};
  co_await busy(t);
  net::Packet cts;
  cts.src = node_;
  cts.dst = packet.src;
  cts.kind = net::PacketKind::kCtsRendezvous;
  cts.token = packet.token;
  reliability_.send(cts);
  ++stats_.packets_tx;
}

// ---------------------------------------------------------------------------
// Host requests
// ---------------------------------------------------------------------------

void Nic::inject_matchable(const net::Packet& packet, std::uint64_t ticket) {
  TxOrder& ord = tx_order_[packet.dst];
  if (ticket != ord.due) {
    // Sorted insert by ticket (the parked set is the handful of legs in
    // flight toward one peer, so the shift is short).  The vector keeps
    // its capacity across releases; count the rare growth.
    const std::size_t old_cap = ord.parked.capacity();
    const auto it = std::lower_bound(
        ord.parked.begin(), ord.parked.end(), ticket,
        [](const std::pair<std::uint64_t, net::Packet>& held,
           std::uint64_t t) { return held.first < t; });
    ord.parked.emplace(it, ticket, packet);
    if (ord.parked.capacity() != old_cap) {
      ++stats_.control_allocs;
      stats_.control_bytes +=
          ord.parked.capacity() * sizeof(ord.parked.front());
    }
    return;
  }
  reliability_.send(packet);
  ++stats_.packets_tx;
  // Release the consecutive run of parked successors (a sorted prefix).
  std::uint64_t due = ticket + 1;
  std::size_t released = 0;
  while (released < ord.parked.size() &&
         ord.parked[released].first == due) {
    reliability_.send(ord.parked[released].second);
    ++stats_.packets_tx;
    ++due;
    ++released;
  }
  if (released > 0) {
    // Front-erase keeps the reserved capacity: no allocation.
    ord.parked.erase(ord.parked.begin(),
                     ord.parked.begin() +
                         static_cast<std::ptrdiff_t>(released));
  }
  ord.due = due;
}

sim::Process Nic::handle_request(HostRequest request) {

  if (request.kind == RequestKind::kSend) {
    TimePs t = instr(config_.costs.send_setup_cycles);
    // Matching order at the receiver must follow request order here, so
    // both eager and rendezvous legs draw their wire-order ticket while
    // the firmware still holds the request (inject_matchable).
    const std::uint64_t ticket = tx_order_[request.dst].next++;
    const bool demoted = peer_demoted(request.dst);
    if (demoted && request.send_bytes <= config_.eager_threshold) {
      // Repeat RNR refusals from this peer: route even small sends
      // through rendezvous, whose DATA leg lands in a posted host
      // buffer and is never admission-refused — guaranteed progress.
      ++stats_.demoted_sends;
    }
    if (request.send_bytes <= config_.eager_threshold && !demoted) {
      co_await busy(t);
      // Pull the payload from host memory.  The Tx path is cut-through
      // hardware: the packet enters the wire straight from the DMA
      // completion (the firmware staged the descriptor above and is free
      // to do other work); only the host completion record needs the
      // processor again.  An eager send is complete once the data has
      // left the host buffer.
      tx_dma_.request(request.send_bytes, [this, request, ticket] {
        net::Packet pkt;
        pkt.src = node_;
        pkt.dst = request.dst;
        pkt.kind = net::PacketKind::kEager;
        pkt.match_bits = match::pack(request.envelope);
        pkt.payload_bytes = request.send_bytes;
        inject_matchable(pkt, ticket);
        enqueue_advance(Completion{request.req_id, request.send_bytes, 0});
      });
      co_return;
    }
    // Rendezvous: send the RTS header now; data moves on CTS.
    const std::uint64_t token =
        (static_cast<std::uint64_t>(node_) << 40) | next_token_++;
    rdvz_send_[token] = RdvzSendState{request.send_buffer,
                                      request.send_bytes, request.req_id,
                                      request.dst};
    t += instr(config_.costs.rendezvous_cycles);
    co_await busy(t);
    net::Packet rts;
    rts.src = node_;
    rts.dst = request.dst;
    rts.kind = net::PacketKind::kRtsRendezvous;
    rts.match_bits = match::pack(request.envelope);
    rts.payload_bytes = request.send_bytes;
    rts.token = token;
    inject_matchable(rts, ticket);
    co_return;
  }

  // ---- post receive ----
  ALPU_ASSERT(request.kind == RequestKind::kPostRecv,
              "non-post-recv request on the post-recv path");
  ++stats_.unexpected_searches;
  TimePs t = instr(config_.costs.post_recv_cycles);

  bool matched = false;
  match::Cookie cookie = 0;

  bool use_alpu = unexpected_ctx_.has_value() && unexpected_ctx_->synced > 0;
  if (use_alpu) {
    // Feed the receive to the unexpected-message ALPU as a probe (one
    // bus write carrying bits + mask), then collect the verdict.  An
    // empty unit is skipped entirely — the probing overhead would buy
    // nothing (the Section IV-B "only use it when adequately long"
    // heuristic applied on the probe side).
    const std::uint64_t seq = unexpected_ctx_->next_probe_seq++;
    t += config_.bus_ps + instr(config_.costs.alpu_cmd_cycles);
    co_await busy(t);
    t = 0;
    const hw::Probe probe{request.pattern.bits, request.pattern.mask, seq};
    bool pushed = unexpected_ctx_->unit->push_probe(probe);
    // Firmware pacing keeps at most one unexpected probe outstanding, so
    // a sanely-sized header FIFO never refuses one; a refusal means a
    // hostile configuration (depth-1 FIFOs in robustness tests).  The
    // probe left no trace in the unit, so it is simply re-offered after
    // a bus-paced poll (ProtocolSpec op kProbeRejected), and after a
    // bounded number of refusals the firmware gives up on the unit.
    for (unsigned retry = 0; !pushed && retry < 8; ++retry) {
      ++stats_.alpu_probe_retries;
      const TimePs w = config_.bus_ps + instr(config_.costs.alpu_poll_cycles);
      co_await busy(w);
      pushed = unexpected_ctx_->unit->push_probe(probe);
    }
    if (pushed) {
      hw::Response r;
      co_await read_match_result(*unexpected_ctx_, seq, &r);
      if (r.kind == hw::ResponseKind::kMatchSuccess) {
        ++stats_.alpu_unexpected_hits;
        matched = true;
        cookie = r.cookie;
        ALPU_ASSERT(unexpected_ctx_->last_from_stale ||
                        unexpected_index_of(cookie) < unexpected_ctx_->synced,
                    "ALPU hit on an entry never synced into the unit");
        t += erase_cost(unexpected_info_.at(cookie).state_line);
        // Delivery below erases via deliver_from_unexpected.
      } else {
        if (r.kind == hw::ResponseKind::kParityFault) {
          // Parity fault: reset the quarantined unit (scrub-and-rebuild)
          // and fall back to software for this receive.  `synced` is 0
          // after the reset, so search-from-synced is the full walk.
          if (unexpected_ctx_->unit->fault_pending() &&
              !unexpected_ctx_->fault_reset_issued) {
            co_await busy(t);
            t = 0;
            co_await degrade_alpu(*unexpected_ctx_, /*is_posted=*/false,
                                  /*parity=*/true);
          }
          ++stats_.alpu_fallback_searches;
        } else {
          ++stats_.alpu_unexpected_misses;
        }
        const auto res = unexpected_.search_from(unexpected_ctx_->synced,
                                                 request.pattern);
        t += walk_cost_unexpected(unexpected_ctx_->synced, res.visited);
        if (res.found) {
          matched = true;
          cookie = res.cookie;
          t += erase_cost(unexpected_info_.at(cookie).state_line);
        }
      }
    } else {
      // Retries exhausted: fall back to pure software for this unit.
      ++stats_.alpu_probe_rejections;
      co_await degrade_alpu(*unexpected_ctx_, /*is_posted=*/false);
      ++stats_.alpu_fallback_searches;
      use_alpu = false;
    }
  }
  if (!use_alpu) {
    // Baseline, or the ALPU holds nothing: full software search.
    const auto res = unexpected_.search(request.pattern);
    t += walk_cost_unexpected(0, res.visited);
    if (res.found) {
      matched = true;
      cookie = res.cookie;
      t += erase_cost(unexpected_info_.at(cookie).state_line);
    }
  }

  ALPU_LOGF(LogLevel::kDebug, engine().now(), name(),
               "post recv {}: {}", match::to_string(request.pattern),
               matched ? "matched unexpected" : "queued");
  if (matched) {
    co_await deliver_from_unexpected(cookie, request, t);
    co_return;
  }

  // No unexpected match: append to the posted-receive queue.  The search
  // plus append is atomic with respect to arrivals because the firmware
  // is single-threaded (the paper's required atomicity).
  const EntryAddrs addrs = alloc_entry();
  const match::Cookie ck = next_cookie_++;
  posted_.append(match::PostedEntry{request.pattern, ck, addrs.match_line});
  posted_info_[ck] = PostedInfo{request.recv_buffer, request.recv_max_bytes,
                                request.req_id, addrs.state_line};
  // Posted-match bypass bookkeeping (try_admit): packets admitted before
  // this receive was posted but not yet matched sit in rx_fifo_, and the
  // firmware will match them before any later arrival.  Pledge the new
  // entry to the first of them that matches so a newer packet's
  // admission probe cannot claim it out of order.
  if (budget_limited() && reliability_.enabled()) {
    for (const RxItem& pending : rx_fifo_) {
      const net::Packet& q = pending.packet;
      if (q.kind != net::PacketKind::kEager &&
          q.kind != net::PacketKind::kRtsRendezvous) {
        continue;
      }
      if (!request.pattern.matches(q.match_bits)) continue;
      MatchPromise* mp = match_promises_.find(promise_key(q));
      ALPU_DEBUG_ASSERT(mp != nullptr,
                        "admitted packet missing its pledge record");
      if (mp == nullptr || mp->cookie != 0) continue;
      mp->cookie = ck;
      promised_posted_[ck] = 1;
      break;
    }
  }
  ++stats_.posted_appends;
  t += append_cost(addrs);
  co_await busy(t);
}

sim::Process Nic::deliver_from_unexpected(match::Cookie cookie,
                                          const HostRequest& request,
                                          TimePs accrued) {
  const std::size_t index = unexpected_index_of(cookie);
  const UnexpectedInfo* found = unexpected_info_.find(cookie);
  ALPU_ASSERT(found != nullptr,
              "unexpected cookie missing from the info map");
  const UnexpectedInfo info = *found;
  const match::MatchWord bits = unexpected_.at(index).word;
  erase_unexpected(index);

  TimePs t = accrued + instr(config_.costs.delivery_setup_cycles);

  if (info.kind == net::PacketKind::kEager) {
    // The payload was buffered in NIC memory on arrival; stream it to
    // the host buffer now.
    const std::uint32_t bytes = std::min(info.bytes, request.recv_max_bytes);
    co_await busy(t);
    const Completion done{request.req_id, bytes, bits};
    rx_dma_.request(bytes, [this, done, pinned = info.bytes] {
      release_eager_bytes(pinned);
      enqueue_advance(done);
    });
    co_return;
  }

  // A buffered RTS: reply CTS now that a receive is posted.
  ALPU_ASSERT(info.kind == net::PacketKind::kRtsRendezvous,
              "non-rendezvous unexpected entry on the rendezvous path");
  t += instr(config_.costs.rendezvous_cycles);
  rdvz_recv_[info.token] = RdvzRecvState{request.recv_buffer,
                                         request.recv_max_bytes,
                                         request.req_id, bits};
  co_await busy(t);
  net::Packet cts;
  cts.src = node_;
  cts.dst = info.src;
  cts.kind = net::PacketKind::kCtsRendezvous;
  cts.token = info.token;
  reliability_.send(cts);
  ++stats_.packets_tx;
}

// ---------------------------------------------------------------------------
// Eager-resource budget (receiver admission + sender flow state)
// ---------------------------------------------------------------------------

bool Nic::reserve_eager(const net::Packet& packet, bool enforce) {
  const std::uint64_t bytes = packet.kind == net::PacketKind::kEager
                                  ? packet.payload_bytes
                                  : 0;  // RTS pins an envelope slot only
  if (enforce) {
    if (config_.unexpected_slots > 0 &&
        eager_slots_used_ + 1 > config_.unexpected_slots) {
      return false;
    }
    if (config_.eager_pool_bytes > 0 &&
        eager_pool_used_ + bytes > config_.eager_pool_bytes) {
      return false;
    }
  }
  eager_pool_used_ += bytes;
  ++eager_slots_used_;
  stats_.eager_pool_peak_bytes =
      std::max(stats_.eager_pool_peak_bytes, eager_pool_used_);
  stats_.unexpected_slots_peak = std::max<std::uint64_t>(
      stats_.unexpected_slots_peak, eager_slots_used_);
  return true;
}

bool Nic::try_admit(const net::Packet& packet) {
  const bool reserved = reserve_eager(packet, /*enforce=*/true);
  // Posted-match bypass: pledge the first posted entry this packet
  // matches (skipping entries pledged to earlier in-flight packets).
  // This models the ALPU's line-rate posted-queue probe — the paper's
  // premise is exactly that this verdict is available at wire speed,
  // before any firmware runs.  Every admitted packet gets a pledge
  // record (cookie 0 when nothing matches yet) so the assignment stays
  // a faithful dry-run of firmware matching order: a later bypass
  // admission can never be promised an entry an earlier unprocessed
  // packet is about to consume, and a receive posted while packets sit
  // in rx_fifo_ is pledged to the first of them that matches it
  // (handle_request), never stolen by a newer arrival.
  match::Cookie pledged = 0;
  std::size_t from = 0;
  for (;;) {
    const match::SearchResult res = posted_.search_from(from,
                                                        packet.match_bits);
    if (!res.found) break;
    if (!promised_posted_.contains(res.cookie)) {
      pledged = res.cookie;
      break;
    }
    from = res.index + 1;
  }
  if (!reserved && pledged == 0) return false;
  if (pledged != 0) promised_posted_[pledged] = 1;
  match_promises_[promise_key(packet)] = MatchPromise{pledged, reserved};
  return true;
}

match::SearchResult Nic::posted_search_from(std::size_t first,
                                            match::MatchWord word,
                                            match::Cookie own_promise) const {
  std::size_t from = first;
  std::size_t visited = 0;
  for (;;) {
    match::SearchResult res = posted_.search_from(from, word);
    visited += res.visited;
    if (!res.found || res.cookie == own_promise ||
        !promised_posted_.contains(res.cookie)) {
      res.visited = visited;
      return res;
    }
    from = res.index + 1;
  }
}

std::uint64_t Nic::credit_bytes() const {
  if (config_.eager_pool_bytes == 0) return ~std::uint64_t{0};
  return config_.eager_pool_bytes - eager_pool_used_;
}

std::uint32_t Nic::credit_slots() const {
  if (config_.unexpected_slots == 0) return ~std::uint32_t{0};
  return config_.unexpected_slots - eager_slots_used_;
}

void Nic::release_eager_slot() {
  ALPU_DEBUG_ASSERT(eager_slots_used_ > 0, "eager slot double-release");
  --eager_slots_used_;
  if (budget_limited()) reliability_.notify_credit_released();
}

void Nic::release_eager_bytes(std::uint32_t bytes) {
  ALPU_DEBUG_ASSERT(eager_pool_used_ >= bytes, "eager pool double-release");
  eager_pool_used_ -= bytes;
  if (budget_limited()) reliability_.notify_credit_released();
}

bool Nic::peer_demoted(net::NodeId peer) const {
  const PeerFlow* flow = peer_flow_.find(peer);
  return flow != nullptr && flow->demoted;
}

void Nic::on_peer_rnr(net::NodeId peer, unsigned streak) {
  if (streak < config_.reliability.rnr_demote_after) return;
  PeerFlow& flow = peer_flow_[peer];
  if (flow.demoted) return;
  flow.demoted = true;
  ++stats_.rnr_demotions;
  ALPU_LOGF(LogLevel::kDebug, engine().now(), name(),
            "peer {} demoted to rendezvous after {} RNR refusals", peer,
            streak);
}

void Nic::on_peer_credit(net::NodeId peer, std::uint64_t bytes,
                         std::uint32_t slots) {
  PeerFlow* flow = peer_flow_.find(peer);
  if (flow == nullptr || !flow->demoted) return;
  // Re-promote once the peer advertises room for a full eager message:
  // anything less and the next small send would likely bounce again.
  if (slots >= 1 && bytes >= config_.eager_threshold) {
    flow->demoted = false;
    ++stats_.rnr_promotions;
  }
}

// ---------------------------------------------------------------------------
// Stall-watchdog introspection
// ---------------------------------------------------------------------------

bool Nic::undrained_work() const {
  // Quiescence (an empty event heap) with any of this pending means the
  // protocol wedged: no future event exists that could drain it.  Posted
  // and unexpected queue DEPTH is deliberately not in this list — idle
  // pre-posted receives or unconsumed unexpected messages at the end of
  // a run are legitimate workload outcomes, not stalls.
  std::size_t parked = 0;
  for (const TxOrder& ord : tx_order_) parked += ord.parked.size();
  return !rdvz_send_.empty() || !rdvz_recv_.empty() || parked > 0 ||
         !rx_fifo_.empty() || !host_fifo_.empty() ||
         !advance_fifo_.empty() || reliability_.undrained();
}

std::string Nic::stall_snapshot() const {
  std::size_t parked = 0;
  for (const TxOrder& ord : tx_order_) parked += ord.parked.size();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%s: postedQ=%zu unexpectedQ=%zu pool=%llu/%llu slots=%u/%u "
      "rdvz{send=%zu recv=%zu} parked=%zu fifo{rx=%zu host=%zu adv=%zu} "
      "rel{window=%zu rnr_paused=%zu credit_owed=%zu failed_links=%llu}",
      name().c_str(), posted_.size(), unexpected_.size(),
      static_cast<unsigned long long>(eager_pool_used_),
      static_cast<unsigned long long>(config_.eager_pool_bytes),
      eager_slots_used_, config_.unexpected_slots, rdvz_send_.size(),
      rdvz_recv_.size(), parked, rx_fifo_.size(), host_fifo_.size(),
      advance_fifo_.size(), reliability_.total_window_packets(),
      reliability_.rnr_paused_windows(), reliability_.credit_owed_peers(),
      static_cast<unsigned long long>(
          reliability_.stats().link_failures));
  std::string out(buf);
  // Queue heads (src:tag), capped: enough to see who a wedged receiver
  // is holding state for without flooding the dump.
  constexpr std::size_t kMaxListed = 8;
  for (std::size_t i = 0; i < unexpected_.size() && i < kMaxListed; ++i) {
    const match::Envelope env = match::unpack(unexpected_.at(i).word);
    std::snprintf(buf, sizeof(buf), "%s ux[%zu]=%u:%u",
                  i == 0 ? "\n    " : "", i, env.source, env.tag);
    out += buf;
  }
  for (std::size_t i = 0; i < posted_.size() && i < kMaxListed; ++i) {
    const match::Pattern& pat = posted_.at(i).pattern;
    const match::Envelope env = match::unpack(pat.bits);
    std::snprintf(buf, sizeof(buf), "%s post[%zu]=%u:%s",
                  i == 0 ? "\n    " : "", i, env.source,
                  pat.is_exact() ? std::to_string(env.tag).c_str() : "*");
    out += buf;
  }
  return out;
}

}  // namespace alpu::nic
