#include "alpu/alpu.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace alpu::hw {

Alpu::Alpu(sim::Engine& engine, std::string name, const AlpuConfig& config)
    : sim::Component(engine, std::move(name)),
      config_(config),
      scrub_clock_(engine,
                   common::ClockPeriod(config.seu.scrub_interval_ps > 0
                                           ? config.seu.scrub_interval_ps
                                           : 1),
                   [this] { return scrub_tick(); }),
      array_(config.flavor, config.total_cells, config.block_size,
             config.significant_mask),
      header_fifo_(config.header_fifo_depth),
      command_fifo_(config.command_fifo_depth),
      result_fifo_(config.result_fifo_depth) {
  if (config_.seu.any()) {
    array_.install_fault_model(config_.seu, config_.seu.seed);
    if (config_.seu.scrub_interval_ps > 0) {
      scrub_enabled_ = true;
      scrub_clock_.wake();
    }
  }
}

bool Alpu::push_probe(const Probe& probe) {
  catch_up();
  if (!header_fifo_.try_push(probe)) return false;
  wake();
  if (scrub_enabled_) {
    ++ops_since_scrub_;
    scrub_clock_.wake();
  }
  return true;
}

bool Alpu::push_command(const Command& cmd) {
  catch_up();
  if (!command_fifo_.try_push(cmd)) return false;
  wake();
  if (scrub_enabled_) {
    ++ops_since_scrub_;
    scrub_clock_.wake();
  }
  return true;
}

std::optional<Response> Alpu::pop_result() {
  catch_up();
  auto r = result_fifo_.try_pop();
  // Draining the result FIFO may unblock a stalled match.
  if (r.has_value()) wake();
  return r;
}

void Alpu::finish() {
  ALPU_INVARIANT(idle(), "an ALPU edge outlasts the drained run");
}

void Alpu::wake() {
  if (awake_) return;
  awake_ = true;
  const sim::Engine& eng = engine();
  next_edge_ = config_.clock.next_edge(eng.now());
  // Between runs, a clocked unit's tick at now would wait for the
  // engine to run again.
  wake_deferred_ = !eng.dispatching() && next_edge_ == eng.now();
}

void Alpu::catch_up() const {
  if (!awake_) return;
  const sim::Engine& eng = engine();
  const common::TimePs now = eng.now();
  // The tie rule (alpu.hpp): the edge at now counts only between runs.
  const bool between_runs = !eng.dispatching();
  while (awake_ && (next_edge_ < now || (next_edge_ == now && between_runs &&
                                         !wake_deferred_))) {
    wake_deferred_ = false;
    const common::TimePs edge = next_edge_;
    // Catch the SEU injector up before any work this edge does: flips
    // land at deterministic tick boundaries regardless of sharding.
    array_.seu_advance(edge);
    if (op_ != Op::kNone) {
      stats_.busy_cycles += op_cycles_;
      complete_op();
      // A completion may chain a follow-up (the decode of RESET MATCHING
      // starts its sweep).  Otherwise the next op issues back to back on
      // this edge, one op per `latency` cycles (Section V-D); if none
      // can, the clocked unit still ticks the next edge once.
      if (op_ == Op::kNone && !start_next_op()) {
        next_edge_ = edge + config_.clock.period();
        continue;
      }
    } else if (!start_next_op()) {
      awake_ = false;  // an idle edge that starts nothing: sleep
      continue;
    }
    next_edge_ = edge + config_.clock.cycles(op_cycles_);
  }
}

void Alpu::emit(const Response& r) const {
  Response stamped = r;
  stamped.issued_at = next_edge_;  // the edge catch_up is processing
  result_fifo_.push(stamped);  // space guaranteed by start conditions
}

bool Alpu::scrub_tick() {
  catch_up();
  array_.seu_advance(engine().now());
  const bool was_quarantined = array_.quarantined();
  const bool quarantined = array_.scrub();
  if (!was_quarantined && quarantined && on_fault_) on_fault_();
  if (ops_since_scrub_ == 0) {
    if (++idle_scrubs_ >= config_.seu.scrub_idle_limit) {
      // Park until the next probe/command wakes us — a dormant unit
      // must not keep the event heap alive forever.
      idle_scrubs_ = 0;
      return false;
    }
  } else {
    idle_scrubs_ = 0;
  }
  ops_since_scrub_ = 0;
  return true;
}

bool Alpu::start_next_op() const {
  switch (state_) {
    case State::kMatch: {
      // The held probe (a retry forced out of insert mode) is the oldest
      // outstanding header: it must be answered before anything else so
      // that responses stay in probe order (Section IV-D relies on it).
      if (held_probe_.has_value() && !result_fifo_.full()) {
        current_probe_ = *held_probe_;
        ++stats_.held_retries;
        op_ = Op::kMatchProbe;
        op_cycles_ = config_.match_latency_cycles;
        return true;
      }
      if (!command_fifo_.empty() && !result_fifo_.full()) {
        state_ = State::kReadCommand;
        op_ = Op::kDecode;
        op_cycles_ = config_.command_decode_cycles;
        return true;
      }
      if (!header_fifo_.empty() && !result_fifo_.full()) {
        current_probe_ = header_fifo_.pop();
        ++stats_.probes_accepted;
        op_ = Op::kMatchProbe;
        op_cycles_ = config_.match_latency_cycles;
        return true;
      }
      return false;
    }
    case State::kReadCommand: {
      // Footnote 3: an empty command FIFO before a valid command causes a
      // transition back to the match state.
      if (command_fifo_.empty()) {
        state_ = State::kMatch;
        return start_next_op();
      }
      if (result_fifo_.full()) return false;  // START ACK needs a slot
      op_ = Op::kDecode;
      op_cycles_ = config_.command_decode_cycles;
      return true;
    }
    case State::kInsertMode: {
      if (!command_fifo_.empty()) {
        if (command_fifo_.front().kind == CommandKind::kInsert) {
          current_command_ = command_fifo_.pop();
          op_ = Op::kInsert;
          op_cycles_ = config_.insert_interval_cycles;
          return true;
        }
        op_ = Op::kDecode;
        op_cycles_ = config_.command_decode_cycles;
        return true;
      }
      if (retry_pending_ && held_probe_.has_value() && !result_fifo_.full()) {
        current_probe_ = *held_probe_;
        retry_pending_ = false;
        ++stats_.held_retries;
        op_ = Op::kMatchProbe;
        op_cycles_ = config_.match_latency_cycles;
        return true;
      }
      if (held_probe_.has_value()) {
        // A failed match is held: matching pauses until the next insert
        // gives it a chance, or STOP INSERT releases it.
        return false;
      }
      if (!header_fifo_.empty() && !result_fifo_.full()) {
        current_probe_ = header_fifo_.pop();
        ++stats_.probes_accepted;
        op_ = Op::kMatchProbe;
        op_cycles_ = config_.match_latency_cycles;
        return true;
      }
      return false;
    }
  }
  return false;
}

void Alpu::complete_op() const {
  const Op op = op_;
  op_ = Op::kNone;
  switch (op) {
    case Op::kDecode:
      complete_decode();
      break;
    case Op::kMatchProbe:
      complete_match();
      break;
    case Op::kInsert: {
      const bool ok = array_.insert(current_command_.bits,
                                    current_command_.mask,
                                    current_command_.cookie);
      if (ok) {
        ++stats_.inserts;
      } else {
        // Protocol violation: the processor inserted past the count it
        // was granted in START ACKNOWLEDGE.  Hardware has nowhere to put
        // the entry; record and drop.  Drivers that never overrun their
        // grant opt into trapping this (see AlpuConfig) — for them a
        // silent drop here is lost data, not a modelled condition.
        ALPU_DEBUG_ASSERT(!config_.assert_on_insert_drop,
                          "insert dropped by a full ALPU (grant overrun)");
        ++stats_.inserts_dropped;
      }
      // Every insert gives a held (previously failing) probe new
      // entries to match against.
      if (held_probe_.has_value()) retry_pending_ = true;
      break;
    }
    case Op::kFlush: {
      ++stats_.flushes;
      stats_.flushed_entries +=
          array_.invalidate_matching(Probe{current_command_.bits,
                                           current_command_.mask, 0});
      break;
    }
    case Op::kNone:
      ALPU_CHECK_FAIL("completed a non-existent operation");
      break;
  }
}

void Alpu::complete_decode() const {
  if (command_fifo_.empty()) {
    // The command vanished?  Cannot happen: commands are only consumed by
    // decode/insert ops.
    ALPU_CHECK_FAIL("decode with empty command FIFO");
    state_ = State::kMatch;
    return;
  }
  const Command cmd = command_fifo_.pop();
  if (state_ == State::kReadCommand) {
    switch (cmd.kind) {
      case CommandKind::kReset:
        array_.reset();
        ++stats_.resets;
        if (held_probe_.has_value()) {
          // The held header can never match a cleared array; answer it so
          // the processor still gets one response per header.
          emit(Response{ResponseKind::kMatchFailure, 0, 0,
                        held_probe_->seq, 0});
          ++stats_.match_failures;
          held_probe_.reset();
          retry_pending_ = false;
        }
        state_ = State::kMatch;
        break;
      case CommandKind::kStartInsert:
        emit(Response{ResponseKind::kStartAck, 0,
                      static_cast<std::uint32_t>(array_.free_slots()), 0, 0});
        state_ = State::kInsertMode;
        break;
      case CommandKind::kResetMatching:
        // Multi-process extension: valid in the same state as RESET.
        // The sweep broadcasts the selector and deletes per block; it
        // occupies the unit one cycle per cell block.
        ALPU_ASSERT(!held_probe_.has_value(),
                    "held probes are retired before commands are read");
        current_command_ = cmd;
        op_ = Op::kFlush;
        op_cycles_ = static_cast<unsigned>(
            std::max<std::size_t>(1, array_.capacity() / array_.block_size()));
        state_ = State::kMatch;
        return;  // flush op now occupies the pipeline
      default:
        // Section III-C: other commands are discarded in Read Command.
        ++stats_.commands_discarded;
        break;  // stay in kReadCommand; the next edge decodes the next command
    }
    return;
  }

  ALPU_ASSERT(state_ == State::kInsertMode,
              "insert-mode decode outside insert mode (Figure 3)");
  switch (cmd.kind) {
    case CommandKind::kStopInsert:
      state_ = State::kMatch;
      // Any held probe is re-matched in Match state (priority path) and
      // its result — success or, now legal again, failure — is emitted.
      retry_pending_ = false;
      break;
    case CommandKind::kStartInsert:
      // Redundant; already in insert mode.  Re-acknowledge so a processor
      // that lost the first ack is not deadlocked.
      emit(Response{ResponseKind::kStartAck, 0,
                    static_cast<std::uint32_t>(array_.free_slots()), 0, 0});
      break;
    default:
      ++stats_.commands_discarded;
      break;
  }
}

void Alpu::complete_match() const {
  const bool was_held = held_probe_.has_value() &&
                        held_probe_->seq == current_probe_.seq;
  ArrayMatch m{};
  if (!array_.quarantined()) m = array_.match_and_delete(current_probe_);
  if (array_.quarantined()) {
    // Parity fault (just detected by this probe's verify, or latched
    // earlier): the array's answer is untrustworthy, so report the
    // fault instead.  PARITY FAULT is reportable even in insert mode —
    // it is an error condition, not a match failure, and the processor
    // must abort the session and rebuild.  Carrying the seq preserves
    // the one-response-per-header pairing (Section IV-D).
    emit(Response{ResponseKind::kParityFault, 0, 0, current_probe_.seq, 0});
    ++stats_.parity_fault_responses;
    if (was_held) {
      held_probe_.reset();
      retry_pending_ = false;
    }
    return;
  }
  if (m.hit) {
    emit(Response{ResponseKind::kMatchSuccess, m.cookie, 0,
                  current_probe_.seq, 0});
    ++stats_.match_successes;
    if (was_held) {
      held_probe_.reset();
      retry_pending_ = false;
    }
    return;
  }
  if (state_ == State::kInsertMode) {
    // Failure is not reportable during insert mode; hold for retry.
    held_probe_ = current_probe_;
    return;
  }
  emit(Response{ResponseKind::kMatchFailure, 0, 0, current_probe_.seq, 0});
  ++stats_.match_failures;
  if (was_held) {
    held_probe_.reset();
    retry_pending_ = false;
  }
}

}  // namespace alpu::hw
