// Transaction-level model of the Associative List Processing Unit
// (Section III).
//
// The unit couples the functional match array (AlpuArray) with the
// paper's timing and protocol behaviour:
//
//   * three hardware FIFOs decouple it from the NIC processor — header
//     (probes in), command (processor requests in), result (responses
//     out) — exactly the dashed-line additions of Figure 1;
//   * the governing state machine of Figure 3: Match -> Read Command ->
//     (Insert mode) -> Match, with the command legality rules of
//     Section III-C (only RESET / START INSERT honoured from Read
//     Command; everything else discarded);
//   * pipeline timing from Section V-D: a new match every
//     `match_latency_cycles` (6-7, no execution overlap), inserts every
//     other cycle, results timestamped at completion;
//   * insert-mode safety: matching continues between inserts, successful
//     matches are reported, but a FAILED match is *held for retry* until
//     inserts finish — so MATCH FAILURE can never be observed between
//     START ACKNOWLEDGE and STOP INSERT, closing the race on in-flight
//     headers that would otherwise miss entries being inserted.
//
// The unit schedules no engine events.  Its pipeline has fixed latencies
// and no overlap, so it is computed lazily: every public call first
// brings the unit up to now, jumping from an operation's start edge
// straight to its finish edge (start + latency x period).  It keeps the
// edges a clocked unit would tick — each completion, one idle edge after
// a completion that starts nothing, the first edge after a wake — so
// every response carries the same timestamp the clocked unit gave it.
//
// The tie rule for an edge at exactly now:
//   * inside an event at time t (Engine::dispatching()), a call sees
//     every edge before t, and the edge at t happens after the call —
//     the clocked unit's tick at t was scheduled one period earlier,
//     after every NIC event due at t;
//   * between engine runs, a call sees every edge at or before t —
//     run_until(t) has already fired everything at t — except the first
//     edge of a wake made between runs at t, which waits until time
//     moves on, as a tick scheduled then would wait for the next run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "alpu/array.hpp"
#include "alpu/device.hpp"
#include "alpu/types.hpp"
#include "common/fifo.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {

struct AlpuConfig {
  AlpuFlavor flavor = AlpuFlavor::kPostedReceive;
  std::size_t total_cells = 256;
  std::size_t block_size = 16;

  /// ALPU clock.  The simulation results assume ASIC speed (~500 MHz,
  /// Section VI-A); the FPGA prototype runs ~100-112 MHz.
  common::ClockPeriod clock = common::ClockPeriod::from_mhz(500);

  /// Cycles from accepting a probe to its result (Section V-D assumes 7,
  /// with no overlap between successive matches).
  unsigned match_latency_cycles = 7;
  /// One insert may start every other cycle.
  unsigned insert_interval_cycles = 2;
  /// Cycles to pop and decode one command.
  unsigned command_decode_cycles = 1;

  /// Comparator wiring (42-bit MPI packing by default; include PID bits
  /// for the multi-process extension, or ~0 for full-width Portals).
  MatchWord significant_mask = match::kFullMask;

  std::size_t header_fifo_depth = 64;
  std::size_t command_fifo_depth = 64;
  std::size_t result_fifo_depth = 64;

  /// An INSERT past capacity is a software protocol violation: the unit
  /// records it in `inserts_dropped` and drops the entry silently, which
  /// is correct for the hardware but turns a driver bug into data loss.
  /// Drivers that only insert against granted credit (the NIC firmware)
  /// set this to trap the drop in checked builds; conformance tests and
  /// the model checker, which exercise the violation deliberately, leave
  /// it off and observe the counter.
  bool assert_on_insert_drop = false;

  /// Transient-fault model (SEU injection + parity + scrub).  The
  /// default (`seu.any() == false`) installs nothing and leaves every
  /// path byte-identical to the fault-free unit.
  SeuConfig seu;
};

struct AlpuStats {
  std::uint64_t probes_accepted = 0;
  std::uint64_t match_successes = 0;
  std::uint64_t match_failures = 0;
  std::uint64_t held_retries = 0;      ///< failed matches retried in insert mode
  std::uint64_t inserts = 0;
  std::uint64_t inserts_dropped = 0;   ///< protocol violation: insert when full
  std::uint64_t commands_discarded = 0;
  std::uint64_t resets = 0;
  std::uint64_t flushes = 0;           ///< RESET MATCHING sweeps
  std::uint64_t flushed_entries = 0;   ///< cells removed by those sweeps
  std::uint64_t busy_cycles = 0;
  /// Probes answered PARITY FAULT while the array was quarantined.
  std::uint64_t parity_fault_responses = 0;
};

/// The ALPU as a simulation component (transaction-level model).
class Alpu : public sim::Component, public AlpuDevice {
 public:
  Alpu(sim::Engine& engine, std::string name, const AlpuConfig& config);

  // ---- NIC-facing FIFO interface (flow-controlled) ----

  /// Deliver a probe on the header FIFO.  False == FIFO full (producer
  /// must apply back-pressure).
  [[nodiscard]] bool push_probe(const Probe& probe) override;

  /// Deliver a command on the command FIFO.
  [[nodiscard]] bool push_command(const Command& cmd) override;

  /// Take the oldest response, if any.
  std::optional<Response> pop_result() override;

  bool result_available() const override {
    catch_up();
    return !result_fifo_.empty();
  }
  void set_alloc_sink(common::AllocSink sink) override {
    header_fifo_.set_alloc_sink(sink);
    command_fifo_.set_alloc_sink(sink);
    result_fifo_.set_alloc_sink(sink);
  }

  // ---- introspection ----

  const AlpuConfig& config() const { return config_; }
  const AlpuArray& array() const {
    catch_up();
    return array_;
  }
  const AlpuStats& stats() const {
    catch_up();
    return stats_;
  }
  std::size_t capacity() const override { return array_.capacity(); }
  std::size_t occupancy() const override {
    catch_up();
    return array_.occupancy();
  }

  /// Externally visible mode (for tests): true while in insert mode.
  bool in_insert_mode() const {
    catch_up();
    return state_ == State::kInsertMode;
  }

  /// True while the unit sleeps: nothing changes until the next push or
  /// pop.  Standalone drivers step time until it holds.
  bool idle() const {
    catch_up();
    return !awake_;
  }

  /// End of a drained run: the unit must be asleep by the final time
  /// (ALPU_CHECKED), or the clocked unit would have ticked past it.
  void finish() override;

  // ---- transient-fault model ----

  /// True while the array is quarantined by a latched parity fault.
  bool fault_pending() const override {
    catch_up();
    return array_.quarantined();
  }
  SeuStats seu_stats() const override {
    catch_up();
    return array_.seu_stats();
  }
  /// Invoked when a background scrub (not a probe) latches a fault, so
  /// the NIC firmware learns about dormant corruption without traffic.
  // lint: ok(std-function-hot-path) — installed once at NIC setup;
  // fires once per fault episode, never on the probe path.
  void set_fault_callback(std::function<void()> cb) override {
    on_fault_ = std::move(cb);
  }
  /// Direct corruption for the checker's kCorrupt op and the fuzzers
  /// (see AlpuArray::corrupt_for_test).
  void corrupt_for_test(unsigned plane, std::size_t cell, unsigned bit) {
    catch_up();
    array_.corrupt_for_test(plane, cell, bit);
  }

 private:
  enum class State : std::uint8_t {
    kMatch,        ///< normal matching (Figure 3 "Match")
    kReadCommand,  ///< popped out of matching to decode a command
    kInsertMode,   ///< between START INSERT and STOP INSERT
  };

  /// Micro-operation occupying the (non-overlapped) pipeline.
  enum class Op : std::uint8_t {
    kNone,
    kDecode,
    kMatchProbe,
    kInsert,
    kFlush,  ///< RESET MATCHING sweep (multi-process extension)
  };

  /// Process every edge the tie rule (above) says has happened by now.
  void catch_up() const;
  /// Start ticking at the next edge >= now, if asleep.
  void wake();
  // The edge logic: each runs inside catch_up, at edge next_edge_.
  bool start_next_op() const;
  void complete_op() const;
  void complete_decode() const;
  void complete_match() const;
  void emit(const Response& r) const;
  bool scrub_tick();

  AlpuConfig config_;
  /// Background parity scrub (constructed always, woken only when
  /// enabled).  Parks after `scrub_idle_limit` sweeps with no unit
  /// activity so an idle unit lets the event heap drain.
  sim::Clock scrub_clock_;
  bool scrub_enabled_ = false;
  unsigned idle_scrubs_ = 0;
  std::uint64_t ops_since_scrub_ = 0;
  std::function<void()> on_fault_;  // lint: ok(std-function-hot-path) — fires once per fault episode

  // Everything the edges change.  mutable: the const readers catch the
  // unit up before they read, which only computes now what a clocked
  // unit would already have done.
  mutable AlpuArray array_;
  mutable common::BoundedFifo<Probe> header_fifo_;
  mutable common::BoundedFifo<Command> command_fifo_;
  mutable common::BoundedFifo<Response> result_fifo_;

  mutable bool awake_ = false;
  /// While awake: the edge the clocked unit would tick next — the finish
  /// edge of the operation in flight, or an edge that may start one.
  mutable common::TimePs next_edge_ = 0;
  /// next_edge_ was set by a wake between runs at that very time.
  mutable bool wake_deferred_ = false;

  mutable State state_ = State::kMatch;
  mutable Op op_ = Op::kNone;
  mutable unsigned op_cycles_ = 0;  ///< latency of the operation in flight

  mutable Probe current_probe_{};
  mutable Command current_command_{};
  /// Failed match held during insert mode.
  mutable std::optional<Probe> held_probe_;
  /// The held probe should re-match (post-insert).
  mutable bool retry_pending_ = false;

  mutable AlpuStats stats_;
};

}  // namespace alpu::hw
