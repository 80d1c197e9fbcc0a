// Stage-level pipelined ALPU (Section V-D), on the RTL datapath.
//
// The transaction-level `Alpu` charges whole-operation latencies against
// an idealized array.  This model executes the actual pipeline:
//
//   stage 1   fan out the probe to the cell blocks (registered copies)
//   stage 2   every cell compares; match bits latch
//   stage 3   intra-block priority muxing
//   stage 4   cross-block priority reduction (1 cycle, 2 when >= 16
//             blocks — the Tables IV/V latency split)
//   stage 5   fan out the delete-location broadcast
//   stage 6   delete the matched cell (younger cells shift up)
//
// with the RtlAlpu providing the storage: inserts physically enter at
// cell 0 and drift toward the old end, so insert throughput shows the
// real block-boundary bubbles, and compaction proceeds in the
// background on every idle cycle.
//
// The Figure-3 control (insert mode, held failures, command legality)
// matches `Alpu` exactly; the differential test drives both models with
// identical stimulus and requires identical response streams.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "alpu/device.hpp"
#include "alpu/rtl.hpp"
#include "alpu/types.hpp"
#include "common/fifo.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {

struct PipelinedAlpuConfig {
  AlpuFlavor flavor = AlpuFlavor::kPostedReceive;
  std::size_t total_cells = 256;
  std::size_t block_size = 16;
  common::ClockPeriod clock = common::ClockPeriod::from_mhz(500);
  MatchWord significant_mask = match::kFullMask;
  std::size_t header_fifo_depth = 64;
  std::size_t command_fifo_depth = 64;
  std::size_t result_fifo_depth = 64;
  /// See AlpuConfig::assert_on_insert_drop.
  bool assert_on_insert_drop = false;
};

struct PipelinedAlpuStats {
  std::uint64_t probes_accepted = 0;
  std::uint64_t match_successes = 0;
  std::uint64_t match_failures = 0;
  std::uint64_t held_retries = 0;
  std::uint64_t inserts = 0;
  std::uint64_t inserts_dropped = 0;  ///< inserts past capacity (protocol violation)
  std::uint64_t insert_bubbles = 0;  ///< cycles stalled on cell-0 pressure
  std::uint64_t commands_discarded = 0;
  std::uint64_t resets = 0;
  std::uint64_t cycles = 0;
};

class PipelinedAlpu : public sim::Component, public AlpuDevice {
 public:
  PipelinedAlpu(sim::Engine& engine, std::string name,
                const PipelinedAlpuConfig& config);

  [[nodiscard]] bool push_probe(const Probe& probe) override;
  [[nodiscard]] bool push_command(const Command& cmd) override;
  std::optional<Response> pop_result() override;
  bool result_available() const override { return !result_fifo_.empty(); }
  void set_alloc_sink(common::AllocSink sink) override {
    header_fifo_.set_alloc_sink(sink);
    command_fifo_.set_alloc_sink(sink);
    result_fifo_.set_alloc_sink(sink);
  }
  std::size_t capacity() const override { return rtl_.capacity(); }
  std::size_t occupancy() const override { return rtl_.occupancy(); }
  /// Only `inserts_dropped`: the RTL datapath counts no probe work.
  common::MatchCounters counters() const override {
    return {.inserts_dropped = stats_.inserts_dropped};
  }

  const RtlAlpu& datapath() const { return rtl_; }
  const PipelinedAlpuStats& stats() const { return stats_; }
  bool in_insert_mode() const { return state_ == State::kInsertMode; }

  /// Pipeline depth for a match in this configuration (6 or 7).
  unsigned match_stages() const { return 5 + cross_block_cycles_; }

 private:
  enum class State : std::uint8_t { kMatch, kReadCommand, kInsertMode };
  enum class Op : std::uint8_t { kNone, kMatch, kInsert, kDecode };

  bool tick();
  bool start_next();
  void finish_match();
  void decode(const Command& cmd);
  void emit(Response r);

  PipelinedAlpuConfig config_;
  RtlAlpu rtl_;
  sim::Clock clock_;
  unsigned cross_block_cycles_;

  common::BoundedFifo<Probe> header_fifo_;
  common::BoundedFifo<Command> command_fifo_;
  common::BoundedFifo<Response> result_fifo_;

  State state_ = State::kMatch;
  Op op_ = Op::kNone;
  unsigned stage_left_ = 0;

  Probe current_probe_{};
  /// Latched at the compare stage (the architectural match point).
  ArrayMatch latched_match_{};
  std::optional<Cell> pending_insert_;
  std::optional<Probe> held_probe_;
  bool retry_pending_ = false;

  PipelinedAlpuStats stats_;
};

}  // namespace alpu::hw
