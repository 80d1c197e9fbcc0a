// The NIC-facing ALPU device interface.
//
// Two implementations exist at different fidelity:
//   * hw::Alpu           — transaction-level (whole-operation latencies
//                          against the idealized compacted array);
//   * hw::PipelinedAlpu  — stage-level (explicit pipeline stages over
//                          the RTL datapath with real compaction and
//                          insert bubbles).
// They are differentially tested to produce identical response streams;
// the firmware talks to either through this interface, and system-level
// experiments can be re-run at either fidelity as a cross-check.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "alpu/seu.hpp"
#include "alpu/types.hpp"
#include "common/dense.hpp"

namespace alpu::hw {

class AlpuDevice {
 public:
  virtual ~AlpuDevice() = default;

  /// Deliver a probe on the header FIFO (false == FIFO full).
  [[nodiscard]] virtual bool push_probe(const Probe& probe) = 0;
  /// Deliver a command on the command FIFO.
  [[nodiscard]] virtual bool push_command(const Command& cmd) = 0;
  /// Take the oldest response, if any.
  virtual std::optional<Response> pop_result() = 0;
  virtual bool result_available() const = 0;
  /// Count the header, command and result FIFOs' storage growths into
  /// `sink` (the NIC wires its control-path allocation counters).
  virtual void set_alloc_sink(common::AllocSink sink) = 0;

  /// Total cells in the match array.
  virtual std::size_t capacity() const = 0;
  /// Valid entries currently stored.
  virtual std::size_t occupancy() const = 0;

  // ---- transient-fault model (models without one use the defaults) ----

  /// True while the unit has latched a parity fault and is quarantined
  /// awaiting RESET + re-shadow.  The firmware polls this so dormant
  /// (scrub-detected) corruption is recovered without waiting for a
  /// probe to bounce.
  virtual bool fault_pending() const { return false; }
  /// Fault-subsystem counters (zeros for models without a fault model).
  virtual SeuStats seu_stats() const { return SeuStats{}; }
  /// Install a callback fired when a background scrub latches a fault
  /// (probe-path detections already reach the firmware as responses).
  // lint: ok(std-function-hot-path) — setup-time registration, one
  // invocation per (rare) scrub-detected fault episode.
  virtual void set_fault_callback(std::function<void()>) {}
};

}  // namespace alpu::hw
