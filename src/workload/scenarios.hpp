// The paper's two micro-benchmarks as reusable scenario runners.
//
// Section V-A describes them:
//
//  * Pre-posted queue benchmark (drives Figure 5) — three degrees of
//    freedom: pre-posted receive-queue length, the portion of that queue
//    the incoming message traverses, and the message size.  The receiver
//    pre-posts the queue before timing; latency is a one-way ping with
//    the posting cost excluded.
//
//  * Unexpected queue benchmark (drives Figure 6) — the unexpected
//    queue length and the message size vary, and — deviating from
//    tradition deliberately — the time to post the receive is included
//    in the measured latency, overlapped with the message transfer the
//    way real applications overlap it.
//
// Each call builds a fresh two-node machine, runs one measurement, and
// returns the latency plus the counters needed to explain it.  Fresh
// machines per data point keep every measurement independent and
// deterministic (the simulator has no noise to average away).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "mpi/mpi.hpp"

namespace alpu::workload {

using common::TimePs;

/// Which NIC variant to instantiate (the three Figure-5 configurations).
enum class NicMode {
  kBaseline,  ///< software linear lists only
  kAlpu128,   ///< 128-entry posted + unexpected ALPUs
  kAlpu256,   ///< 256-entry posted + unexpected ALPUs
};

/// Build a full system config for a mode (Table III defaults).
mpi::SystemConfig make_system_config(NicMode mode, int nprocs = 2);

/// ALPU config used by make_system_config (ASIC-speed, Section VI-A).
hw::AlpuConfig make_alpu_config(std::size_t cells);

struct PrepostedParams {
  NicMode mode = NicMode::kBaseline;
  /// Number of non-matching receives pre-posted ahead of / behind the
  /// matching one.  Queue length at match time is `queue_length + 1`.
  std::size_t queue_length = 0;
  /// Fraction of `queue_length` the message walks before matching.
  double fraction_traversed = 1.0;
  std::uint32_t message_bytes = 0;
  /// Measured ping iterations, averaged.  With iterations > 1 the
  /// matching receive is re-posted at the queue tail each round (cache
  /// reaches steady state), so fraction_traversed must be 1.0.
  int iterations = 1;
  /// Override the system config (threshold studies etc.).
  std::optional<mpi::SystemConfig> system;
  /// Engine shards for the conservative-parallel run (clamped to the
  /// node count; 1 = the byte-exact single-threaded path).  Results are
  /// byte-identical at any shard count.
  int shards = 1;
  /// If set, receives `machine_report` of the measured machine.
  std::string* report = nullptr;
};

struct UnexpectedParams {
  NicMode mode = NicMode::kBaseline;
  /// Unexpected messages queued ahead of the measured receive.
  std::size_t queue_length = 0;
  std::uint32_t message_bytes = 0;
  std::optional<mpi::SystemConfig> system;
  /// Engine shards (see PrepostedParams::shards).
  int shards = 1;
  /// If set, receives `machine_report` of the measured machine.
  std::string* report = nullptr;
};

/// Outcome of one measurement.
struct LatencyResult {
  /// One-way latency: sender's send-issue to receiver's completed wait.
  TimePs latency = 0;
  /// Entries the receiver firmware walked in software during the
  /// measured match (0 when the ALPU answered).
  std::uint64_t sw_entries_walked = 0;
  std::uint64_t alpu_hits = 0;
  std::uint64_t alpu_misses = 0;
  double l1_hit_rate = 0.0;
  TimePs total_sim_time = 0;
  /// Kernel events the whole run executed (events/sec yardstick).
  std::uint64_t events_executed = 0;
  /// Probe-level engine work at the receiver (software lists + ALPUs):
  /// probes issued, comparator cells scanned, compaction entry moves.
  common::MatchCounters match_counters;

  // Robustness-path accounting, zero on a clean run: faults the network
  // injected, packets the reliability sublayer re-sent, degradation
  // events at the NICs, and links given up on.  Summed machine-wide.
  std::uint64_t net_faults_injected = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t alpu_probe_rejections = 0;
  std::uint64_t alpu_fallback_resets = 0;
  std::uint64_t link_failures = 0;

  // ALPU transient-fault accounting, zero unless an SEU model is
  // configured (summed machine-wide; `alpusim sweep --verbose` prints
  // them alongside the robustness counters).
  std::uint64_t seu_injected = 0;
  std::uint64_t parity_faults = 0;
  std::uint64_t scrub_sweeps = 0;
  std::uint64_t rebuilds = 0;

  // Eager-resource occupancy peaks, max over NICs (tracked stats-only
  // on unlimited-budget runs; `alpusim sweep --verbose` prints them).
  std::uint64_t peak_unexpected_depth = 0;
  std::uint64_t peak_eager_pool_bytes = 0;
  std::uint64_t peak_unexpected_slots = 0;
};

/// Run one pre-posted-queue measurement (Figure 5 data point).
LatencyResult run_preposted(const PrepostedParams& params);

/// Run one unexpected-queue measurement (Figure 6 data point).
LatencyResult run_unexpected(const UnexpectedParams& params);

/// A plain zero-queue ping-pong, averaged over `iterations` round trips
/// (the classical latency test of Section II's hash-table discussion).
TimePs run_pingpong(NicMode mode, std::uint32_t message_bytes,
                    int iterations);

struct MessageRateParams {
  NicMode mode = NicMode::kBaseline;
  /// Non-matching posted entries every message must walk past.
  std::size_t queue_length = 0;
  /// Messages in the measured burst.
  int burst = 64;
  std::uint32_t message_bytes = 0;
  std::optional<mpi::SystemConfig> system;
  /// Engine shards (see PrepostedParams::shards).
  int shards = 1;
};

/// Measure the per-message gap (inverse message rate, the LogP parameter
/// the introduction names as the second-largest application impact): a
/// burst of back-to-back sends into a receiver whose posted queue holds
/// `queue_length` non-matching entries ahead of the matches.  Returns
/// the steady-state time per message at the receiver.
TimePs run_message_rate(const MessageRateParams& params);

/// A NIC parameterised like a Quadrics Elan4-class embedded processor —
/// the comparison of Section VI-B (~150 ns per traversed entry vs. this
/// model's ~15 ns: slower clock, single-issue, small cache).
mpi::SystemConfig make_elan4_like_config();

}  // namespace alpu::workload
