// Chaos soak: the Figure-5/6-class machine under network fault
// injection, asserting MPI-level correctness end to end.
//
// One run builds a fresh machine with a FaultInjector on the network and
// the NIC reliability sublayer enabled, drives an all-to-all randomized
// traffic plan (eager and rendezvous sizes, tag = per-pair ordinal), and
// verifies the guarantees the reliability layer must restore over the
// faulty links:
//
//   * no lost message       — every rank completes every receive and the
//                             byte totals conserve exactly;
//   * no misordered message — each receive is posted with ANY_TAG, so
//                             the matched tag exposes the arrival order
//                             per (source, destination) pair: it must
//                             equal the posting ordinal;
//   * no duplicated message — a duplicate would match (and complete) a
//                             receive out of turn, failing either check;
//   * full drain            — posted/unexpected queues and ALPUs empty.
//
// Everything is deterministic: the injector draws from its own seeded
// stream, each run owns a fresh engine, and `alpusim chaos` sweeps fault
// rates through sweep_map, so results are byte-identical at any --jobs.
#pragma once

#include <cstdint>

#include "alpu/seu.hpp"
#include "common/time.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "nic/reliability.hpp"
#include "workload/scenarios.hpp"

namespace alpu::check {
class Auditor;
}  // namespace alpu::check

namespace alpu::workload {

struct ChaosParams {
  NicMode mode = NicMode::kAlpu256;
  int ranks = 4;
  /// Messages per ordered (src, dst) pair.
  int per_pair = 8;
  /// Seeds the traffic plan and rank think-time (the fault stream is
  /// seeded separately via `faults.seed`).
  std::uint64_t seed = 1;
  net::FaultConfig faults;
  nic::ReliabilityConfig reliability;
  /// ALPU transient-fault model (SEU injection + parity + scrub), for
  /// compound network-fault × hardware-fault soaks.  Default installs
  /// nothing.  Per-unit injector streams are derived inside the NIC, so
  /// the verdict stays byte-identical at any shard count.
  hw::SeuConfig seu;
  /// Incast overload: every rank > 0 sends its whole plan to rank 0
  /// (small eager sizes), and rank 0 throttles its receive posting, so
  /// offered load far exceeds the receiver's drain rate.  Meant to run
  /// with a finite eager budget ≪ the offered load: the run then
  /// exercises the full RNR-NACK / backoff / credit / demotion path and
  /// still must deliver exactly once and drain.
  bool overload = false;
  /// Per-NIC eager budget for the run (0 = unlimited).  Nonzero budgets
  /// force-enable the reliability sublayer (the NACK path lives there).
  std::uint64_t eager_pool_bytes = 0;
  std::uint32_t unexpected_slots = 0;
  /// Engine shards for the conservative-parallel run (clamped to
  /// `ranks`; 1 = the byte-exact single-threaded path).  The verdict and
  /// every counter are byte-identical at any shard count — including
  /// under fault injection.
  int shards = 1;
  /// Optional external determinism auditor (ALPU_AUDIT builds only;
  /// ignored otherwise).  The triage CLI installs one with tracing
  /// enabled and reads its per-window trace after the run.  The pointer
  /// keeps ChaosParams layout-identical in both build flavors.
  check::Auditor* auditor = nullptr;
};

struct ChaosResult {
  bool completed = false;  ///< every rank program ran to completion
  bool conserved = false;  ///< per-message byte counts all exact
  bool ordered = false;    ///< per-pair tags arrived in posting order
  bool drained = false;    ///< queues and ALPUs empty at the end
  std::uint64_t messages = 0;  ///< MPI messages planned (and required)
  common::TimePs sim_time = 0;
  /// Kernel events executed across all shards (events/s yardstick).
  std::uint64_t events_executed = 0;

  net::NetworkStats net;               ///< includes fault counters
  nic::ReliabilityStats reliability;   ///< summed over all NICs
  std::uint64_t probe_rejections = 0;  ///< summed NIC degradation stats
  std::uint64_t fallback_resets = 0;
  std::uint64_t fallback_searches = 0;

  // Transient-fault outcome (sums over NICs; zero when no SEU model).
  std::uint64_t seu_injected = 0;
  std::uint64_t parity_faults = 0;
  std::uint64_t scrub_sweeps = 0;
  std::uint64_t rebuilds = 0;
  /// Injection-to-detection latency summed over detection episodes
  /// (divide by parity_faults for the mean; the scrub interval bounds
  /// the tail for dormant entries).
  common::TimePs seu_detect_latency_ps = 0;

  // Flow-control outcome (budgets echoed from the params; peaks are the
  // max over NICs, sums over NICs otherwise).
  std::uint64_t pool_budget = 0;
  std::uint64_t slot_budget = 0;
  std::uint64_t peak_pool_bytes = 0;
  std::uint64_t peak_unexpected_slots = 0;
  std::uint64_t peak_unexpected_depth = 0;
  std::uint64_t demotions = 0;       ///< peers demoted eager→rendezvous
  std::uint64_t demoted_sends = 0;
  std::uint64_t stalls = 0;          ///< watchdog: quiescent yet undrained

  /// The pass/fail verdict `alpusim chaos` and CI assert on.  A run that
  /// planned no message fails: delivering nothing proves nothing.  With a
  /// finite budget it additionally requires the peak occupancy to have
  /// respected the budget and the stall watchdog to have stayed silent.
  bool ok() const {
    return messages > 0 && completed && conserved && ordered && drained &&
           reliability.link_failures == 0 && stalls == 0 &&
           (pool_budget == 0 || peak_pool_bytes <= pool_budget) &&
           (slot_budget == 0 || peak_unexpected_slots <= slot_budget);
  }
};

/// System config for a chaos run: the mode's Table-III machine plus the
/// fault injector and the reliability sublayer (force-enabled whenever
/// the fault config is non-trivial).
mpi::SystemConfig make_chaos_system_config(const ChaosParams& params);

/// Run one chaos soak.  Never throws on protocol failure — the result's
/// flags carry the verdict so sweeps can tabulate them.
ChaosResult run_chaos(const ChaosParams& params);

}  // namespace alpu::workload
