// The benchmark's four workloads and its layer drivers.
//
// A workload is a seeded input plus a function that runs one repetition
// of it through the simulator's public APIs and checks every output.  All
// repetitions of one workload in one process replay the same input, so
// their simulated results must agree bit for bit; bench_e2e checks that.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace bench {

struct Options {
  std::uint64_t seed = 1;
  /// Reduced sizes for the smoke test.
  bool quick = false;
  /// Directory holding the Figure 5/6 golden CSVs (fig_sweep only).
  std::string golden_dir;
};

/// Failure tallies of one repetition.  Every field counts failed
/// operations; any nonzero field fails the run.
struct Failures {
  std::uint64_t bytes = 0;          ///< received size differs from the sent one
  std::uint64_t envelope = 0;       ///< matched source or context is wrong
  std::uint64_t order = 0;          ///< matched tag out of send order
  std::uint64_t incomplete = 0;     ///< rank programs that never finished
  std::uint64_t undrained = 0;      ///< NICs with queue entries left over
  std::uint64_t stalls = 0;         ///< stall-watchdog detections
  std::uint64_t link_failures = 0;  ///< peers the reliability layer gave up on
  std::uint64_t golden = 0;         ///< fig_sweep rows that differ from golden
  std::uint64_t nondeterministic = 0;  ///< repetition disagreed with the first

  std::uint64_t total() const {
    return bytes + envelope + order + incomplete + undrained + stalls +
           link_failures + golden + nondeterministic;
  }
  Failures& operator+=(const Failures& o) {
    bytes += o.bytes;
    envelope += o.envelope;
    order += o.order;
    incomplete += o.incomplete;
    undrained += o.undrained;
    stalls += o.stalls;
    link_failures += o.link_failures;
    golden += o.golden;
    nondeterministic += o.nondeterministic;
    return *this;
  }
};

/// Named metric values, in a fixed order.
using Values = std::vector<std::pair<std::string, double>>;

/// What one repetition measured.
struct Repetition {
  double setup_s = 0.0;  ///< machine construction, summed over machines
  double run_s = 0.0;    ///< wall time inside run_all
  double pass_s = 0.0;   ///< the whole repetition minus its checks
  std::uint64_t messages = 0;   ///< simulated MPI messages
  std::uint64_t attempted = 0;  ///< operations checked
  Failures failures;
  /// Simulated latency of each message (each point, for fig_sweep), ns.
  std::vector<double> latencies_ns;
  double makespan_us = 0.0;  ///< simulated time of the repetition
  /// Per-layer counts from the modules' stats structs (per message).
  Values counts;
  /// Hash of every simulated output above.
  std::uint64_t digest = 0;
};

struct Workload {
  std::function<Repetition()> run;
  /// Queue depth the layer drivers reproduce for this workload.
  std::size_t layer_queue = 0;
};

/// The named workload with inputs drawn from `options.seed`, or nullopt
/// for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      const Options& options);

/// Time each module's public hot function on inputs shaped like the
/// workload (host ns per call); every driver runs inside its own span.
Values run_layer_drivers(std::size_t queue, std::uint64_t seed, bool quick);

}  // namespace bench
