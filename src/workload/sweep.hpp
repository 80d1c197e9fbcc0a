// Parallel sweep runner.
//
// Every figure in the paper is a surface of independent single-machine
// simulations: `scenarios.hpp` builds a fresh Engine + Machine per data
// point, so points share no mutable state and can run on separate OS
// threads.  This header provides the thread-pool map that exploits that
// independence, plus the Figure 5 surface and Figure 6 grid that
// `alpusim sweep`, `alpusim conform`, bench_preposted and the
// determinism tests share.
//
// Determinism contract: results are collected into a slot per input
// index, so the output order equals the input order no matter how the
// scheduler interleaves workers — a parallel sweep produces byte-identical
// CSV to a serial one.  Each worker's simulation is itself single-threaded
// and seeded only by its parameters (no wall clock anywhere), so repeated
// parallel runs are identical too.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "alpu/seu.hpp"
#include "common/flags.hpp"
#include "workload/scenarios.hpp"

namespace alpu::workload {

struct SweepOptions {
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  int jobs = 0;
  /// Engine shards inside each data-point simulation (forwarded to the
  /// scenario params; clamped per machine).  1 = single-threaded engine.
  /// Results are byte-identical at every shard count.
  int shards = 1;
  /// ALPU transient-fault model applied to every data point (sweep
  /// robustness studies).  Default installs nothing, so the standard
  /// figure surfaces take the exact pre-fault-model code path.
  hw::SeuConfig seu;
};

/// Resolve a --jobs value: <= 0 becomes hardware_concurrency (min 1).
int resolve_jobs(int jobs);

/// `--jobs` and `--shards`, the command-line rows of `jobs` and `shards`
/// for alpusim and the figure benches.
common::FlagSpec jobs_flag();
common::FlagSpec shards_flag();

namespace detail {
/// Run body(i) for every i in [0, n) across resolve_jobs(jobs) worker
/// threads (the caller participates).  Indexes are handed out dynamically
/// (points vary in cost); blocks until every call returned.  The first
/// exception thrown by a body is rethrown in the caller after all
/// workers drain.
void parallel_for_index(std::size_t n, int jobs,
                        const std::function<void(std::size_t)>& body);
}  // namespace detail

/// Map each point through `fn` in parallel, preserving input order in the
/// result.  `fn` must build its own Engine/Machine per call (the scenario
/// runners do) and must not touch shared mutable state.
template <typename T, typename F>
auto sweep_map(const std::vector<T>& points, F&& fn,
               const SweepOptions& options = {})
    -> std::vector<decltype(fn(points[std::size_t{0}]))> {
  using R = decltype(fn(points[std::size_t{0}]));
  std::vector<R> results(points.size());
  detail::parallel_for_index(
      points.size(), options.jobs,
      [&](std::size_t i) { results[i] = fn(points[i]); });
  return results;
}

/// Printable name of a NIC mode ("baseline", "alpu128", "alpu256").
const char* nic_mode_name(NicMode mode);

// ---- Figure-5 surface (the bench_preposted / `alpusim sweep` unit) --------

/// One point of the pre-posted-queue surface.
struct SurfacePoint {
  NicMode mode = NicMode::kBaseline;
  std::size_t queue_length = 0;
  double fraction_traversed = 1.0;
  std::uint32_t message_bytes = 0;
};

struct SurfaceRow {
  SurfacePoint point;
  LatencyResult result;
};

/// The paper's queue-length axis; `quick` is the reduced CI/test grid.
std::vector<std::size_t> fig5_queue_lengths(bool quick);
std::vector<double> fig5_fractions(bool quick);

/// The full mode x length x fraction grid (modes ordered baseline,
/// alpu128, alpu256 — the paper's panel order).
std::vector<SurfacePoint> fig5_surface_points(bool quick);

/// Run every point on a sweep pool; rows come back in input order.
std::vector<SurfaceRow> run_preposted_surface(
    const std::vector<SurfacePoint>& points, const SweepOptions& options);

/// CSV rendering (header + one row per point) — identical bytes for
/// serial and parallel runs of the same points.
std::string surface_csv(const std::vector<SurfaceRow>& rows);

// ---- Figure-6 grid (the `alpusim sweep --figure 6` unit) -------------------

/// One unexpected-queue length with a result per NIC mode.
struct UnexpectedRow {
  std::size_t queue_length = 0;
  std::array<LatencyResult, 3> by_mode;  ///< indexed by NicMode
};

/// The paper's unexpected-queue axis; `quick` is the reduced CI grid.
std::vector<std::size_t> fig6_queue_lengths(bool quick);

/// Run every length on a sweep pool, each in all three modes; rows come
/// back in the order of `lengths`.
std::vector<UnexpectedRow> run_unexpected_grid(
    const std::vector<std::size_t>& lengths, const SweepOptions& options);

}  // namespace alpu::workload
