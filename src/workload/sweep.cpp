#include "workload/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

namespace alpu::workload {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  // determinism: ok — sizes only the pool of host worker threads; each
  // data point is an independent simulation whose result lands in its
  // input-index slot, so the job count never touches simulated output.
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

common::FlagSpec jobs_flag() {
  return {.name = "jobs", .kind = common::FlagKind::kInt, .fallback = "0",
          .min = 0, .max = std::numeric_limits<int>::max(),
          .help = "sweep worker threads, 0 for one per core"};
}

common::FlagSpec shards_flag() {
  return {.name = "shards", .kind = common::FlagKind::kInt, .fallback = "1",
          .min = 1, .max = std::numeric_limits<int>::max(),
          .help = "engine shards per simulation; every count prints the same"};
}

namespace detail {

void parallel_for_index(std::size_t n, int jobs,
                        const std::function<void(std::size_t)>& body) {
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(resolve_jobs(jobs)), n);
  if (workers <= 1) {
    // Serial path: no thread machinery, trivially deterministic, and what
    // --jobs 1 means.  (Parallel output matches it byte for byte because
    // results land in per-index slots either way.)
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
  work();  // the caller is worker 0
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

const char* nic_mode_name(NicMode mode) {
  switch (mode) {
    case NicMode::kBaseline: return "baseline";
    case NicMode::kAlpu128: return "alpu128";
    case NicMode::kAlpu256: return "alpu256";
  }
  return "?";
}

namespace {

/// The paper's panel and line order.
constexpr std::array<NicMode, 3> kModes = {
    NicMode::kBaseline, NicMode::kAlpu128, NicMode::kAlpu256};

/// The mode's Table-III machine with the sweep's SEU model installed, or
/// nothing when the model is off (the standard figure code path).
std::optional<mpi::SystemConfig> seu_system(NicMode mode,
                                            const SweepOptions& options) {
  if (!options.seu.any()) return std::nullopt;
  mpi::SystemConfig sys = make_system_config(mode);
  sys.nic.seu = options.seu;
  return sys;
}

}  // namespace

std::vector<std::size_t> fig5_queue_lengths(bool quick) {
  if (quick) return {0, 5, 20, 50, 100, 200};
  return {0,  1,   2,   5,   10,  20,  50,  100,
          150, 200, 250, 300, 350, 400, 450, 500};
}

std::vector<double> fig5_fractions(bool quick) {
  if (quick) return {0.0, 0.5, 1.0};
  return {0.0, 0.25, 0.5, 0.75, 1.0};
}

std::vector<SurfacePoint> fig5_surface_points(bool quick) {
  const std::vector<std::size_t> lengths = fig5_queue_lengths(quick);
  const std::vector<double> fractions = fig5_fractions(quick);
  std::vector<SurfacePoint> points;
  points.reserve(kModes.size() * lengths.size() * fractions.size());
  for (NicMode mode : kModes) {
    for (std::size_t len : lengths) {
      for (double f : fractions) {
        points.push_back({mode, len, f, 0});
      }
    }
  }
  return points;
}

std::vector<SurfaceRow> run_preposted_surface(
    const std::vector<SurfacePoint>& points, const SweepOptions& options) {
  std::vector<LatencyResult> results = sweep_map(
      points,
      [&options](const SurfacePoint& pt) {
        PrepostedParams p;
        p.mode = pt.mode;
        p.queue_length = pt.queue_length;
        p.fraction_traversed = pt.fraction_traversed;
        p.message_bytes = pt.message_bytes;
        p.shards = options.shards;
        p.system = seu_system(pt.mode, options);
        return run_preposted(p);
      },
      options);
  std::vector<SurfaceRow> rows;
  rows.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    rows.push_back({points[i], results[i]});
  }
  return rows;
}

std::string surface_csv(const std::vector<SurfaceRow>& rows) {
  std::string out = "mode,queue_length,fraction_traversed,latency_ns\n";
  char line[128];
  for (const SurfaceRow& row : rows) {
    std::snprintf(line, sizeof(line), "%s,%zu,%.2f,%.1f\n",
                  nic_mode_name(row.point.mode), row.point.queue_length,
                  row.point.fraction_traversed,
                  common::to_ns(row.result.latency));
    out += line;
  }
  return out;
}

std::vector<std::size_t> fig6_queue_lengths(bool quick) {
  if (quick) return {0, 1, 5, 10, 20, 35, 50, 70, 100, 150, 200, 300};
  return {0,   1,   5,   10,  20,  35,  50,  70,  100,
          128, 150, 200, 256, 300, 400, 500, 600};
}

std::vector<UnexpectedRow> run_unexpected_grid(
    const std::vector<std::size_t>& lengths, const SweepOptions& options) {
  return sweep_map(
      lengths,
      [&options](std::size_t len) {
        UnexpectedRow row;
        row.queue_length = len;
        for (NicMode mode : kModes) {
          row.by_mode[static_cast<std::size_t>(mode)] = run_unexpected(
              {.mode = mode,
               .queue_length = len,
               .system = seu_system(mode, options),
               .shards = options.shards});
        }
        return row;
      },
      options);
}

}  // namespace alpu::workload
