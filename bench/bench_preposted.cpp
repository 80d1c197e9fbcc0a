// Figure 5 reproduction: latency vs. posted-receive queue length.
//
// Sweeps queue length x fraction-traversed for the baseline NIC and the
// 128/256-entry ALPU NICs (the paper's six panels: a/b baseline, c/d
// 128-entry, e/f 256-entry) and prints the 2D projections shown in the
// paper's right-hand panels, then the steady-state and message-size
// tables.  The surface itself is `alpusim sweep --figure 5`, and the
// Section VI-B claims are rows of `alpusim conform`.
//
// Every data point is an independent fresh-machine simulation, so the
// surface is computed on a parallel sweep pool (--jobs N, default
// hardware_concurrency; output is byte-identical to --jobs 1).
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "workload/scenarios.hpp"
#include "workload/sweep.hpp"

namespace {

using namespace alpu;
using workload::NicMode;

}  // namespace

int main(int argc, char** argv) {
  const auto args = common::FlagTable{.command = "bench_preposted",
                                      .flags = {workload::jobs_flag()}}
                        .parse(argc, argv);
  if (!args) return 2;
  workload::SweepOptions sweep;
  sweep.jobs = static_cast<int>(args->integer("jobs"));

  const std::vector<std::size_t> lengths = workload::fig5_queue_lengths(false);
  const std::vector<NicMode> modes = {NicMode::kBaseline, NicMode::kAlpu128,
                                      NicMode::kAlpu256};

  std::printf("=== Figure 5: latency vs pre-posted queue length ===\n");
  std::printf("(one-way latency, 0-byte payload; queue length counts the\n"
              " non-matching entries ahead of/behind the match)\n\n");

  // The full surface (the paper's 3D panels a/c/e), computed on the
  // sweep pool.
  const std::vector<workload::SurfaceRow> rows =
      workload::run_preposted_surface(workload::fig5_surface_points(false),
                                      sweep);

  auto at = [&](NicMode m, std::size_t len, double f) {
    for (const workload::SurfaceRow& r : rows) {
      if (r.point.mode == m && r.point.queue_length == len &&
          r.point.fraction_traversed == f) {
        return common::to_ns(r.result.latency);
      }
    }
    return -1.0;
  };

  // 2D projections (panels b/d/f): latency vs length per fraction.
  std::vector<double> proj_fractions = workload::fig5_fractions(false);
  proj_fractions.erase(proj_fractions.begin());  // drop f=0
  for (NicMode mode : modes) {
    common::TextTable t;
    std::vector<std::string> header{"queue_length"};
    for (double f : proj_fractions) {
      header.push_back("f=" + common::fmt_double(f, 2) + " (ns)");
    }
    t.set_header(std::move(header));
    for (std::size_t len : lengths) {
      std::vector<std::string> cells{std::to_string(len)};
      for (double f : proj_fractions) {
        cells.push_back(common::fmt_double(at(mode, len, f), 1));
      }
      t.add_row(std::move(cells));
    }
    std::printf("--- projection: %s ---\n%s\n",
                workload::nic_mode_name(mode), t.render().c_str());
  }

  const double base0 = at(NicMode::kBaseline, 0, 1.0);

  // Steady-state variant: repeated pings over a standing queue keep the
  // traversed lines warm, the regime the paper's averaged-iteration
  // numbers (13 us for a full 400-entry walk) reflect.
  std::printf("=== steady-state (iterated) full-traversal latency ===\n");
  const std::vector<std::size_t> warm_lengths = {100, 200, 300, 400, 500};
  struct WarmPoint {
    double cold_ns = 0.0;
    double steady_ns = 0.0;
  };
  const std::vector<WarmPoint> warm_points = workload::sweep_map(
      warm_lengths,
      [](std::size_t len) {
        workload::PrepostedParams p;
        p.mode = NicMode::kBaseline;
        p.queue_length = len;
        p.fraction_traversed = 1.0;
        WarmPoint out;
        out.cold_ns = common::to_ns(workload::run_preposted(p).latency);
        p.iterations = 8;
        out.steady_ns = common::to_ns(workload::run_preposted(p).latency);
        return out;
      },
      sweep);
  common::TextTable warm;
  warm.set_header({"queue_length", "cold 1-shot (us)", "steady state (us)",
                   "steady ns/entry"});
  for (std::size_t i = 0; i < warm_lengths.size(); ++i) {
    warm.add_row({std::to_string(warm_lengths[i]),
                  common::fmt_double(warm_points[i].cold_ns / 1000.0, 2),
                  common::fmt_double(warm_points[i].steady_ns / 1000.0, 2),
                  common::fmt_double(
                      (warm_points[i].steady_ns - base0) /
                          static_cast<double>(warm_lengths[i]), 1)});
  }
  std::printf("%s", warm.render().c_str());
  std::printf("(paper's 13 us / 400 entries = 32.5 ns/entry sits between\n"
              " this cold first-touch and warm steady-state regime)\n");

  // The benchmark's third degree of freedom: message size.  Traversal
  // cost is additive with transfer cost, so the queue-length penalty is
  // the same at every size — and proportionally least visible for large
  // messages, which is why the paper's panels use small ones.
  std::printf("\n=== message-size dimension (f=1.0) ===\n");
  const std::vector<std::uint32_t> sizes = {0, 1024, 8192};
  struct SizeRow {
    double base_0 = 0.0, base_200 = 0.0, alpu_0 = 0.0, alpu_200 = 0.0;
  };
  const std::vector<SizeRow> size_rows = workload::sweep_map(
      sizes,
      [](std::uint32_t bytes) {
        auto run = [&](NicMode m, std::size_t len) {
          workload::PrepostedParams p;
          p.mode = m;
          p.queue_length = len;
          p.message_bytes = bytes;
          return common::to_us(workload::run_preposted(p).latency);
        };
        return SizeRow{run(NicMode::kBaseline, 0), run(NicMode::kBaseline, 200),
                       run(NicMode::kAlpu256, 0), run(NicMode::kAlpu256, 200)};
      },
      sweep);
  common::TextTable sz;
  sz.set_header({"bytes", "L=0 base (us)", "L=200 base (us)",
                 "L=0 alpu256 (us)", "L=200 alpu256 (us)"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sz.add_row({std::to_string(sizes[i]),
                common::fmt_double(size_rows[i].base_0, 2),
                common::fmt_double(size_rows[i].base_200, 2),
                common::fmt_double(size_rows[i].alpu_0, 2),
                common::fmt_double(size_rows[i].alpu_200, 2)});
  }
  std::printf("%s", sz.render().c_str());
  return 0;
}
