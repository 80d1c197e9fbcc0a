// Ablation: the Section IV-B insert-threshold heuristic.
//
// "Because using the ALPU will incur a certain amount of overhead, the
// software must only use it when the queue is adequately long" — and
// Section VI-B suggests the library "could be optimized to not use the
// ALPU until the list is at least 5 entries long".  This bench sweeps
// that threshold and shows the latency each policy delivers across queue
// lengths: a threshold near the break-even point recovers the baseline's
// short-queue latency while keeping the ALPU's long-queue win.
//
// Independent fresh-machine cells, computed on the parallel sweep pool
// (--jobs N).
#include <cstdio>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "workload/scenarios.hpp"
#include "workload/sweep.hpp"

int main(int argc, char** argv) {
  using namespace alpu;
  using workload::NicMode;

  const auto args = common::FlagTable{.command = "bench_threshold",
                                      .flags = {workload::jobs_flag()}}
                        .parse(argc, argv);
  if (!args) return 2;
  workload::SweepOptions sweep;
  sweep.jobs = static_cast<int>(args->integer("jobs"));

  const std::vector<std::size_t> thresholds = {0, 5, 16, 64};
  const std::vector<std::size_t> lengths = {0, 1, 2, 5, 10, 20, 50, 100};

  std::printf("=== insert-threshold heuristic sweep (Section IV-B) ===\n");
  std::printf("(128-entry ALPU; one-way preposted latency in ns; baseline\n"
              " NIC shown for reference)\n\n");

  // Cell layout per length: [baseline, thr0, thr5, thr16, thr64].
  struct Cell {
    std::size_t length;
    int config;  // -1 = baseline, otherwise index into thresholds
  };
  std::vector<Cell> cells;
  const std::size_t stride = thresholds.size() + 1;
  cells.reserve(lengths.size() * stride);
  for (std::size_t len : lengths) {
    cells.push_back({len, -1});
    for (std::size_t c = 0; c < thresholds.size(); ++c) {
      cells.push_back({len, static_cast<int>(c)});
    }
  }
  const std::vector<double> ns = workload::sweep_map(
      cells,
      [&thresholds](const Cell& cell) {
        workload::PrepostedParams p;
        p.queue_length = cell.length;
        if (cell.config < 0) {
          p.mode = NicMode::kBaseline;
        } else {
          p.mode = NicMode::kAlpu128;
          auto cfg = workload::make_system_config(NicMode::kAlpu128);
          cfg.nic.alpu_policy.insert_threshold =
              thresholds[static_cast<std::size_t>(cell.config)];
          p.system = cfg;
        }
        return common::to_ns(workload::run_preposted(p).latency);
      },
      sweep);

  common::TextTable t;
  std::vector<std::string> header{"queue_length", "baseline"};
  for (std::size_t th : thresholds) {
    header.push_back("thr=" + std::to_string(th));
  }
  t.set_header(std::move(header));

  for (std::size_t i = 0; i < lengths.size(); ++i) {
    std::vector<std::string> row{std::to_string(lengths[i])};
    for (std::size_t c = 0; c < stride; ++c) {
      row.push_back(common::fmt_double(ns[i * stride + c], 0));
    }
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Reading: thr=0 pays the ALPU interaction cost even on tiny\n"
              "queues; a threshold near the paper's break-even (~5) tracks\n"
              "the baseline until the ALPU starts paying for itself.\n");
  return 0;
}
