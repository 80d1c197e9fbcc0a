// ALPU micro-benchmarks on the cycle-level model (Section V-D numbers).
//
// Measures, in simulated time: match latency and throughput (the paper's
// "new match every 6 or 7 clock cycles, no overlap"), insert rate ("every
// other clock cycle"), and the block-size trade-off combining the cycle
// model with the FPGA timing model (block 32 saves a pipeline stage but
// clocks ~10% slower — which wins?).
//
// Host time per probe (the wall-clock cost of AlpuArray::match) is the
// `alpu.match_ns` metric of bench/e2e, not this binary's job.
#include <cassert>
#include <cstdio>
#include <string>

#include "alpu/alpu.hpp"
#include "common/table.hpp"
#include "fpga/area_model.hpp"
#include "sim/engine.hpp"

namespace {

using namespace alpu;
using common::TimePs;

struct MicroResult {
  double match_latency_ns;
  double match_throughput_ns;  ///< steady-state time per match
  double insert_ns;            ///< steady-state time per insert
};

MicroResult run_micro(std::size_t cells, std::size_t block,
                      common::ClockPeriod clock, unsigned latency) {
  hw::AlpuConfig cfg;
  cfg.total_cells = cells;
  cfg.block_size = block;
  cfg.clock = clock;
  cfg.match_latency_cycles = latency;
  cfg.header_fifo_depth = 4096;
  cfg.result_fifo_depth = 4096;
  cfg.command_fifo_depth = 4096;

  MicroResult out{};

  {  // match latency + throughput against a full array
    sim::Engine engine;
    hw::Alpu unit(engine, "dut", cfg);
    const bool started =
        unit.push_command({hw::CommandKind::kStartInsert, 0, 0, 0});
    assert(started);
    (void)started;
    engine.run_until(16 * clock.period());
    (void)unit.pop_result();  // ack
    const auto p = match::make_recv_pattern(0, 1, 1);
    for (std::size_t i = 0; i < cells; ++i) {
      const bool ok = unit.push_command(
          {hw::CommandKind::kInsert, p.bits, p.mask,
           static_cast<match::Cookie>(i)});
      assert(ok);
      (void)ok;
    }
    const bool stopped =
        unit.push_command({hw::CommandKind::kStopInsert, 0, 0, 0});
    assert(stopped);
    (void)stopped;
    engine.run_until(engine.now() + (cells * 2 + 32) * clock.period());

    // One probe for latency.
    const TimePs t0 = engine.now();
    const bool probed = unit.push_probe(hw::Probe{p.bits, 0, 0});
    assert(probed);
    (void)probed;
    while (!unit.result_available()) {
      engine.run_until(engine.now() + clock.period());
    }
    out.match_latency_ns = common::to_ns(unit.pop_result()->issued_at - t0);

    // A burst for throughput.
    constexpr int kBurst = 64;
    const TimePs t1 = engine.now();
    for (int i = 0; i < kBurst; ++i) {
      const bool ok = unit.push_probe(hw::Probe{p.bits, 0, 0});
      assert(ok);
      (void)ok;
    }
    int seen = 0;
    while (seen < kBurst) {
      engine.run_until(engine.now() + clock.period());
      while (unit.pop_result().has_value()) ++seen;
    }
    out.match_throughput_ns = common::to_ns(engine.now() - t1) / kBurst;
  }

  {  // insert rate
    sim::Engine engine;
    hw::Alpu unit(engine, "dut", cfg);
    const bool started =
        unit.push_command({hw::CommandKind::kStartInsert, 0, 0, 0});
    assert(started);
    (void)started;
    engine.run_until(16 * clock.period());
    (void)unit.pop_result();
    const auto p = match::make_recv_pattern(0, 1, 1);
    const TimePs t0 = engine.now();
    for (std::size_t i = 0; i < cells; ++i) {
      const bool ok = unit.push_command(
          {hw::CommandKind::kInsert, p.bits, p.mask,
           static_cast<match::Cookie>(i)});
      assert(ok);
      (void)ok;
    }
    while (unit.array().occupancy() < cells) {
      engine.run_until(engine.now() + clock.period());
    }
    out.insert_ns = common::to_ns(engine.now() - t0) / static_cast<double>(cells);
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== ALPU cycle-model micro-benchmarks ===\n\n");

  // At the simulation's assumed ASIC speed (500 MHz, 7-cycle pipeline).
  {
    const auto r = run_micro(256, 16, common::ClockPeriod::from_mhz(500), 7);
    std::printf("ASIC point (256 cells, block 16, 500 MHz, 7-cycle):\n");
    std::printf("  match latency     : %5.1f ns  (paper: 7 cycles = 14 ns)\n",
                r.match_latency_ns);
    std::printf("  match throughput  : %5.1f ns/match (paper: no overlap => 14 ns)\n",
                r.match_throughput_ns);
    std::printf("  insert rate       : %5.1f ns/insert (paper: every other cycle = 4 ns)\n\n",
                r.insert_ns);
  }

  // Block-size trade-off using the FPGA timing model's clock for each
  // configuration (Table IV frequencies).
  std::printf("Block-size trade-off at FPGA speed (256 cells):\n");
  common::TextTable t;
  t.set_header({"block", "clock MHz", "pipeline", "match lat (ns)",
                "match thpt (ns)", "insert (ns)"});
  for (std::size_t block : {8u, 16u, 32u}) {
    fpga::PrototypeParams pp;
    pp.total_cells = 256;
    pp.block_size = block;
    const auto est = fpga::estimate(pp);
    const auto period = static_cast<std::uint64_t>(1e6 / est.clock_mhz);
    const auto r = run_micro(256, block, common::ClockPeriod{period},
                             est.pipeline_latency);
    t.add_row({std::to_string(block), common::fmt_double(est.clock_mhz, 1),
               std::to_string(est.pipeline_latency),
               common::fmt_double(r.match_latency_ns, 1),
               common::fmt_double(r.match_throughput_ns, 1),
               common::fmt_double(r.insert_ns, 1)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Reading: block 32 trades one pipeline stage (6 vs 7 cycles)\n"
              "against ~10%% clock: the configurations end up within a few\n"
              "ns of each other, so area (Table IV) decides.\n");
  return 0;
}
