// bench_engine — wall-clock throughput of the DES kernel and the
// conservative-parallel ShardGroup.
//
// Three measurements:
//
//   * engine churn: a bare Engine burning through self-rescheduling
//     event chains — the events/s ceiling of the slot-pool kernel with
//     no simulation model attached;
//   * machine rate: kernel events/s of a full 16-node all-to-all chaos
//     machine (NICs, ALPUs, MPI coroutines) on a single engine — what
//     sweep throughput is actually made of;
//   * shard speedup: the same 16-node machine at --shards N (default 8)
//     vs. 1 shard, wall-clock ratio.  The simulated results are
//     byte-identical by construction (the determinism tests enforce
//     it); this measures only how much wall time the window parallelism
//     buys.  On a single-CPU host the ratio sits near (or below) 1 —
//     it is reported, never gated.
//
// Single-threaded host time per event and per message is measured by
// bench/e2e (`sim.event_ns`, `host_ns_per_msg`); this binary stays for
// the shard speedup, which bench/e2e does not run.
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/flags.hpp"
#include "sim/engine.hpp"
#include "workload/chaos.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Raw kernel churn: `chains` interleaved self-rescheduling events until
/// `total` events have fired.  Returns events per wall-clock second.
double measure_engine_churn(std::uint64_t total) {
  using alpu::common::TimePs;
  alpu::sim::Engine engine;
  constexpr std::uint64_t kChains = 64;
  std::uint64_t remaining = total;
  struct Chain {
    alpu::sim::Engine* engine;
    std::uint64_t* remaining;
    TimePs step;
    void fire() {
      if (*remaining == 0) return;
      --*remaining;
      engine->schedule_in(step, [this] { fire(); });
    }
  };
  std::vector<Chain> chains(kChains);
  for (std::uint64_t c = 0; c < kChains; ++c) {
    chains[c] = Chain{&engine, &remaining, 1 + c % 7};
    engine.schedule_at(c, [&chains, c] { chains[c].fire(); });
  }
  const auto t0 = Clock::now();
  engine.run();
  const auto t1 = Clock::now();
  return static_cast<double>(engine.events_executed()) /
         (elapsed_ns(t0, t1) * 1e-9);
}

struct MachineRate {
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  double seconds = 0.0;
};

/// Kernel events/s of the balanced 16-node all-to-all machine (fault
/// free — pure forward-progress traffic) at a given shard count.
MachineRate measure_machine(int ranks, int per_pair, int shards,
                            int repeats) {
  MachineRate r;
  const auto t0 = Clock::now();
  for (int i = 0; i < repeats; ++i) {
    alpu::workload::ChaosParams p;
    p.mode = alpu::workload::NicMode::kAlpu256;
    p.ranks = ranks;
    p.per_pair = per_pair;
    p.seed = 3;
    p.shards = shards;
    const alpu::workload::ChaosResult res = alpu::workload::run_chaos(p);
    if (!res.ok()) {
      std::fprintf(stderr, "bench machine run failed its own checks\n");
      std::exit(1);
    }
    r.events += res.events_executed;
  }
  const auto t1 = Clock::now();
  r.seconds = elapsed_ns(t0, t1) * 1e-9;
  r.events_per_sec = static_cast<double>(r.events) / r.seconds;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using enum alpu::common::FlagKind;
  const auto args =
      alpu::common::FlagTable{
          .command = "bench_engine",
          .flags = {{.name = "iters", .kind = kInt, .fallback = "2000000",
                     .min = 1, .help = "events of the engine-churn run"},
                    {.name = "shards", .kind = kInt, .fallback = "8",
                     .min = 1, .max = INT_MAX,
                     .help = "shards of the sharded machine run"},
                    {.name = "ranks", .kind = kInt, .fallback = "16",
                     .min = 2, .max = INT_MAX,
                     .help = "ranks of the all-to-all machine"},
                    {.name = "repeats", .kind = kInt, .fallback = "3",
                     .min = 1, .max = INT_MAX,
                     .help = "machine runs per shard count"}}}
          .parse(argc, argv);
  if (!args) return 2;
  const auto iters = args->integer<std::uint64_t>("iters");
  const int shards = args->integer<int>("shards");
  const int ranks = args->integer<int>("ranks");
  const int repeats = args->integer<int>("repeats");

  const double churn = measure_engine_churn(iters);
  std::printf("engine churn:        %12.0f events/s (%llu events)\n", churn,
              static_cast<unsigned long long>(iters));

  const MachineRate serial = measure_machine(ranks, 4, 1, repeats);
  std::printf("machine (1 shard):   %12.0f events/s (%llu events, %.2fs)\n",
              serial.events_per_sec,
              static_cast<unsigned long long>(serial.events), serial.seconds);

  const MachineRate sharded = measure_machine(ranks, 4, shards, repeats);
  const double speedup = sharded.seconds > 0.0
                             ? serial.seconds / sharded.seconds
                             : 0.0;
  std::printf("machine (%d shards): %12.0f events/s (%.2fs)\n", shards,
              sharded.events_per_sec, sharded.seconds);
  std::printf("shard speedup:       %.2fx wall-clock (informational; needs"
              " >= %d cores to mean anything)\n",
              speedup, shards);
  return 0;
}
