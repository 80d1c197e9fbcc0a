// Soak test: randomized multi-rank traffic over the full simulated
// machine, all NIC modes, with eager and rendezvous sizes, wildcards,
// and lazy receivers.  The point is robustness — no deadlock, no lost
// or duplicated message, queues fully drained — under schedules far
// messier than the calibrated benchmarks.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "mpi/mpi.hpp"
#include "sim/parallel.hpp"
#include "workload/chaos.hpp"
#include "workload/scenarios.hpp"
#include "workload/sweep.hpp"

namespace alpu::mpi {
namespace {

using workload::make_system_config;
using workload::NicMode;

struct Plan {
  /// messages[d][s] = payload sizes rank s sends to rank d, in order.
  std::vector<std::vector<std::vector<std::uint32_t>>> messages;
  int nranks = 0;
};

/// Build a random traffic plan both sides agree on.
Plan make_plan(int nranks, int per_pair, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  Plan plan;
  plan.nranks = nranks;
  plan.messages.resize(static_cast<std::size_t>(nranks));
  for (int d = 0; d < nranks; ++d) {
    plan.messages[static_cast<std::size_t>(d)].resize(
        static_cast<std::size_t>(nranks));
    for (int s = 0; s < nranks; ++s) {
      if (s == d) continue;
      for (int m = 0; m < per_pair; ++m) {
        // Mostly small eager messages, occasionally rendezvous-sized.
        const std::uint32_t bytes =
            rng.chance(0.12)
                ? static_cast<std::uint32_t>(20'000 + rng.below(40'000))
                : static_cast<std::uint32_t>(rng.below(2'000));
        plan.messages[static_cast<std::size_t>(d)]
                     [static_cast<std::size_t>(s)]
                         .push_back(bytes);
      }
    }
  }
  return plan;
}

sim::Process rank_program(Machine& machine, const Plan& plan, int rank,
                          std::uint64_t seed,
                          std::vector<std::uint64_t>& received_bytes) {
  common::Xoshiro256 rng(seed + static_cast<std::uint64_t>(rank) * 977);
  Rank& self = machine.rank(rank);

  // Wildcard policy per ordinal, consistent across peers: if ordinal i
  // is received with ANY_SOURCE from one peer it must be ANY_SOURCE for
  // all of them, otherwise an ANY receive can steal the one message an
  // explicit-source receive of the same tag needs (starvation).
  std::size_t max_ordinals = 0;
  for (int peer = 0; peer < plan.nranks; ++peer) {
    if (peer == rank) continue;
    max_ordinals = std::max(
        max_ordinals,
        plan.messages[static_cast<std::size_t>(rank)]
                     [static_cast<std::size_t>(peer)].size());
  }
  std::vector<bool> any_source(max_ordinals);
  for (std::size_t i = 0; i < max_ordinals; ++i) {
    any_source[i] = rng.chance(0.5);
  }

  // Sends: interleave destinations, with random think time so arrivals
  // race receive postings in every possible order.
  std::vector<Request> sends;
  std::vector<Request> recvs;
  std::vector<std::size_t> send_cursor(
      static_cast<std::size_t>(plan.nranks), 0);
  std::vector<std::size_t> recv_count(
      static_cast<std::size_t>(plan.nranks), 0);

  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (int peer = 0; peer < plan.nranks; ++peer) {
      if (peer == rank) continue;
      const auto p = static_cast<std::size_t>(peer);
      const auto r = static_cast<std::size_t>(rank);
      // One send toward peer, tag = message ordinal.
      if (send_cursor[p] < plan.messages[p][r].size()) {
        const auto i = send_cursor[p]++;
        sends.push_back(self.isend(
            peer, static_cast<int>(i), plan.messages[p][r][i]));
        work_left = true;
      }
      // One receive from peer — half the time by explicit source, half
      // wildcarded by source with the tag pinning the ordinal.
      if (recv_count[p] < plan.messages[r][p].size()) {
        const auto i = recv_count[p]++;
        const int tag = static_cast<int>(i);
        recvs.push_back(self.irecv(any_source[i] ? kAnySource : peer, tag,
                                   64 * 1024));
        work_left = true;
      }
      if (rng.chance(0.2)) {
        co_await sim::delay(machine.engine(), rng.below(3'000) * 1'000);
      }
    }
  }

  co_await self.waitall(std::move(sends));
  std::uint64_t total = 0;
  for (Request& r : recvs) {
    co_await self.wait(r);
    total += r.bytes();
  }
  received_bytes[static_cast<std::size_t>(rank)] = total;
  co_await self.barrier();
}

class Soak : public ::testing::TestWithParam<
                 std::tuple<NicMode, std::uint64_t>> {};

TEST_P(Soak, RandomTrafficDrainsCompletely) {
  const auto [mode, seed] = GetParam();
  constexpr int kRanks = 4;
  constexpr int kPerPair = 12;
  const Plan plan = make_plan(kRanks, kPerPair, seed);

  sim::Engine engine;
  Machine machine(engine, make_system_config(mode, kRanks));
  sim::ProcessPool pool(engine);
  std::vector<std::uint64_t> received(kRanks, 0);
  for (int r = 0; r < kRanks; ++r) {
    pool.spawn(rank_program(machine, plan, r, seed, received));
  }
  engine.run();
  ASSERT_TRUE(pool.all_done()) << "soak deadlocked";

  // Conservation: every rank received exactly the bytes addressed to it
  // (receives were posted large enough that nothing truncates).
  for (int d = 0; d < kRanks; ++d) {
    std::uint64_t expected = 0;
    for (int s = 0; s < kRanks; ++s) {
      for (std::uint32_t b :
           plan.messages[static_cast<std::size_t>(d)]
                        [static_cast<std::size_t>(s)]) {
        expected += b;
      }
    }
    EXPECT_EQ(received[static_cast<std::size_t>(d)], expected)
        << "rank " << d;
  }

  // Drained: no queue holds anything once every request completed.
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(machine.nic(r).posted_queue_length(), 0u) << "rank " << r;
    EXPECT_EQ(machine.nic(r).unexpected_queue_length(), 0u) << "rank " << r;
    if (machine.nic(r).posted_alpu() != nullptr) {
      EXPECT_EQ(machine.nic(r).posted_alpu()->array().occupancy(), 0u);
      EXPECT_EQ(machine.nic(r).posted_alpu()->stats().inserts_dropped, 0u);
    }
    if (machine.nic(r).unexpected_alpu() != nullptr) {
      EXPECT_EQ(machine.nic(r).unexpected_alpu()->array().occupancy(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, Soak,
    ::testing::Combine(::testing::Values(NicMode::kBaseline,
                                         NicMode::kAlpu128,
                                         NicMode::kAlpu256),
                       ::testing::Values(1001, 2002, 3003, 4004)),
    [](const ::testing::TestParamInfo<Soak::ParamType>& info) {
      // No structured bindings here: a comma inside the lambda's capture
      // brackets would split the macro's arguments.
      const NicMode mode = std::get<0>(info.param);
      const std::uint64_t seed = std::get<1>(info.param);
      const char* m = mode == NicMode::kBaseline
                          ? "baseline"
                          : (mode == NicMode::kAlpu128 ? "alpu128"
                                                       : "alpu256");
      return std::string(m) + "_" + std::to_string(seed);
    });

// ---------------------------------------------------------------------------
// Faulty soak: the same class of randomized traffic, but over a lossy
// network with the reliability sublayer recovering it.  Runs the fault
// grid through sweep_map with 4 worker threads so TSan sees the parallel
// sweep path under load (each point owns a fresh Engine + Machine).
// ---------------------------------------------------------------------------

class FaultySoak : public ::testing::TestWithParam<NicMode> {};

TEST_P(FaultySoak, LossyNetworkStillConservesAndOrders) {
  struct Point {
    double drop;
    std::uint64_t seed;
  };
  std::vector<Point> grid;
  for (const double drop : {1e-3, 1e-2}) {
    for (const std::uint64_t seed : {1001u, 2002u}) {
      grid.push_back(Point{drop, seed});
    }
  }
  const NicMode mode = GetParam();
  const auto results = workload::sweep_map(
      grid,
      [mode](const Point& pt) {
        workload::ChaosParams p;
        p.mode = mode;
        p.ranks = 4;
        p.per_pair = 8;
        p.seed = pt.seed;
        p.faults.drop_rate = pt.drop;
        p.faults.dup_rate = pt.drop / 2;
        p.faults.reorder_rate = pt.drop / 2;
        p.faults.corrupt_rate = pt.drop / 2;
        p.faults.seed = 0x5eed + pt.seed;
        return workload::run_chaos(p);
      },
      workload::SweepOptions{.jobs = 4, .shards = 1, .seu = {}});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const workload::ChaosResult& r = results[i];
    EXPECT_TRUE(r.ok()) << "drop=" << grid[i].drop << " seed=" << grid[i].seed
                        << ": completed=" << r.completed
                        << " conserved=" << r.conserved
                        << " ordered=" << r.ordered
                        << " drained=" << r.drained
                        << " link_failures=" << r.reliability.link_failures;
    EXPECT_EQ(r.messages, 96u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FaultySoak,
    ::testing::Values(NicMode::kBaseline, NicMode::kAlpu128,
                      NicMode::kAlpu256),
    [](const ::testing::TestParamInfo<FaultySoak::ParamType>& info) {
      return std::string(workload::nic_mode_name(info.param));
    });

// The faulty soak again, but with each chaos machine itself sharded
// across engine threads (conservative parallel DES).  Every counter
// must equal the single-shard run's — this is the suite the TSan CI job
// drives to prove the window protocol is also data-race-free.
class ShardedFaultySoak : public ::testing::TestWithParam<int> {};

TEST_P(ShardedFaultySoak, MatchesSingleShardUnderFaults) {
  const int shards = GetParam();
  auto run_at = [](int nshards) {
    workload::ChaosParams p;
    p.mode = NicMode::kAlpu256;
    p.ranks = 8;
    p.per_pair = 6;
    p.seed = 11;
    p.faults.drop_rate = 0.02;
    p.faults.dup_rate = 0.01;
    p.faults.reorder_rate = 0.01;
    p.faults.corrupt_rate = 0.01;
    p.shards = nshards;
    return workload::run_chaos(p);
  };
  const workload::ChaosResult base = run_at(1);
  const workload::ChaosResult sharded = run_at(shards);
  EXPECT_TRUE(base.ok());
  EXPECT_TRUE(sharded.ok());
  EXPECT_EQ(base.sim_time, sharded.sim_time);
  EXPECT_EQ(base.messages, sharded.messages);
  EXPECT_EQ(base.net.packets, sharded.net.packets);
  EXPECT_EQ(base.net.faults_dropped, sharded.net.faults_dropped);
  EXPECT_EQ(base.net.faults_duplicated, sharded.net.faults_duplicated);
  EXPECT_EQ(base.net.faults_reordered, sharded.net.faults_reordered);
  EXPECT_EQ(base.net.faults_corrupted, sharded.net.faults_corrupted);
  EXPECT_EQ(base.reliability.retransmits, sharded.reliability.retransmits);
  EXPECT_EQ(base.reliability.delivered, sharded.reliability.delivered);
  EXPECT_EQ(base.reliability.dup_drops, sharded.reliability.dup_drops);
  EXPECT_EQ(base.reliability.crc_drops, sharded.reliability.crc_drops);
  // Pooled reliability buffers: the retransmission storm above must not
  // have grown buffers beyond the handful of warm-up reservations (a
  // couple of ring growths + one rx reservation per active peer pair).
  EXPECT_GT(base.reliability.retransmits, 0u);
  EXPECT_LE(base.reliability.buffer_allocs,
            static_cast<std::uint64_t>(8 * 7 * 3));
  EXPECT_EQ(base.reliability.buffer_allocs,
            sharded.reliability.buffer_allocs);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedFaultySoak,
                         ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "shards" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Multi-rank simulated time, pinned to the picosecond.  The chaos CSV
// prints sim_ms to 1 us and the figures are 2-node runs, so this table is
// what catches a change that moves multi-rank timing by nanoseconds: a
// one-edge shift of the ALPU's tie rule (alpu/alpu.hpp) moves two rows.
// The rows come from the clocked ALPU, before it became event-free; every
// shard count must reproduce them.
// ---------------------------------------------------------------------------

struct PinnedChaos {
  int ranks;
  std::uint64_t seed;
  double drop;
  common::TimePs sim_time;
  std::uint64_t retransmits;
  std::uint64_t acks_tx;
  std::uint64_t timeouts;
};

// {ranks, seed, drop, sim_time (ps), retransmits, acks_tx, timeouts}
const std::vector<PinnedChaos> kPinnedChaos = {
    {4, 1, 0, 257660000u, 0, 0, 0}
,
    {4, 1, 0.01, 257804000u, 2, 253, 1}
,
    {4, 1, 0.05, 327089793u, 112, 259, 15}
,
    {4, 2, 0, 269677500u, 0, 0, 0}
,
    {4, 2, 0.01, 281762000u, 60, 263, 5}
,
    {4, 2, 0.05, 586391060u, 129, 285, 16}
,
    {4, 3, 0, 306540500u, 0, 0, 0}
,
    {4, 3, 0.01, 309900041u, 45, 297, 6}
,
    {4, 3, 0.05, 400268000u, 123, 300, 15}
,
    {4, 4, 0, 403972000u, 0, 0, 0}
,
    {4, 4, 0.01, 1263315500u, 180, 446, 25}
,
    {4, 4, 0.05, 1199742000u, 274, 475, 37}
,
    {8, 1, 0, 592355500u, 0, 0, 0}
,
    {8, 1, 0.01, 605247500u, 105, 1233, 19}
,
    {8, 1, 0.05, 910742500u, 371, 1265, 68}
,
    {8, 2, 0, 662158500u, 0, 0, 0}
,
    {8, 2, 0.01, 662208500u, 118, 1237, 17}
,
    {8, 2, 0.05, 721481662u, 318, 1242, 50}
,
    {8, 3, 0, 553637500u, 0, 0, 0}
,
    {8, 3, 0.01, 585440879u, 131, 1242, 23}
,
    {8, 3, 0.05, 746435500u, 436, 1280, 72}
,
    {8, 4, 0, 621941000u, 0, 0, 0}
,
    {8, 4, 0.01, 622085000u, 65, 1237, 8}
,
    {8, 4, 0.05, 949936000u, 290, 1257, 55}
,
    {16, 1, 0, 1174043500u, 0, 0, 0}
,
    {16, 1, 0.01, 1173759500u, 185, 5150, 66}
,
    {16, 1, 0.05, 1246975000u, 930, 5311, 305}
,
    {16, 2, 0, 1203495500u, 0, 0, 0}
,
    {16, 2, 0.01, 1178858000u, 216, 5129, 72}
,
    {16, 2, 0.05, 1366939628u, 919, 5255, 275}
,
    {16, 3, 0, 1122255000u, 0, 0, 0}
,
    {16, 3, 0.01, 1182491000u, 286, 5097, 84}
,
    {16, 3, 0.05, 1466493500u, 976, 5151, 289}
,
    {16, 4, 0, 1198077000u, 0, 0, 0}
,
    {16, 4, 0.01, 1207381500u, 180, 5195, 54}
,
    {16, 4, 0.05, 1254224500u, 953, 5320, 284}
,
};

class ChaosTimePinned : public ::testing::TestWithParam<int> {};

TEST_P(ChaosTimePinned, MatchesTheCommittedTable) {
  const int shards = GetParam();
  const auto results = workload::sweep_map(
      kPinnedChaos,
      [shards](const PinnedChaos& row) {
        workload::ChaosParams p;
        p.ranks = row.ranks;
        p.per_pair = 16;
        p.seed = row.seed;
        p.faults.drop_rate = row.drop;
        p.faults.dup_rate = row.drop / 2;
        p.faults.reorder_rate = row.drop / 2;
        p.faults.seed = 7 * row.seed + 1;
        p.shards = shards;
        return workload::run_chaos(p);
      },
      workload::SweepOptions{.jobs = 4, .shards = 1, .seu = {}});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PinnedChaos& want = kPinnedChaos[i];
    const workload::ChaosResult& got = results[i];
    SCOPED_TRACE(::testing::Message() << "ranks=" << want.ranks
                                      << " seed=" << want.seed
                                      << " drop=" << want.drop);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.sim_time, want.sim_time);
    EXPECT_EQ(got.reliability.retransmits, want.retransmits);
    EXPECT_EQ(got.reliability.acks_tx, want.acks_tx);
    EXPECT_EQ(got.reliability.timeouts, want.timeouts);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ChaosTimePinned, ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "shards" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Steady-state allocation gate for the NIC control path.  The dense
// tables and pooled FlatMaps (common/dense.hpp) report every backing
// growth through NicStats.control_allocs; after one full traffic wave
// has pushed each structure to its high-water mark, an identical second
// wave — same plan, faults still firing — must not grow anything.  This
// is the machine-level counterpart of FlatMap.SteadyStateChurnIsAllocationFree
// in test_common.cpp, and it runs at 1 and 2 shards so the sharded
// control path is pinned too.
// ---------------------------------------------------------------------------

/// Runs the plan's traffic twice from one coroutine, snapshotting this
/// rank's own NIC allocation counter after each wave drains.  Each rank
/// reads only the NIC on its own shard, so the reads are race-free.
sim::Process two_wave_rank(Machine& machine, const Plan& plan, int rank,
                           std::vector<std::uint64_t>& after_wave1,
                           std::vector<std::uint64_t>& after_wave2) {
  Rank& self = machine.rank(rank);
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<Request> sends;
    std::vector<Request> recvs;
    for (int peer = 0; peer < plan.nranks; ++peer) {
      if (peer == rank) continue;
      const auto p = static_cast<std::size_t>(peer);
      const auto r = static_cast<std::size_t>(rank);
      for (std::size_t i = 0; i < plan.messages[p][r].size(); ++i) {
        sends.push_back(self.isend(peer, static_cast<int>(i),
                                   plan.messages[p][r][i]));
      }
      for (std::size_t i = 0; i < plan.messages[r][p].size(); ++i) {
        recvs.push_back(self.irecv(peer, static_cast<int>(i), 64 * 1024));
      }
    }
    co_await self.waitall(std::move(sends));
    for (Request& rq : recvs) co_await self.wait(rq);
    co_await self.barrier();
    auto& snapshot = wave == 0 ? after_wave1 : after_wave2;
    snapshot[static_cast<std::size_t>(rank)] =
        machine.nic(rank).stats().control_allocs;
  }
}

class SteadyStateAllocs : public ::testing::TestWithParam<int> {};

TEST_P(SteadyStateAllocs, ControlPathStopsAllocatingAfterWarmup) {
  const int nshards = GetParam();
  constexpr int kRanks = 4;
  constexpr int kPerPair = 6;
  const Plan plan = make_plan(kRanks, kPerPair, 0xA110C5);

  SystemConfig cfg = workload::make_system_config(NicMode::kAlpu256, kRanks);
  cfg.faults.drop_rate = 0.01;
  cfg.faults.dup_rate = 0.005;
  cfg.faults.reorder_rate = 0.005;
  cfg.faults.corrupt_rate = 0.005;
  cfg.nic.reliability.enabled = true;

  sim::ShardGroup shards(static_cast<unsigned>(nshards));
  Machine machine(shards, cfg);
  sim::ProcessPool pool(machine.engine());
  std::vector<std::uint64_t> after_wave1(kRanks, 0);
  std::vector<std::uint64_t> after_wave2(kRanks, 0);
  for (int r = 0; r < kRanks; ++r) {
    pool.spawn_on(machine.engine(r),
                  two_wave_rank(machine, plan, r, after_wave1, after_wave2));
  }
  shards.run_all(machine.network().min_lookahead());
  ASSERT_TRUE(pool.all_done()) << "two-wave soak deadlocked";

  for (int r = 0; r < kRanks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    // Warm-up growth happened at all (the sink is actually wired)...
    EXPECT_GT(after_wave1[ri], 0u) << "rank " << r;
    // ...and the second wave grew nothing: every table had reached its
    // high-water mark, every erase/insert recycled a pooled slot.
    EXPECT_EQ(after_wave2[ri], after_wave1[ri])
        << "rank " << r << ": control path allocated "
        << (after_wave2[ri] - after_wave1[ri])
        << " more time(s) during the steady-state wave";
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SteadyStateAllocs,
                         ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "shards" + std::to_string(info.param);
                         });

// A run that plans no message completes, conserves and drains
// trivially; its verdict must still be FAIL, or a mistyped soak passes.
TEST(ChaosVerdict, NoMessagesIsNotAPass) {
  workload::ChaosParams p;
  p.per_pair = 0;
  const workload::ChaosResult r = workload::run_chaos(p);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_TRUE(r.completed && r.conserved && r.ordered && r.drained);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace alpu::mpi
