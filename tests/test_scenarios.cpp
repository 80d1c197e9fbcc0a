// Tests for the benchmark scenario runners: the Figure 5/6 harnesses
// must show the paper's qualitative behaviour on every build.  `alpusim
// conform` reports the same claims, with the paper's values, as a table.
#include <gtest/gtest.h>

#include "workload/scenarios.hpp"

namespace alpu::workload {
namespace {

using common::TimePs;

double preposted_ns(NicMode mode, std::size_t len, double frac,
                    int iterations = 1) {
  PrepostedParams p;
  p.mode = mode;
  p.queue_length = len;
  p.fraction_traversed = frac;
  p.iterations = iterations;
  return common::to_ns(run_preposted(p).latency);
}

double unexpected_ns(NicMode mode, std::size_t len) {
  UnexpectedParams p;
  p.mode = mode;
  p.queue_length = len;
  return common::to_ns(run_unexpected(p).latency);
}

TEST(Scenarios, ConfigWiresAlpusPerMode) {
  EXPECT_FALSE(make_system_config(NicMode::kBaseline).nic.posted_alpu);
  const auto a128 = make_system_config(NicMode::kAlpu128);
  ASSERT_TRUE(a128.nic.posted_alpu.has_value());
  EXPECT_EQ(a128.nic.posted_alpu->total_cells, 128u);
  ASSERT_TRUE(a128.nic.unexpected_alpu.has_value());
  const auto a256 = make_system_config(NicMode::kAlpu256);
  EXPECT_EQ(a256.nic.posted_alpu->total_cells, 256u);
}

TEST(Scenarios, PingPongLatencyIsSane) {
  const TimePs t = run_pingpong(NicMode::kBaseline, 0, 4);
  // Half-RTT for a 0-byte message: hundreds of ns to a few us.
  EXPECT_GT(t, 300'000u);   // > 300 ns
  EXPECT_LT(t, 5'000'000u);  // < 5 us
}

TEST(Scenarios, PingPongAlpuOverheadSmall) {
  const TimePs base = run_pingpong(NicMode::kBaseline, 0, 4);
  const TimePs alpu = run_pingpong(NicMode::kAlpu128, 0, 4);
  EXPECT_GT(alpu, base);              // some overhead...
  EXPECT_LT(alpu - base, 300'000u);   // ...but well under 300 ns
}

TEST(Scenarios, BaselineLatencyGrowsWithQueueLength) {
  const double l0 = preposted_ns(NicMode::kBaseline, 0, 1.0);
  const double l50 = preposted_ns(NicMode::kBaseline, 50, 1.0);
  const double l200 = preposted_ns(NicMode::kBaseline, 200, 1.0);
  EXPECT_LT(l0, l50);
  EXPECT_LT(l50, l200);
  // Short-queue slope near the paper's ~15 ns/entry.
  EXPECT_NEAR((l200 - l50) / 150.0, 15.0, 6.0);
}

TEST(Scenarios, BaselineLatencyGrowsWithFractionTraversed) {
  const double f25 = preposted_ns(NicMode::kBaseline, 200, 0.25);
  const double f100 = preposted_ns(NicMode::kBaseline, 200, 1.0);
  EXPECT_LT(f25, f100);
}

TEST(Scenarios, AlpuFlatWithinCapacity) {
  const double l0 = preposted_ns(NicMode::kAlpu256, 0, 1.0);
  const double l100 = preposted_ns(NicMode::kAlpu256, 100, 1.0);
  const double l200 = preposted_ns(NicMode::kAlpu256, 200, 1.0);
  EXPECT_NEAR(l100, l0, 20.0);
  EXPECT_NEAR(l200, l0, 20.0);
}

TEST(Scenarios, AlpuGrowsOnlyBeyondCapacity) {
  const double within = preposted_ns(NicMode::kAlpu128, 100, 1.0);
  const double beyond = preposted_ns(NicMode::kAlpu128, 200, 1.0);
  EXPECT_GT(beyond, within + 500.0);  // overflow walk is visible
  // And the 256-entry unit handles the same queue flat.
  const double big = preposted_ns(NicMode::kAlpu256, 200, 1.0);
  EXPECT_LT(big, within + 20.0);
}

TEST(Scenarios, BreakEvenNearFiveEntries) {
  // The paper: ALPU overhead amortises at ~5 entries.
  const double base5 = preposted_ns(NicMode::kBaseline, 5, 1.0);
  const double alpu5 = preposted_ns(NicMode::kAlpu128, 5, 1.0);
  EXPECT_LE(alpu5, base5 + 20.0);
  const double base20 = preposted_ns(NicMode::kBaseline, 20, 1.0);
  const double alpu20 = preposted_ns(NicMode::kAlpu128, 20, 1.0);
  EXPECT_LT(alpu20, base20);
}

TEST(Scenarios, CacheKneeRaisesPerEntryCost) {
  // Past the 32 KB L1 (~250 entries at 128 B of footprint), the walk
  // misses: the AVERAGE per-entry cost at depth approaches the paper's
  // ~64 ns out-of-cache figure, far above the ~15 ns in-cache cost.
  const double l0 = preposted_ns(NicMode::kBaseline, 0, 1.0);
  const double l500 = preposted_ns(NicMode::kBaseline, 500, 1.0);
  const double avg = (l500 - l0) / 500.0;
  EXPECT_GT(avg, 45.0);
  EXPECT_LT(avg, 80.0);
  // And the marginal cost beyond the knee clearly exceeds the in-cache
  // slope (the "rises more dramatically" of Section VI-C).
  const double l300 = preposted_ns(NicMode::kBaseline, 300, 1.0);
  EXPECT_GT((l500 - l300) / 200.0, 40.0);
}

TEST(Scenarios, IteratedModeWarmsTheCache) {
  // Steady-state (iterated) traversal of a 400-entry queue re-touches
  // lines the previous iteration loaded: average must be well below the
  // cold single-shot figure.
  const double cold = preposted_ns(NicMode::kBaseline, 400, 1.0);
  const double warm = preposted_ns(NicMode::kBaseline, 400, 1.0, 6);
  EXPECT_LT(warm, cold);
}

TEST(Scenarios, UnexpectedSearchHiddenAtShortQueues) {
  // The deliberate overlap: the posting-time search hides under the
  // message transfer for short queues.
  const double u0 = unexpected_ns(NicMode::kBaseline, 0);
  const double u20 = unexpected_ns(NicMode::kBaseline, 20);
  EXPECT_NEAR(u20, u0, 30.0);
}

TEST(Scenarios, UnexpectedBaselineEventuallyGrows) {
  const double u0 = unexpected_ns(NicMode::kBaseline, 0);
  const double u300 = unexpected_ns(NicMode::kBaseline, 300);
  EXPECT_GT(u300, u0 + 2'000.0);
}

TEST(Scenarios, UnexpectedAlpuWinsPastCrossover) {
  const double base = unexpected_ns(NicMode::kBaseline, 200);
  const double alpu = unexpected_ns(NicMode::kAlpu256, 200);
  EXPECT_LT(alpu, base);
}

TEST(Scenarios, UnexpectedAlpuSmallPenaltyAtShortQueues) {
  const double base = unexpected_ns(NicMode::kBaseline, 1);
  const double alpu = unexpected_ns(NicMode::kAlpu128, 1);
  EXPECT_GT(alpu, base);            // a loss...
  EXPECT_LT(alpu - base, 400.0);    // ...of small constant size
}

TEST(Scenarios, PipelinedModelReproducesTransactionLatencies) {
  // System-level cross-check: the stage-level unit behind the same
  // firmware must reproduce the Figure-5 curve.  Latency may differ by
  // at most a few cycles of model detail per ALPU interaction.
  for (std::size_t len : {0ul, 50ul, 150ul}) {
    PrepostedParams txn;
    txn.mode = NicMode::kAlpu128;
    txn.queue_length = len;
    const double t_txn = common::to_ns(run_preposted(txn).latency);

    PrepostedParams pipe = txn;
    auto cfg = make_system_config(NicMode::kAlpu128);
    cfg.nic.alpu_model = nic::AlpuModelKind::kPipelined;
    pipe.system = cfg;
    const LatencyResult r = run_preposted(pipe);
    EXPECT_NEAR(common::to_ns(r.latency), t_txn, 40.0) << "L=" << len;
    if (len < 128) {
      EXPECT_GT(r.alpu_hits, 0u);  // past capacity the hit is software's
    }
  }
}

TEST(Scenarios, PipelinedModelUnexpectedPathAgrees) {
  UnexpectedParams txn;
  txn.mode = NicMode::kAlpu256;
  txn.queue_length = 150;
  const double t_txn = common::to_ns(run_unexpected(txn).latency);

  UnexpectedParams pipe = txn;
  auto cfg = make_system_config(NicMode::kAlpu256);
  cfg.nic.alpu_model = nic::AlpuModelKind::kPipelined;
  pipe.system = cfg;
  EXPECT_NEAR(common::to_ns(run_unexpected(pipe).latency), t_txn, 60.0);
}

TEST(Scenarios, MessageGapGrowsWithQueueInBaselineOnly) {
  auto gap = [](NicMode mode, std::size_t len) {
    MessageRateParams p;
    p.mode = mode;
    p.queue_length = len;
    p.burst = 32;
    return common::to_ns(run_message_rate(p));
  };
  const double base0 = gap(NicMode::kBaseline, 0);
  const double base100 = gap(NicMode::kBaseline, 100);
  EXPECT_GT(base100, base0 + 1'000.0);  // ~14 ns x 100 entries per message
  const double alpu0 = gap(NicMode::kAlpu256, 0);
  const double alpu100 = gap(NicMode::kAlpu256, 100);
  EXPECT_NEAR(alpu100, alpu0, 30.0);  // flat within capacity
}

TEST(Scenarios, Elan4ClassNicIsTenTimesSlowerPerEntry) {
  // Section VI-B's comparison: ~150 ns/entry vs ~15 ns/entry.
  auto slope = [](std::optional<mpi::SystemConfig> system) {
    PrepostedParams p;
    p.mode = NicMode::kBaseline;
    p.system = std::move(system);
    p.queue_length = 0;
    const double l0 = common::to_ns(run_preposted(p).latency);
    p.queue_length = 100;
    const double l100 = common::to_ns(run_preposted(p).latency);
    return (l100 - l0) / 100.0;
  };
  const double elan = slope(make_elan4_like_config());
  const double red_storm = slope(std::nullopt);
  EXPECT_NEAR(elan, 150.0, 15.0);
  EXPECT_NEAR(red_storm, 14.0, 2.0);
  EXPECT_NEAR(elan / red_storm, 10.0, 2.0);
}

TEST(Scenarios, ResultCountersAreConsistent) {
  PrepostedParams p;
  p.mode = NicMode::kAlpu128;
  p.queue_length = 50;
  const LatencyResult r = run_preposted(p);
  EXPECT_GT(r.alpu_hits, 0u);
  EXPECT_GT(r.l1_hit_rate, 0.0);
  EXPECT_LE(r.l1_hit_rate, 1.0);
  EXPECT_GT(r.total_sim_time, r.latency);
}

}  // namespace
}  // namespace alpu::workload
