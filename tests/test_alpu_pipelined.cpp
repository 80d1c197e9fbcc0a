// Tests for the stage-level pipelined ALPU, including the differential
// property: identical stimulus into the transaction-level Alpu and the
// PipelinedAlpu must produce identical response streams (timing may
// differ by the RTL's block-boundary insert bubbles; behaviour may not).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "alpu/alpu.hpp"
#include "alpu/pipelined.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {
namespace {

using match::Envelope;
using match::make_recv_pattern;
using match::pack;

constexpr common::TimePs kCycle = 2'000;

class PipelinedTest : public ::testing::Test {
 protected:
  void make(std::size_t cells = 32, std::size_t block = 8) {
    PipelinedAlpuConfig cfg;
    cfg.total_cells = cells;
    cfg.block_size = block;
    cfg.clock = common::ClockPeriod{kCycle};
    unit = std::make_unique<PipelinedAlpu>(engine, "dut", cfg);
  }

  /// Steps event by event, so a unit that sleeps fails at the deadline.
  Response next_result(common::TimePs budget = 10'000'000) {
    const common::TimePs deadline = engine.now() + budget;
    while (!unit->result_available() &&
           engine.next_event_time() <= deadline) {
      engine.run_until(engine.next_event_time());
    }
    EXPECT_TRUE(unit->result_available());
    return unit->pop_result().value_or(Response{});
  }

  void load(std::initializer_list<std::pair<match::Pattern, Cookie>> entries) {
    ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
    EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
    for (const auto& [p, c] : entries) {
      ASSERT_TRUE(unit->push_command({CommandKind::kInsert, p.bits, p.mask, c}));
    }
    ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
    engine.run_until(engine.now() + (8 + 4 * entries.size()) * kCycle);
  }

  sim::Engine engine;
  std::unique_ptr<PipelinedAlpu> unit;
};

TEST_F(PipelinedTest, MatchStagesFollowBlockCount) {
  make(256, 16);  // 16 blocks -> 2-cycle cross-block stage -> 7 total
  EXPECT_EQ(unit->match_stages(), 7u);
  make(256, 32);  // 8 blocks -> 6 total
  EXPECT_EQ(unit->match_stages(), 6u);
}

TEST_F(PipelinedTest, MatchLatencyEqualsStageCount) {
  make(256, 16);
  const auto p = make_recv_pattern(0, 1, 7);
  load({{p, 42}});
  const common::TimePs t0 = engine.now();
  ASSERT_TRUE(unit->push_probe({pack(Envelope{0, 1, 7}), 0, 1}));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kMatchSuccess);
  EXPECT_EQ(r.cookie, 42u);
  // Accepted on the next edge after t0, completes 7 stages later.
  EXPECT_LE(r.issued_at - t0, (7 + 2) * kCycle);
  EXPECT_GE(r.issued_at - t0, 7 * kCycle);
}

TEST_F(PipelinedTest, DeleteCommitsOnTheDatapath) {
  make();
  const auto p = make_recv_pattern(0, 1, 7);
  load({{p, 1}, {p, 2}});
  ASSERT_TRUE(unit->push_probe({pack(Envelope{0, 1, 7}), 0, 1}));
  EXPECT_EQ(next_result().cookie, 1u);  // oldest
  EXPECT_EQ(unit->datapath().occupancy(), 1u);
  ASSERT_TRUE(unit->push_probe({pack(Envelope{0, 1, 7}), 0, 2}));
  EXPECT_EQ(next_result().cookie, 2u);
  ASSERT_TRUE(unit->push_probe({pack(Envelope{0, 1, 7}), 0, 3}));
  EXPECT_EQ(next_result().kind, ResponseKind::kMatchFailure);
}

TEST_F(PipelinedTest, HeldFailureReleasedByStopInsert) {
  make();
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
  ASSERT_TRUE(unit->push_probe({pack(Envelope{0, 9, 9}), 0, 7}));
  engine.run_until(engine.now() + 50 * kCycle);
  EXPECT_FALSE(unit->result_available());  // held
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kMatchFailure);
  EXPECT_EQ(r.probe_seq, 7u);
}

TEST_F(PipelinedTest, EveryOtherCycleInsertPaceNeverBubbles) {
  // The design-point validation: at the paper's one-insert-per-two-
  // cycles pace, the compaction network always vacates cell 0 in time —
  // filling the whole array to capacity produces ZERO stalls.  (The raw
  // datapath driven at one insert per cycle DOES bubble at block
  // boundaries; see RtlAlpu.SustainedInsertRateIsBoundedBy...)
  make(32, 8);
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
  const auto p = make_recv_pattern(0, 1, 1);
  for (Cookie c = 0; c < 32; ++c) {
    ASSERT_TRUE(unit->push_command({CommandKind::kInsert, p.bits, p.mask, c}));
  }
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 500 * kCycle);
  EXPECT_EQ(unit->datapath().occupancy(), 32u);
  EXPECT_EQ(unit->stats().inserts, 32u);
  EXPECT_EQ(unit->stats().inserts_dropped, 0u);
  EXPECT_EQ(unit->stats().insert_bubbles, 0u);
}

TEST_F(PipelinedTest, SleepsWhenIdle) {
  make();
  load({{make_recv_pattern(0, 1, 1), 1}});
  engine.run_until(engine.now() + 1'000 * kCycle);
  const auto events = engine.events_executed();
  engine.run_until(engine.now() + 10'000 * kCycle);
  EXPECT_LE(engine.events_executed() - events, 4u);
}

// ---- differential property against the transaction-level model -------------

struct Collected {
  std::vector<Response> responses;
};

class Differential
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::uint64_t>> {};

TEST_P(Differential, ResponseStreamsIdentical) {
  const auto [cells, block, seed] = GetParam();

  // One engine, both units, identical pushes at identical times.
  sim::Engine engine;
  AlpuConfig a_cfg;
  a_cfg.total_cells = cells;
  a_cfg.block_size = block;
  a_cfg.clock = common::ClockPeriod{kCycle};
  a_cfg.match_latency_cycles =
      cells / block >= 16 ? 7 : 6;  // align with the pipelined depth
  a_cfg.header_fifo_depth = 4096;
  a_cfg.command_fifo_depth = 4096;
  a_cfg.result_fifo_depth = 4096;
  Alpu txn(engine, "txn", a_cfg);

  PipelinedAlpuConfig p_cfg;
  p_cfg.total_cells = cells;
  p_cfg.block_size = block;
  p_cfg.clock = common::ClockPeriod{kCycle};
  p_cfg.header_fifo_depth = 4096;
  p_cfg.command_fifo_depth = 4096;
  p_cfg.result_fifo_depth = 4096;
  PipelinedAlpu pipe(engine, "pipe", p_cfg);

  // Protocol-shaped random stimulus: sessions with batches of inserts,
  // probes throughout, occasional resets.
  //
  // The two models drain their FIFOs in the same ORDER, so every
  // same-queue race converges (a probe racing a batch of inserts ends
  // with the same verdict by the hold/retry rule).  What is genuinely
  // timing-dependent is the interleaving BETWEEN the header and command
  // queues around a session boundary — real firmware quiesces there
  // (it reads one result per probe before starting a session; see
  // Nic::update_alpu's gating) — so the driver leaves a drain gap
  // before session-control commands.
  constexpr common::TimePs kDrainGap = 3'000 * kCycle;
  common::Xoshiro256 rng(seed);
  common::TimePs at = 0;
  std::size_t outstanding_inserts = 0;
  int sessions = 3 + static_cast<int>(rng.below(4));
  for (int s = 0; s < sessions; ++s) {
    // Pre-session probes.
    const auto probes = rng.below(8);
    for (std::uint64_t i = 0; i < probes; ++i) {
      at += rng.below(20) * kCycle;
      const Probe probe{pack(Envelope{
                            0, static_cast<std::uint32_t>(rng.below(3)),
                            static_cast<std::uint32_t>(rng.below(3))}),
                        0, at};
      engine.schedule_at(at, [&txn, &pipe, probe] {
        ASSERT_TRUE(txn.push_probe(probe));
        ASSERT_TRUE(pipe.push_probe(probe));
      });
    }
    // The session (after a quiesce gap; see above).
    at += kDrainGap + rng.below(30) * kCycle;
    engine.schedule_at(at, [&txn, &pipe] {
      ASSERT_TRUE(txn.push_command({CommandKind::kStartInsert, 0, 0, 0}));
      ASSERT_TRUE(pipe.push_command({CommandKind::kStartInsert, 0, 0, 0}));
    });
    const auto batch = rng.below(cells / 2);
    for (std::uint64_t i = 0;
         i < batch && outstanding_inserts + 4 < cells; ++i) {
      at += (1 + rng.below(6)) * kCycle;
      const auto pat = make_recv_pattern(
          0,
          rng.chance(0.3) ? std::nullopt
                          : std::optional<std::uint32_t>{
                                static_cast<std::uint32_t>(rng.below(3))},
          static_cast<std::uint32_t>(rng.below(3)));
      const Command cmd{CommandKind::kInsert, pat.bits, pat.mask,
                        static_cast<Cookie>(at / kCycle)};
      engine.schedule_at(at, [&txn, &pipe, cmd] {
        ASSERT_TRUE(txn.push_command(cmd));
        ASSERT_TRUE(pipe.push_command(cmd));
      });
      ++outstanding_inserts;
    }
    // Mid-session probes (some will be held and retried).
    const auto mid = rng.below(4);
    for (std::uint64_t i = 0; i < mid; ++i) {
      at += rng.below(8) * kCycle;
      const Probe probe{pack(Envelope{
                            0, static_cast<std::uint32_t>(rng.below(3)),
                            static_cast<std::uint32_t>(rng.below(3))}),
                        0, at + 1};
      engine.schedule_at(at, [&txn, &pipe, probe] {
        ASSERT_TRUE(txn.push_probe(probe));
        ASSERT_TRUE(pipe.push_probe(probe));
      });
    }
    at += (1 + rng.below(10)) * kCycle;
    engine.schedule_at(at, [&txn, &pipe] {
      ASSERT_TRUE(txn.push_command({CommandKind::kStopInsert, 0, 0, 0}));
      ASSERT_TRUE(pipe.push_command({CommandKind::kStopInsert, 0, 0, 0}));
    });
    if (rng.chance(0.2)) {
      at += kDrainGap + rng.below(10) * kCycle;
      engine.schedule_at(at, [&txn, &pipe] {
        ASSERT_TRUE(txn.push_command({CommandKind::kReset, 0, 0, 0}));
        ASSERT_TRUE(pipe.push_command({CommandKind::kReset, 0, 0, 0}));
      });
      outstanding_inserts = 0;
    }
    at += kDrainGap;  // quiesce before the next phase's probes
  }

  // Generous drain time (the pipelined model adds bubbles).
  engine.run_until(at + 100'000 * kCycle);

  std::vector<Response> from_txn, from_pipe;
  while (auto r = txn.pop_result()) from_txn.push_back(*r);
  while (auto r = pipe.pop_result()) from_pipe.push_back(*r);

  ASSERT_EQ(from_txn.size(), from_pipe.size());
  for (std::size_t i = 0; i < from_txn.size(); ++i) {
    EXPECT_EQ(from_txn[i].kind, from_pipe[i].kind) << "response " << i;
    EXPECT_EQ(from_txn[i].cookie, from_pipe[i].cookie) << "response " << i;
    EXPECT_EQ(from_txn[i].free_slots, from_pipe[i].free_slots)
        << "response " << i;
    EXPECT_EQ(from_txn[i].probe_seq, from_pipe[i].probe_seq)
        << "response " << i;
  }
  // And the arrays agree.
  EXPECT_EQ(pipe.datapath().occupancy(), txn.array().occupancy());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Differential,
    ::testing::Values(std::make_tuple(32, 8, 1), std::make_tuple(32, 16, 2),
                      std::make_tuple(64, 8, 3),
                      std::make_tuple(64, 16, 4),
                      std::make_tuple(128, 8, 5),
                      std::make_tuple(128, 16, 6),
                      std::make_tuple(256, 16, 7),
                      std::make_tuple(256, 32, 8)));

}  // namespace
}  // namespace alpu::hw
