// Cycle-level tests of the ALPU component: Figure 3 state machine,
// Table I/II protocol, Section V-D pipeline timing, insert-mode safety.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "alpu/alpu.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {
namespace {

using common::TimePs;
using match::Envelope;
using match::make_recv_pattern;
using match::pack;

constexpr TimePs kCycle = 2'000;  // 500 MHz

class AlpuUnitTest : public ::testing::Test {
 protected:
  void make(std::size_t cells = 16, std::size_t block = 8,
            std::size_t result_depth = 64) {
    AlpuConfig cfg;
    cfg.flavor = AlpuFlavor::kPostedReceive;
    cfg.total_cells = cells;
    cfg.block_size = block;
    cfg.clock = common::ClockPeriod{kCycle};
    cfg.match_latency_cycles = 7;
    cfg.insert_interval_cycles = 2;
    cfg.header_fifo_depth = 8;
    cfg.command_fifo_depth = 32;
    cfg.result_fifo_depth = result_depth;
    unit = std::make_unique<Alpu>(engine, "dut", cfg);
  }

  /// Run the simulation forward until a result is available (or fail).
  /// Steps one cycle at a time while the unit is awake, so a unit that
  /// sleeps without a result fails at once.
  Response next_result(TimePs budget = 1'000'000) {
    const TimePs deadline = engine.now() + budget;
    while (!unit->result_available() && !unit->idle() &&
           engine.now() < deadline) {
      engine.run_until(engine.now() + kCycle);
    }
    EXPECT_TRUE(unit->result_available()) << "no result within budget";
    return unit->pop_result().value_or(Response{});
  }

  /// Drive a full insert session for `entries` (returns granted count).
  std::uint32_t insert_all(
      const std::vector<std::pair<match::Pattern, Cookie>>& entries) {
    EXPECT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
    const Response ack = next_result();
    EXPECT_EQ(ack.kind, ResponseKind::kStartAck);
    for (const auto& [p, c] : entries) {
      EXPECT_TRUE(unit->push_command({CommandKind::kInsert, p.bits, p.mask, c}));
    }
    EXPECT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
    engine.run_until(engine.now() + kCycle * (4 + 2 * entries.size() + 8));
    return ack.free_slots;
  }

  Probe probe_of(std::uint32_t ctx, std::uint32_t src, std::uint32_t tag,
                 std::uint64_t seq = 0) {
    return Probe{pack(Envelope{ctx, src, tag}), 0, seq};
  }

  sim::Engine engine;
  std::unique_ptr<Alpu> unit;
};

// ---- protocol basics -------------------------------------------------------

TEST_F(AlpuUnitTest, StartInsertYieldsAckWithFreeCount) {
  make(16, 8);
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kStartAck);
  EXPECT_EQ(r.free_slots, 16u);
  EXPECT_TRUE(unit->in_insert_mode());
}

TEST_F(AlpuUnitTest, AckReportsRemainingSpace) {
  make(16, 8);
  const auto p = make_recv_pattern(0, 1, 1);
  insert_all({{p, 1}, {p, 2}, {p, 3}});
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kStartAck);
  EXPECT_EQ(r.free_slots, 13u);
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 10 * kCycle);
}

TEST_F(AlpuUnitTest, MatchSuccessReturnsTagAndDeletes) {
  make();
  insert_all({{make_recv_pattern(0, 1, 7), 77}});
  EXPECT_EQ(unit->array().occupancy(), 1u);
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 7, 5)));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kMatchSuccess);
  EXPECT_EQ(r.cookie, 77u);
  EXPECT_EQ(r.probe_seq, 5u);
  EXPECT_EQ(unit->array().occupancy(), 0u);  // MPI consume-on-match
}

TEST_F(AlpuUnitTest, MatchFailureOnEmptyArray) {
  make();
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 7, 3)));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kMatchFailure);
  EXPECT_EQ(r.probe_seq, 3u);
}

TEST_F(AlpuUnitTest, ResetClearsEntries) {
  make();
  insert_all({{make_recv_pattern(0, 1, 7), 1}});
  ASSERT_TRUE(unit->push_command({CommandKind::kReset, 0, 0, 0}));
  engine.run_until(engine.now() + 8 * kCycle);
  EXPECT_EQ(unit->array().occupancy(), 0u);
  EXPECT_EQ(unit->stats().resets, 1u);
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 7)));
  EXPECT_EQ(next_result().kind, ResponseKind::kMatchFailure);
}

TEST_F(AlpuUnitTest, InsertWithoutStartInsertIsDiscarded) {
  make();
  const auto p = make_recv_pattern(0, 1, 7);
  // Section III-C: in Read Command state only RESET and START INSERT are
  // valid; a bare INSERT is discarded.
  ASSERT_TRUE(unit->push_command({CommandKind::kInsert, p.bits, p.mask, 9}));
  engine.run_until(engine.now() + 10 * kCycle);
  EXPECT_EQ(unit->array().occupancy(), 0u);
  EXPECT_EQ(unit->stats().commands_discarded, 1u);
  // The unit returns to matching.
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 7)));
  EXPECT_EQ(next_result().kind, ResponseKind::kMatchFailure);
}

TEST_F(AlpuUnitTest, StopInsertWithoutStartIsDiscarded) {
  make();
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 10 * kCycle);
  EXPECT_EQ(unit->stats().commands_discarded, 1u);
  EXPECT_FALSE(unit->in_insert_mode());
}

TEST_F(AlpuUnitTest, RedundantStartInsertReAcks) {
  make();
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
  EXPECT_TRUE(unit->in_insert_mode());
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 10 * kCycle);
  EXPECT_FALSE(unit->in_insert_mode());
}

TEST_F(AlpuUnitTest, InsertingPastCapacityDropsAndCounts) {
  make(16, 8);
  std::vector<std::pair<match::Pattern, Cookie>> too_many;
  for (Cookie c = 0; c < 20; ++c) {
    too_many.emplace_back(make_recv_pattern(0, 1, c % 8), c);
  }
  insert_all(too_many);
  EXPECT_EQ(unit->array().occupancy(), 16u);
  EXPECT_EQ(unit->stats().inserts, 16u);
  EXPECT_EQ(unit->stats().inserts_dropped, 4u);
}

TEST_F(AlpuUnitTest, ResetMatchingSweepsSelectedEntriesOnly) {
  make(16, 8);
  insert_all({{make_recv_pattern(0, 1, 1), 1},
              {make_recv_pattern(0, 2, 1), 2},
              {make_recv_pattern(0, 1, 2), 3}});
  // Flush everything whose source field is 1 (mask off all other bits).
  hw::Command flush;
  flush.kind = CommandKind::kResetMatching;
  flush.bits = pack(Envelope{0, 1, 0});
  flush.mask = ~match::kSourceMask;
  ASSERT_TRUE(unit->push_command(flush));
  engine.run_until(engine.now() + 16 * kCycle);
  EXPECT_EQ(unit->array().occupancy(), 1u);
  EXPECT_EQ(unit->stats().flushes, 1u);
  EXPECT_EQ(unit->stats().flushed_entries, 2u);
  // The survivor still matches.
  ASSERT_TRUE(unit->push_probe(probe_of(0, 2, 1)));
  EXPECT_EQ(next_result().cookie, 2u);
}

TEST_F(AlpuUnitTest, ResetMatchingDiscardedInInsertMode) {
  make(16, 8);
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
  ASSERT_TRUE(unit->push_command({CommandKind::kResetMatching, 0, ~0ull, 0}));
  engine.run_until(engine.now() + 16 * kCycle);
  EXPECT_EQ(unit->stats().commands_discarded, 1u);
  EXPECT_EQ(unit->stats().flushes, 0u);
  EXPECT_TRUE(unit->in_insert_mode());
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 8 * kCycle);
}

// ---- pipeline timing (Section V-D) -----------------------------------------

TEST_F(AlpuUnitTest, MatchTakesSevenCycles) {
  make();
  // Probe pushed at time 0; the unit accepts it on the first edge and
  // the result appears exactly match_latency_cycles later.
  ASSERT_TRUE(unit->push_probe(probe_of(0, 0, 0)));
  const Response r = next_result();
  EXPECT_EQ(r.issued_at, 7 * kCycle);
}

TEST_F(AlpuUnitTest, BackToBackMatchesHaveNoOverlap) {
  make();
  ASSERT_TRUE(unit->push_probe(probe_of(0, 0, 0, 1)));
  ASSERT_TRUE(unit->push_probe(probe_of(0, 0, 1, 2)));
  const Response r1 = next_result();
  const Response r2 = next_result();
  EXPECT_EQ(r1.probe_seq, 1u);
  EXPECT_EQ(r2.probe_seq, 2u);
  // No execution overlap: the second result is a full pipeline after
  // the first (plus the idle edge between ops in this model).
  EXPECT_GE(r2.issued_at - r1.issued_at, 7 * kCycle);
  EXPECT_LE(r2.issued_at - r1.issued_at, 8 * kCycle);
}

TEST_F(AlpuUnitTest, InsertsProceedEveryOtherCycle) {
  make(16, 8);
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  (void)next_result();  // ack
  const auto p = make_recv_pattern(0, 1, 1);
  const TimePs t0 = engine.now();
  for (Cookie c = 0; c < 8; ++c) {
    ASSERT_TRUE(unit->push_command({CommandKind::kInsert, p.bits, p.mask, c}));
  }
  // 8 inserts at one per 2 cycles.
  engine.run_until(t0 + (8 * 2 + 2) * kCycle);
  EXPECT_EQ(unit->array().occupancy(), 8u);
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 4 * kCycle);
}

// ---- insert-mode safety (the paper's race-avoidance protocol) --------------

TEST_F(AlpuUnitTest, NoFailureBetweenAckAndStop) {
  make();
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
  // A probe that matches nothing arrives mid-insert-mode: its failure
  // must be HELD, not reported (Section IV-A: "MATCH FAILURE cannot
  // occur between a START ACKNOWLEDGE and a STOP INSERT").
  ASSERT_TRUE(unit->push_probe(probe_of(0, 9, 9, 42)));
  engine.run_until(engine.now() + 40 * kCycle);
  EXPECT_FALSE(unit->result_available());
  // STOP releases the held probe; only now may the failure surface.
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kMatchFailure);
  EXPECT_EQ(r.probe_seq, 42u);
  EXPECT_EQ(unit->stats().held_retries, 1u);
}

TEST_F(AlpuUnitTest, HeldProbeMatchesEntryInsertedLater) {
  make();
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
  // The probe fails against the current (empty) array and is held...
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 7, 1)));
  engine.run_until(engine.now() + 20 * kCycle);
  EXPECT_FALSE(unit->result_available());
  // ...then an insert provides the match; the retry must succeed, and
  // succeed DURING insert mode (successes are never held).
  const auto p = make_recv_pattern(0, 1, 7);
  ASSERT_TRUE(unit->push_command({CommandKind::kInsert, p.bits, p.mask, 5}));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kMatchSuccess);
  EXPECT_EQ(r.cookie, 5u);
  EXPECT_TRUE(unit->in_insert_mode());
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 4 * kCycle);
}

TEST_F(AlpuUnitTest, SuccessesFlowDuringInsertMode) {
  make();
  insert_all({{make_recv_pattern(0, 1, 1), 1}});
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 1, 9)));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kMatchSuccess);
  EXPECT_TRUE(unit->in_insert_mode());
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 4 * kCycle);
}

TEST_F(AlpuUnitTest, HeldProbeBlocksYoungerProbes) {
  make();
  insert_all({{make_recv_pattern(0, 2, 2), 22}});
  ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  EXPECT_EQ(next_result().kind, ResponseKind::kStartAck);
  // First probe fails and is held; a second, matchable probe queues
  // behind it.  Results must come back in probe order after STOP.
  ASSERT_TRUE(unit->push_probe(probe_of(0, 9, 9, 1)));
  ASSERT_TRUE(unit->push_probe(probe_of(0, 2, 2, 2)));
  engine.run_until(engine.now() + 40 * kCycle);
  EXPECT_FALSE(unit->result_available());
  ASSERT_TRUE(unit->push_command({CommandKind::kStopInsert, 0, 0, 0}));
  const Response r1 = next_result();
  const Response r2 = next_result();
  EXPECT_EQ(r1.probe_seq, 1u);
  EXPECT_EQ(r1.kind, ResponseKind::kMatchFailure);
  EXPECT_EQ(r2.probe_seq, 2u);
  EXPECT_EQ(r2.kind, ResponseKind::kMatchSuccess);
  EXPECT_EQ(r2.cookie, 22u);
}

// ---- flow control ----------------------------------------------------------

TEST_F(AlpuUnitTest, HeaderFifoAppliesBackPressure) {
  make(16, 8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(unit->push_probe(probe_of(0, 0, 0, i)));
  }
  EXPECT_FALSE(unit->push_probe(probe_of(0, 0, 0, 99)));  // depth 8
  // Draining results frees header slots as matches complete.
  (void)next_result();
  EXPECT_TRUE(unit->push_probe(probe_of(0, 0, 0, 8)));
}

TEST_F(AlpuUnitTest, FullResultFifoStallsMatching) {
  make(16, 8, /*result_depth=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(unit->push_probe(probe_of(0, 0, 0, i)));
  }
  engine.run_until(engine.now() + 100 * kCycle);
  // Only two results fit; the third match must not have started (its
  // result would have nowhere to go).
  EXPECT_EQ(unit->stats().probes_accepted, 2u);
  // Draining restarts the pipeline.
  (void)unit->pop_result();
  (void)unit->pop_result();
  engine.run_until(engine.now() + 100 * kCycle);
  EXPECT_EQ(unit->stats().probes_accepted, 4u);
}

TEST_F(AlpuUnitTest, ResultsAreInProbeOrder) {
  make();
  insert_all({{make_recv_pattern(0, 1, 1), 1},
              {make_recv_pattern(0, 1, 2), 2},
              {make_recv_pattern(0, 1, 3), 3}});
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 2, 10)));
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 9, 11)));  // miss
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 1, 12)));
  const Response a = next_result();
  const Response b = next_result();
  const Response c = next_result();
  EXPECT_EQ(a.probe_seq, 10u);
  EXPECT_EQ(a.cookie, 2u);
  EXPECT_EQ(b.probe_seq, 11u);
  EXPECT_EQ(b.kind, ResponseKind::kMatchFailure);
  EXPECT_EQ(c.probe_seq, 12u);
  EXPECT_EQ(c.cookie, 1u);
}

// ---- the tie rule (alpu.hpp) -----------------------------------------------

TEST_F(AlpuUnitTest, CommandPushedInAnEventAtAFinishEdgeDecodesOnIt) {
  make();
  // The match starts on edge 0 and finishes on edge E.
  ASSERT_TRUE(unit->push_probe(probe_of(0, 0, 0, 1)));
  const TimePs finish = 7 * kCycle;
  // Scheduled long before E, this event fires at E ahead of the clocked
  // unit's tick there, so that tick completes the match and decodes
  // START INSERT on E itself: the ACK is one decode cycle later.
  engine.schedule_at(finish, [this] {
    ASSERT_TRUE(unit->push_command({CommandKind::kStartInsert, 0, 0, 0}));
  });
  engine.run_until(finish + 10 * kCycle);
  const std::optional<Response> miss = unit->pop_result();
  const std::optional<Response> ack = unit->pop_result();
  ASSERT_TRUE(miss.has_value());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(miss->kind, ResponseKind::kMatchFailure);
  EXPECT_EQ(miss->issued_at, finish);
  EXPECT_EQ(ack->kind, ResponseKind::kStartAck);
  EXPECT_EQ(ack->issued_at, finish + kCycle);
}

TEST_F(AlpuUnitTest, BetweenRunsAResultDueNowIsVisible) {
  make();
  ASSERT_TRUE(unit->push_probe(probe_of(0, 0, 0, 1)));
  const TimePs finish = 7 * kCycle;
  engine.run_until(finish - 1);
  EXPECT_FALSE(unit->result_available());
  engine.run_until(finish);
  ASSERT_TRUE(unit->result_available());
  EXPECT_EQ(unit->pop_result()->issued_at, finish);
}

TEST_F(AlpuUnitTest, PostsNoEngineEvents) {
  make();
  insert_all({{make_recv_pattern(0, 1, 7), 77}});
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 7, 1)));
  ASSERT_TRUE(unit->push_probe(probe_of(0, 1, 8, 2)));
  EXPECT_EQ(next_result().kind, ResponseKind::kMatchSuccess);
  EXPECT_EQ(next_result().kind, ResponseKind::kMatchFailure);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_executed(), 0u);
}

TEST_F(AlpuUnitTest, SleepsWhenIdle) {
  make();
  ASSERT_TRUE(unit->push_probe(probe_of(0, 0, 0)));
  (void)next_result();
  const std::uint64_t events_before = engine.events_executed();
  engine.run_until(engine.now() + 1'000 * kCycle);
  // An idle ALPU must not burn simulation events every cycle.
  EXPECT_LE(engine.events_executed() - events_before, 3u);
}

}  // namespace
}  // namespace alpu::hw
