// Tests for the multi-process ALPU extension (footnote 1): PID-qualified
// matching, per-process teardown, and the RESET MATCHING sweep.
#include <gtest/gtest.h>

#include <unordered_map>

#include "alpu/multi.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {
namespace {

using match::Envelope;
using match::make_recv_pattern;
using match::pack;

constexpr common::TimePs kCycle = 2'000;

// ---- PID packing -------------------------------------------------------------

TEST(Pid, StampAndExtract) {
  const MatchWord w = pack(Envelope{3, 100, 200});
  EXPECT_EQ(pid_of(with_pid(w, 0)), 0u);
  EXPECT_EQ(pid_of(with_pid(w, 63)), 63u);
  EXPECT_EQ(pid_of(with_pid(with_pid(w, 5), 9)), 9u);  // restamp replaces
  // The MPI fields survive stamping.
  EXPECT_EQ(match::unpack(with_pid(w, 17)), (Envelope{3, 100, 200}));
}

TEST(Pid, MaskLayoutDoesNotOverlapMpiFields) {
  EXPECT_EQ(kPidMask & match::kFullMask, 0u);
  EXPECT_EQ(kPidSignificantMask, match::kFullMask | kPidMask);
}

// ---- functional isolation in the array ---------------------------------------

TEST(MultiArray, PidQualifiedComparatorsIsolateProcesses) {
  AlpuArray array(AlpuFlavor::kPostedReceive, 32, 8, kPidSignificantMask);
  const auto p = make_recv_pattern(0, 1, 7);
  ASSERT_TRUE(array.insert(with_pid(p.bits, 1), p.mask, 11));
  ASSERT_TRUE(array.insert(with_pid(p.bits, 2), p.mask, 22));

  const MatchWord header = pack(Envelope{0, 1, 7});
  const auto m1 = array.match(Probe{with_pid(header, 1), 0, 0});
  ASSERT_TRUE(m1.hit);
  EXPECT_EQ(m1.cookie, 11u);
  const auto m2 = array.match(Probe{with_pid(header, 2), 0, 0});
  ASSERT_TRUE(m2.hit);
  EXPECT_EQ(m2.cookie, 22u);
  EXPECT_FALSE(array.match(Probe{with_pid(header, 3), 0, 0}).hit);
}

TEST(MultiArray, WildcardsStillWorkWithinAProcess) {
  AlpuArray array(AlpuFlavor::kPostedReceive, 32, 8, kPidSignificantMask);
  const auto any_src = make_recv_pattern(0, std::nullopt, 7);
  ASSERT_TRUE(array.insert(with_pid(any_src.bits, 4),
                           any_src.mask & ~kPidMask, 44));
  EXPECT_TRUE(
      array.match(Probe{with_pid(pack(Envelope{0, 9, 7}), 4), 0, 0}).hit);
  EXPECT_FALSE(
      array.match(Probe{with_pid(pack(Envelope{0, 9, 7}), 5), 0, 0}).hit);
}

TEST(MultiArray, InvalidateMatchingRemovesSelectedAndCompacts) {
  AlpuArray array(AlpuFlavor::kPostedReceive, 32, 8, kPidSignificantMask);
  const auto p = make_recv_pattern(0, 1, 7);
  for (std::uint32_t pid : {1u, 2u, 1u, 3u, 1u}) {
    ASSERT_TRUE(array.insert(with_pid(p.bits, pid), p.mask, pid * 100));
  }
  // Flush pid 1: selector matches only the PID field.
  const std::size_t removed =
      array.invalidate_matching(Probe{with_pid(0, 1), ~kPidMask, 0});
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(array.occupancy(), 2u);
  // Survivors keep their relative order (2 before 3).
  EXPECT_EQ(array.cell(0).cookie, 200u);
  EXPECT_EQ(array.cell(1).cookie, 300u);
}

TEST(MultiArray, InvalidateMatchingNothingIsNoop) {
  AlpuArray array(AlpuFlavor::kPostedReceive, 16, 8, kPidSignificantMask);
  const auto p = make_recv_pattern(0, 1, 7);
  ASSERT_TRUE(array.insert(with_pid(p.bits, 1), p.mask, 1));
  EXPECT_EQ(array.invalidate_matching(Probe{with_pid(0, 9), ~kPidMask, 0}),
            0u);
  EXPECT_EQ(array.occupancy(), 1u);
}

// ---- cycle-level unit with the facade -----------------------------------------

class MultiUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AlpuConfig cfg;
    cfg.total_cells = 32;
    cfg.block_size = 8;
    cfg.clock = common::ClockPeriod{kCycle};
    multi = std::make_unique<MultiProcessAlpu>(engine, "dut", cfg);
  }

  /// Steps one cycle at a time while the unit is awake, so a unit that
  /// sleeps without a result fails at once.
  Response next_result(common::TimePs budget = 1'000'000) {
    const common::TimePs deadline = engine.now() + budget;
    while (!multi->unit().result_available() && !multi->unit().idle() &&
           engine.now() < deadline) {
      engine.run_until(engine.now() + kCycle);
    }
    EXPECT_TRUE(multi->unit().result_available()) << "no result within budget";
    return multi->pop_result().value_or(Response{});
  }

  void load(std::uint32_t pid, std::uint32_t tag, Cookie cookie) {
    ASSERT_TRUE(multi->push_command({CommandKind::kStartInsert, 0, 0, 0}));
    ASSERT_EQ(next_result().kind, ResponseKind::kStartAck);
    const auto p = make_recv_pattern(0, 1, tag);
    ASSERT_TRUE(multi->push_insert(pid, p.bits, p.mask, cookie));
    ASSERT_TRUE(multi->push_command({CommandKind::kStopInsert, 0, 0, 0}));
    engine.run_until(engine.now() + 12 * kCycle);
  }

  sim::Engine engine;
  std::unique_ptr<MultiProcessAlpu> multi;
};

TEST_F(MultiUnitTest, ProbesOnlySeeOwnProcess) {
  load(1, 7, 100);
  load(2, 7, 200);
  ASSERT_TRUE(multi->push_probe(3, Probe{pack(Envelope{0, 1, 7}), 0, 1}));
  EXPECT_EQ(next_result().kind, ResponseKind::kMatchFailure);
  ASSERT_TRUE(multi->push_probe(2, Probe{pack(Envelope{0, 1, 7}), 0, 2}));
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kMatchSuccess);
  EXPECT_EQ(r.cookie, 200u);
  // Process 1's entry is untouched.
  EXPECT_EQ(multi->unit().array().occupancy(), 1u);
}

TEST_F(MultiUnitTest, FlushProcessRemovesOnlyThatProcess) {
  load(1, 7, 100);
  load(2, 7, 200);
  load(1, 8, 101);
  EXPECT_EQ(multi->unit().array().occupancy(), 3u);
  ASSERT_TRUE(multi->flush_process(1));
  engine.run_until(engine.now() + 32 * kCycle);
  EXPECT_EQ(multi->unit().array().occupancy(), 1u);
  EXPECT_EQ(multi->unit().stats().flushes, 1u);
  EXPECT_EQ(multi->unit().stats().flushed_entries, 2u);
  // Process 2 still matches after the sweep.
  ASSERT_TRUE(multi->push_probe(2, Probe{pack(Envelope{0, 1, 7}), 0, 5}));
  EXPECT_EQ(next_result().cookie, 200u);
}

TEST_F(MultiUnitTest, FlushSweepOccupiesOneCyclePerBlock) {
  load(1, 7, 100);
  ASSERT_TRUE(multi->flush_process(1));
  // Decode (1 cycle) + sweep (capacity/block = 4 cycles); a probe queued
  // behind the flush is answered only after the sweep retires.
  ASSERT_TRUE(multi->push_probe(1, Probe{pack(Envelope{0, 1, 7}), 0, 9}));
  const common::TimePs t0 = engine.now();
  const Response r = next_result();
  EXPECT_EQ(r.kind, ResponseKind::kMatchFailure);  // entry was flushed
  EXPECT_GE(r.issued_at - t0, (1 + 4 + 7) * kCycle);
}

TEST_F(MultiUnitTest, InsertedForBookkeeping) {
  load(1, 7, 100);
  load(1, 8, 101);
  load(2, 9, 200);
  EXPECT_EQ(multi->inserted_for(1), 2u);
  EXPECT_EQ(multi->inserted_for(2), 1u);
  EXPECT_EQ(multi->inserted_for(7), 0u);
  ASSERT_TRUE(multi->flush_process(1));
  EXPECT_EQ(multi->inserted_for(1), 0u);
}

// ---- randomized isolation property --------------------------------------------

TEST(MultiArray, RandomTrafficNeverCrossesProcessBoundaries) {
  common::Xoshiro256 rng(7);
  AlpuArray array(AlpuFlavor::kPostedReceive, 128, 16, kPidSignificantMask);
  // Reference: independent per-process entry lists.
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<match::Pattern, Cookie>>>
      model;

  Cookie next = 1;
  for (int step = 0; step < 3'000; ++step) {
    const auto pid = static_cast<std::uint32_t>(rng.below(4));
    if (rng.chance(0.5) && !array.full()) {
      const auto p = make_recv_pattern(
          0,
          rng.chance(0.3) ? std::nullopt
                          : std::optional<std::uint32_t>{
                                static_cast<std::uint32_t>(rng.below(4))},
          static_cast<std::uint32_t>(rng.below(4)));
      const Cookie c = next++;
      ASSERT_TRUE(array.insert(with_pid(p.bits, pid), p.mask & ~kPidMask, c));
      model[pid].emplace_back(p, c);
    } else {
      const MatchWord header =
          pack(Envelope{0, static_cast<std::uint32_t>(rng.below(4)),
                        static_cast<std::uint32_t>(rng.below(4))});
      const auto got =
          array.match_and_delete(Probe{with_pid(header, pid), 0, 0});
      auto& list = model[pid];
      bool found = false;
      for (auto it = list.begin(); it != list.end(); ++it) {
        if (it->first.matches(header)) {
          ASSERT_TRUE(got.hit);
          ASSERT_EQ(got.cookie, it->second);
          list.erase(it);
          found = true;
          break;
        }
      }
      if (!found) {
        ASSERT_FALSE(got.hit);
      }
    }
  }
}

}  // namespace
}  // namespace alpu::hw
