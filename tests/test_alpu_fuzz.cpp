// Protocol fuzzing for the cycle-level ALPU, plus differential fuzzing
// of the SoA match engine against the executable list spec.
//
// Protocol suite: random command/probe streams — including protocol
// violations the firmware is told never to commit — must never deadlock
// the unit or break its externally guaranteed invariants:
//   (1) every probe eventually gets exactly one response, in probe order;
//   (2) MATCH FAILURE is never observed between START ACK and STOP INSERT;
//   (3) occupancy == inserts - successes - flushed (within a session's
//       drops), and never exceeds capacity;
//   (4) the unit goes idle (stops consuming events) when starved.
//
// Differential suite: AlpuArray (word-parallel SoA engine) and
// check::ListSpec (the ordered-list spec the model checker also uses)
// are driven with identical random insert / match / match_and_delete /
// invalidate_matching / reset sequences — wildcard masks included.  They
// must agree on every answer, cells [0, size) must hold the spec's
// entries in order and every cell past them must be invalid, after
// every step, through full-array and empty-array edges.
#include <gtest/gtest.h>

#include <deque>
#include <tuple>

#include "alpu/alpu.hpp"
#include "alpu/array.hpp"
#include "check/spec.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {
namespace {

constexpr common::TimePs kCycle = 2'000;

class AlpuFuzz : public ::testing::TestWithParam<
                     std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(AlpuFuzz, RandomStreamsPreserveInvariants) {
  const auto [cells, block, seed] = GetParam();
  common::Xoshiro256 rng(seed);

  sim::Engine engine;
  AlpuConfig cfg;
  cfg.total_cells = cells;
  cfg.block_size = block;
  cfg.clock = common::ClockPeriod{kCycle};
  cfg.header_fifo_depth = 16;
  cfg.command_fifo_depth = 16;
  cfg.result_fifo_depth = 16;
  Alpu unit(engine, "fuzz", cfg);

  std::uint64_t next_seq = 1;
  std::deque<std::uint64_t> outstanding;  // probes awaiting responses
  std::uint64_t observed_acks = 0;

  // (Invariant 2 — no failure between ACK and STOP — is checked
  // deterministically in test_alpu_unit.cpp; observing it from outside a
  // racing fuzz driver is not well-defined, since a response popped now
  // may have been emitted before the session we currently see.)
  const auto drain_results = [&] {
    while (auto r = unit.pop_result()) {
      switch (r->kind) {
        case ResponseKind::kStartAck:
          ++observed_acks;
          break;
        case ResponseKind::kMatchSuccess:
        case ResponseKind::kMatchFailure:
          ASSERT_FALSE(outstanding.empty());
          ASSERT_EQ(r->probe_seq, outstanding.front())
              << "responses out of probe order";
          outstanding.pop_front();
          break;
        case ResponseKind::kParityFault:
          // No fault model installed in this suite: a parity fault here
          // would mean the unit invented corruption out of thin air.
          FAIL() << "parity fault without a fault model";
          break;
      }
    }
  };

  for (int step = 0; step < 3'000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.35) {
      // A probe (may or may not match).
      Probe p;
      p.bits = match::pack(match::Envelope{
          0, static_cast<std::uint32_t>(rng.below(4)),
          static_cast<std::uint32_t>(rng.below(4))});
      p.seq = next_seq;
      if (unit.push_probe(p)) {
        outstanding.push_back(next_seq++);
      }
    } else if (roll < 0.75) {
      // A command, sometimes illegal for the current state.
      Command cmd;
      const double kind = rng.uniform01();
      if (kind < 0.3) {
        cmd.kind = CommandKind::kStartInsert;
      } else if (kind < 0.75) {
        cmd.kind = CommandKind::kInsert;
        const auto pat = match::make_recv_pattern(
            0,
            rng.chance(0.3) ? std::nullopt
                            : std::optional<std::uint32_t>{
                                  static_cast<std::uint32_t>(rng.below(4))},
            static_cast<std::uint32_t>(rng.below(4)));
        cmd.bits = pat.bits;
        cmd.mask = pat.mask;
        cmd.cookie = static_cast<Cookie>(step);
      } else if (kind < 0.9) {
        cmd.kind = CommandKind::kStopInsert;
      } else if (kind < 0.97) {
        cmd.kind = CommandKind::kReset;
      } else {
        cmd.kind = CommandKind::kResetMatching;
        cmd.bits = 0;
        cmd.mask = ~match::kSourceMask;  // flush everything with src 0
      }
      (void)unit.push_command(cmd);
    }
    // Let time pass and consume results.
    engine.run_until(engine.now() +
                     (1 + rng.below(4)) * kCycle);
    drain_results();
    ASSERT_LE(unit.array().occupancy(), cells);  // invariant (3), bound
  }

  // Close any open session and drain everything.
  for (int i = 0; i < 4; ++i) {
    (void)unit.push_command({CommandKind::kStopInsert, 0, 0, 0});
    engine.run_until(engine.now() + 64 * kCycle);
    drain_results();
  }
  engine.run_until(engine.now() + 2'000 * kCycle);
  drain_results();
  EXPECT_TRUE(outstanding.empty())
      << outstanding.size() << " probes never answered";
  EXPECT_GT(observed_acks, 0u);

  // Invariant (4): a starved unit stops consuming engine events.
  const std::uint64_t events = engine.events_executed();
  engine.run_until(engine.now() + 10'000 * kCycle);
  EXPECT_LE(engine.events_executed() - events, 4u);

  // Bookkeeping closes: every insert either sits in the array, was
  // consumed by a success, was flushed, was dropped over capacity, or
  // vanished in a full RESET (whose per-entry count the unit does not
  // track, hence the inequality that tightens to equality without one).
  const AlpuStats& s = unit.stats();
  const std::uint64_t accounted = unit.array().occupancy() +
                                  s.match_successes + s.flushed_entries;
  EXPECT_LE(accounted, s.inserts);
  if (s.resets == 0) {
    EXPECT_EQ(s.inserts, accounted)
        << "insert conservation broken without any RESET";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlpuFuzz,
    ::testing::Values(std::make_tuple(16, 8, 1), std::make_tuple(32, 8, 2),
                      std::make_tuple(32, 16, 3),
                      std::make_tuple(64, 16, 4),
                      std::make_tuple(128, 32, 5),
                      std::make_tuple(16, 16, 6)));

// ---------------------------------------------------------------------------
// Differential fuzz: SoA engine vs ListSpec
// ---------------------------------------------------------------------------

class AlpuDifferentialFuzz
    : public ::testing::TestWithParam<
          std::tuple<AlpuFlavor, std::size_t, std::size_t, std::uint64_t>> {};

namespace diff {

void expect_same_match(const ArrayMatch& a, const ArrayMatch& b,
                       const char* what) {
  ASSERT_EQ(a.hit, b.hit) << what;
  if (a.hit) {
    ASSERT_EQ(a.location, b.location) << what;
    ASSERT_EQ(a.cookie, b.cookie) << what;
  }
}

void expect_spec_match(const ArrayMatch& a, const check::SpecMatch& want,
                       const char* what) {
  expect_same_match(a, ArrayMatch{want.hit, want.index, want.cookie}, what);
}

void expect_spec_state(const AlpuArray& dut, const check::ListSpec& spec) {
  ASSERT_EQ(dut.occupancy(), spec.size());
  ASSERT_EQ(dut.full(), spec.full());
  ASSERT_EQ(dut.empty(), spec.size() == 0);
  ASSERT_EQ(dut.free_slots(), spec.capacity() - spec.size());
  for (std::size_t i = 0; i < dut.capacity(); ++i) {
    const Cell d = dut.cell(i);
    if (i >= spec.size()) {
      ASSERT_FALSE(d.valid) << "tail cell " << i;
      continue;
    }
    const check::SpecEntry& e = spec.entries()[i];
    ASSERT_TRUE(d.valid) << "cell " << i;
    ASSERT_EQ(d.bits, e.bits) << "cell " << i;
    ASSERT_EQ(d.mask, e.mask) << "cell " << i;
    ASSERT_EQ(d.cookie, e.cookie) << "cell " << i;
  }
}

}  // namespace diff

TEST_P(AlpuDifferentialFuzz, SoAEngineAgreesWithReference) {
  const auto [flavor, cells, block, seed] = GetParam();
  common::Xoshiro256 rng(seed);

  AlpuArray dut(flavor, cells, block);
  check::ListSpec spec(flavor, cells, match::kFullMask);

  // A small envelope universe so matches, misses, and duplicate
  // patterns all occur with useful frequency.
  const auto random_word = [&rng = rng] {
    return match::pack(match::Envelope{
        static_cast<std::uint32_t>(rng.below(2)),
        static_cast<std::uint32_t>(rng.below(4)),
        static_cast<std::uint32_t>(rng.below(4))});
  };
  const auto random_mask = [&rng = rng]() -> MatchWord {
    switch (rng.below(5)) {
      case 0: return 0;                                     // exact
      case 1: return match::kSourceMask;                    // ANY_SOURCE
      case 2: return match::kTagMask;                       // ANY_TAG
      case 3: return match::kSourceMask | match::kTagMask;  // both
      default: return match::kFullMask;                     // match-all
    }
  };

  Cookie next_cookie = 1;
  for (int step = 0; step < 4'000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      // Insert (drives toward the full-array edge; a full array must
      // refuse identically on both sides).
      const MatchWord bits = random_word();
      const MatchWord mask = random_mask();
      const Cookie ck = next_cookie++;
      ASSERT_EQ(dut.insert(bits, mask, ck), spec.insert(bits, mask, ck));
    } else if (roll < 0.60) {
      // Pure probe: linear answer, tree answer, and spec agree.
      const Probe p{random_word(), random_mask(), 0};
      const ArrayMatch d = dut.match(p);
      diff::expect_spec_match(d, spec.match(p.bits, p.mask), "match vs spec");
      diff::expect_same_match(d, dut.match_tree(p), "match vs match_tree");
    } else if (roll < 0.85) {
      // The architectural match pipeline: probe + delete + compaction.
      const Probe p{random_word(), random_mask(), 0};
      diff::expect_spec_match(dut.match_and_delete(p),
                              spec.match_and_delete(p.bits, p.mask),
                              "match_and_delete");
    } else if (roll < 0.97) {
      // RESET PROCESS sweep (multi-delete compaction), occasionally with
      // a match-all selector that empties the array in one sweep.
      const Probe sel{random_word(), random_mask(), 0};
      ASSERT_EQ(dut.invalidate_matching(sel), spec.sweep(sel.bits, sel.mask));
    } else {
      dut.reset();
      spec.reset();
    }
    diff::expect_spec_state(dut, spec);
  }

  // Deterministic edge sweep: fill to capacity, then drain to empty.
  // Cells are inserted with a match-anything mask so the wildcard drain
  // probe hits under both flavours (posted matching consults the CELL's
  // stored mask, not the probe's).
  dut.reset();
  spec.reset();
  while (!dut.full()) {
    const MatchWord bits = random_word();
    const Cookie ck = next_cookie++;
    ASSERT_TRUE(dut.insert(bits, match::kFullMask, ck));
    ASSERT_TRUE(spec.insert(bits, match::kFullMask, ck));
  }
  ASSERT_FALSE(dut.insert(0, 0, next_cookie));
  ASSERT_FALSE(spec.insert(0, 0, next_cookie));
  diff::expect_spec_state(dut, spec);

  const Probe all{0, match::kFullMask, 0};
  for (std::size_t i = 0; i < cells; ++i) {
    diff::expect_spec_match(dut.match_and_delete(all),
                            spec.match_and_delete(all.bits, all.mask),
                            "drain");
    diff::expect_spec_state(dut, spec);
  }
  ASSERT_TRUE(dut.empty());
  ASSERT_FALSE(dut.match(all).hit);
  ASSERT_FALSE(dut.match_tree(all).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlpuDifferentialFuzz,
    ::testing::Values(
        std::make_tuple(AlpuFlavor::kPostedReceive, 16, 8, 11),
        std::make_tuple(AlpuFlavor::kPostedReceive, 64, 16, 12),
        std::make_tuple(AlpuFlavor::kPostedReceive, 128, 16, 13),
        std::make_tuple(AlpuFlavor::kPostedReceive, 256, 16, 14),
        std::make_tuple(AlpuFlavor::kUnexpected, 64, 16, 15),
        std::make_tuple(AlpuFlavor::kUnexpected, 128, 32, 16),
        std::make_tuple(AlpuFlavor::kUnexpected, 256, 16, 17)));

// ---------------------------------------------------------------------------
// SEU schedules: corrupt -> detect -> quarantine -> rebuild -> lockstep
// ---------------------------------------------------------------------------

class SeuDifferentialFuzz
    : public ::testing::TestWithParam<std::tuple<AlpuFlavor, std::uint64_t>> {
};

// The spec list plays the NIC's software shadow list: after each
// detected corruption the DUT is RESET and re-shadowed from its
// entries, exactly the firmware's scrub-and-rebuild recovery, and
// lockstep must resume as if the flip never happened.
TEST_P(SeuDifferentialFuzz, CorruptDetectRebuildStaysInLockstep) {
  const auto [flavor, seed] = GetParam();
  constexpr std::size_t kCells = 64;
  constexpr std::size_t kBlock = 16;
  common::Xoshiro256 rng(seed);

  AlpuArray dut(flavor, kCells, kBlock);
  check::ListSpec spec(flavor, kCells, match::kFullMask);
  SeuConfig seu;
  seu.force_parity = true;  // deterministic flips below, no injector
  dut.install_fault_model(seu, seed);
  ASSERT_TRUE(dut.fault_model_installed());

  const auto random_word = [&rng = rng] {
    return match::pack(match::Envelope{
        static_cast<std::uint32_t>(rng.below(2)),
        static_cast<std::uint32_t>(rng.below(4)),
        static_cast<std::uint32_t>(rng.below(4))});
  };
  const auto random_mask = [&rng = rng]() -> MatchWord {
    switch (rng.below(4)) {
      case 0: return 0;
      case 1: return match::kSourceMask;
      case 2: return match::kTagMask;
      default: return match::kFullMask;
    }
  };

  Cookie next_cookie = 1;
  std::uint64_t episodes = 0;
  for (int step = 0; step < 3'000; ++step) {
    if (rng.chance(0.01)) {
      // One upset: any plane, any cell (padded tail included — the
      // verify covers the whole SRAM, not just live entries), any bit.
      const auto plane = static_cast<unsigned>(rng.below(4));
      const std::size_t cell = rng.below(kCells);
      const auto bit = static_cast<unsigned>(
          plane == 2 ? rng.below(32) : plane == 3 ? 0 : rng.below(64));
      dut.corrupt_for_test(plane, cell, bit);

      // Detected at the next verify; the latch is sticky and every
      // match path answers miss instead of trusting corrupt planes.
      EXPECT_FALSE(dut.parity_ok());
      ASSERT_TRUE(dut.quarantined());
      const Probe p{random_word(), random_mask(), 0};
      EXPECT_FALSE(dut.match(p).hit);
      EXPECT_FALSE(dut.match_tree(p).hit);
      EXPECT_FALSE(dut.match_and_delete(p).hit);
      EXPECT_EQ(dut.invalidate_matching(p), 0u);

      // Firmware recovery: RESET (reheals parity, lifts quarantine),
      // then re-shadow from the software list.
      dut.reset();
      ASSERT_FALSE(dut.quarantined());
      EXPECT_TRUE(dut.parity_ok());
      for (const check::SpecEntry& e : spec.entries()) {
        ASSERT_TRUE(dut.insert(e.bits, e.mask, e.cookie));
      }
      diff::expect_spec_state(dut, spec);
      ++episodes;
      continue;
    }
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      const MatchWord bits = random_word();
      const MatchWord mask = random_mask();
      const Cookie ck = next_cookie++;
      ASSERT_EQ(dut.insert(bits, mask, ck), spec.insert(bits, mask, ck));
    } else if (roll < 0.60) {
      const Probe p{random_word(), random_mask(), 0};
      const ArrayMatch d = dut.match(p);
      diff::expect_spec_match(d, spec.match(p.bits, p.mask), "match vs spec");
      diff::expect_same_match(d, dut.match_tree(p), "match vs match_tree");
    } else if (roll < 0.90) {
      const Probe p{random_word(), random_mask(), 0};
      diff::expect_spec_match(dut.match_and_delete(p),
                              spec.match_and_delete(p.bits, p.mask),
                              "match_and_delete");
    } else {
      const Probe sel{random_word(), random_mask(), 0};
      ASSERT_EQ(dut.invalidate_matching(sel), spec.sweep(sel.bits, sel.mask));
    }
    diff::expect_spec_state(dut, spec);
  }

  EXPECT_GT(episodes, 5u);  // the schedule actually exercised recovery
  const SeuStats s = dut.seu_stats();
  EXPECT_EQ(s.parity_faults, episodes);  // one detection per flip
  EXPECT_EQ(s.seu_injected, 0u);         // flips came from the test hook
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, SeuDifferentialFuzz,
    ::testing::Values(std::make_tuple(AlpuFlavor::kPostedReceive, 21),
                      std::make_tuple(AlpuFlavor::kPostedReceive, 22),
                      std::make_tuple(AlpuFlavor::kUnexpected, 23),
                      std::make_tuple(AlpuFlavor::kUnexpected, 24)));

TEST(SeuInjector, FixedDrawScheduleIsSeedDeterministic) {
  const auto run = [](std::uint64_t stream) {
    AlpuArray a(AlpuFlavor::kPostedReceive, 64, 16);
    SeuConfig cfg;
    cfg.rate = 0.5;
    a.install_fault_model(cfg, stream);
    a.seu_advance(200 * cfg.tick_ps);
    return a.seu_stats().seu_injected;
  };
  const std::uint64_t first = run(7);
  EXPECT_EQ(first, run(7));  // same stream, same flips
  // rate 0.5 over 200 ticks: statistically certain to fire many times.
  EXPECT_GT(first, 50u);
  EXPECT_LT(first, 150u);
}

TEST(SeuInjector, AdvanceIsIncrementallyConsistent) {
  // Catching up in many small steps or one big one must consume the
  // same draw schedule — that is what makes injection independent of
  // how often the unit happens to be poked (and of the shard count).
  AlpuArray big(AlpuFlavor::kPostedReceive, 64, 16);
  AlpuArray small(AlpuFlavor::kPostedReceive, 64, 16);
  SeuConfig cfg;
  cfg.rate = 0.25;
  big.install_fault_model(cfg, 99);
  small.install_fault_model(cfg, 99);
  big.seu_advance(400 * cfg.tick_ps);
  for (common::TimePs t = 1; t <= 400; ++t) {
    small.seu_advance(t * cfg.tick_ps);
  }
  EXPECT_EQ(big.seu_stats().seu_injected, small.seu_stats().seu_injected);
}

TEST(SeuScrub, DormantCorruptionIsDetectedWithoutAnyProbe) {
  // An entry corrupted and then never probed must still be found: the
  // background scrub bounds detection latency for dormant state.
  sim::Engine engine;
  AlpuConfig cfg;
  cfg.total_cells = 16;
  cfg.block_size = 8;
  cfg.clock = common::ClockPeriod{kCycle};
  cfg.seu.scrub_interval_ps = 50'000'000;  // 50 us, no injector
  Alpu unit(engine, "scrub", cfg);

  ASSERT_TRUE(unit.push_command({CommandKind::kStartInsert, 0, 0, 0}));
  const auto pat = match::make_recv_pattern(0, 3, 1);
  ASSERT_TRUE(
      unit.push_command({CommandKind::kInsert, pat.bits, pat.mask, 7}));
  ASSERT_TRUE(unit.push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 64 * kCycle);
  while (unit.pop_result().has_value()) {
  }
  ASSERT_EQ(unit.occupancy(), 1u);

  unit.corrupt_for_test(/*plane=*/0, /*cell=*/0, /*bit=*/14);
  ASSERT_FALSE(unit.fault_pending());  // not yet seen by anything
  engine.run();                        // scrub sweeps, then parks: drains
  EXPECT_TRUE(unit.fault_pending());
  const SeuStats s = unit.seu_stats();
  EXPECT_GE(s.scrub_sweeps, 1u);
  EXPECT_EQ(s.parity_faults, 1u);
}

}  // namespace
}  // namespace alpu::hw
