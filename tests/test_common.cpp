// Unit tests for alpu::common — FIFO, RNG, stats, time, tables, logging,
// and the cache-resident control-path containers (dense.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/dense.hpp"
#include "common/fifo.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace alpu::common {
namespace {

// ---- time ------------------------------------------------------------------

TEST(Time, LiteralsConvert) {
  EXPECT_EQ(1_ns, 1'000u);
  EXPECT_EQ(1_us, 1'000'000u);
  EXPECT_EQ(1_ms, 1'000'000'000u);
  EXPECT_DOUBLE_EQ(to_ns(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_us(2'500'000), 2.5);
}

TEST(Time, ClockPeriodFromFrequency) {
  EXPECT_EQ(ClockPeriod::from_mhz(500).period(), 2'000u);
  EXPECT_EQ(ClockPeriod::from_ghz(2).period(), 500u);
  EXPECT_EQ(ClockPeriod::from_mhz(100).period(), 10'000u);
}

TEST(Time, ClockCycles) {
  const ClockPeriod clk = ClockPeriod::from_mhz(500);
  EXPECT_EQ(clk.cycles(7), 14'000u);
  EXPECT_EQ(clk.cycles_in(14'000), 7u);
  EXPECT_EQ(clk.cycles_in(14'001), 7u);
  EXPECT_DOUBLE_EQ(clk.mhz(), 500.0);
}

TEST(Time, NextEdgeRoundsUp) {
  const ClockPeriod clk{2'000};
  EXPECT_EQ(clk.next_edge(0), 0u);        // already on an edge
  EXPECT_EQ(clk.next_edge(2'000), 2'000u);
  EXPECT_EQ(clk.next_edge(1), 2'000u);
  EXPECT_EQ(clk.next_edge(1'999), 2'000u);
  EXPECT_EQ(clk.next_edge(2'001), 4'000u);
}

// ---- BoundedFifo -----------------------------------------------------------

TEST(BoundedFifo, StartsEmpty) {
  BoundedFifo<int> f(4);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.full());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.capacity(), 4u);
  EXPECT_EQ(f.free_slots(), 4u);
}

TEST(BoundedFifo, PushPopFifoOrder) {
  BoundedFifo<int> f(3);
  ASSERT_TRUE(f.try_push(1));
  ASSERT_TRUE(f.try_push(2));
  ASSERT_TRUE(f.try_push(3));
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.pop(), 2);
  EXPECT_EQ(f.pop(), 3);
  EXPECT_TRUE(f.empty());
}

TEST(BoundedFifo, RejectsWhenFull) {
  BoundedFifo<int> f(2);
  ASSERT_TRUE(f.try_push(1));
  ASSERT_TRUE(f.try_push(2));
  EXPECT_TRUE(f.full());
  EXPECT_FALSE(f.try_push(3));
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.front(), 1);  // nothing was dropped or overwritten
}

TEST(BoundedFifo, WrapsAroundManyTimes) {
  BoundedFifo<int> f(3);
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(f.try_push(round));
    ASSERT_TRUE(f.try_push(round + 1000));
    EXPECT_EQ(f.pop(), round);
    EXPECT_EQ(f.pop(), round + 1000);
  }
  EXPECT_TRUE(f.empty());
}

TEST(BoundedFifo, TryPopEmptyReturnsNullopt) {
  BoundedFifo<int> f(1);
  EXPECT_EQ(f.try_pop(), std::nullopt);
  f.push(7);
  EXPECT_EQ(f.try_pop(), std::optional<int>(7));
}

TEST(BoundedFifo, ClearResets) {
  BoundedFifo<int> f(2);
  f.push(1);
  f.push(2);
  f.clear();
  EXPECT_TRUE(f.empty());
  ASSERT_TRUE(f.try_push(9));
  EXPECT_EQ(f.front(), 9);
}

TEST(BoundedFifo, MoveOnlyPayload) {
  BoundedFifo<std::unique_ptr<int>> f(2);
  ASSERT_TRUE(f.try_push(std::make_unique<int>(42)));
  auto p = f.pop();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 42);
}

TEST(BoundedFifo, FillsToItsDepthWhateverTheGrowthSteps) {
  // 5 is below the first 8-slot storage; 12 grows 8 -> 12, not 16.
  for (const std::size_t depth : {std::size_t{5}, std::size_t{12}}) {
    BoundedFifo<std::size_t> f(depth);
    for (std::size_t i = 0; i < depth; ++i) ASSERT_TRUE(f.try_push(i));
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.free_slots(), 0u);
    EXPECT_FALSE(f.try_push(depth));
    for (std::size_t i = 0; i < depth; ++i) EXPECT_EQ(f.pop(), i);
  }
}

TEST(BoundedFifo, AllocSinkCountsEachDoublingOnce) {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  BoundedFifo<std::uint64_t> f(100);
  f.set_alloc_sink(AllocSink{&allocs, &bytes});
  EXPECT_EQ(allocs, 0u);  // construction allocates nothing
  // Storage grows to 8, 16, 32, 64 and then stops at the depth, 100.
  const std::vector<std::uint64_t> growth_at = {0, 8, 16, 32, 64};
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (std::find(growth_at.begin(), growth_at.end(), i) != growth_at.end()) {
      ++expected;
    }
    f.push(i);
    EXPECT_EQ(allocs, expected) << "after push " << i;
  }
  EXPECT_EQ(bytes, (8 + 16 + 32 + 64 + 100) * sizeof(std::uint64_t));
  f.clear();
  for (std::uint64_t i = 0; i < 100; ++i) f.push(i);
  EXPECT_EQ(allocs, 5u);  // a refill after clear() reuses the storage
}

TEST(BoundedFifo, FifoOrderAcrossWraparoundAndGrowth) {
  std::uint64_t allocs = 0;
  BoundedFifo<std::uint64_t> f(std::numeric_limits<std::size_t>::max());
  f.set_alloc_sink(AllocSink{&allocs, nullptr});
  f.push(0);
  EXPECT_EQ(allocs, 1u);  // the first push allocates
  std::uint64_t next_in = 1;
  std::uint64_t next_out = 0;
  // Push/pop churn far past the 8-slot storage so the head wraps
  // repeatedly; 203 pops leave it mid-storage (203 % 8 == 3) when the
  // growths below come.  FIFO order must hold throughout.
  for (int round = 0; round < 203; ++round) {
    while (f.size() < 5) f.push(next_in++);
    EXPECT_EQ(f.front(), next_out);
    EXPECT_EQ(f.at(f.size() - 1), next_in - 1);
    EXPECT_EQ(f.pop(), next_out);
    ++next_out;
  }
  EXPECT_EQ(allocs, 1u);
  while (f.size() < 100) f.push(next_in++);
  EXPECT_GT(allocs, 1u);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f.at(i), next_out + i);
  }
  const std::uint64_t grown = allocs;
  f.clear();
  EXPECT_TRUE(f.empty());
  for (std::uint64_t i = 0; i < 100; ++i) f.push(i);
  EXPECT_EQ(allocs, grown);  // clear() keeps the storage
}

TEST(BoundedFifo, MoveOnlyPayloadSurvivesGrowth) {
  BoundedFifo<std::unique_ptr<int>> f(64);
  for (int i = 0; i < 6; ++i) f.push(std::make_unique<int>(i));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(*f.pop(), i);
  // Wrapped head, then two growths (8 -> 16 -> 32).
  for (int i = 6; i < 30; ++i) f.push(std::make_unique<int>(i));
  for (int i = 3; i < 30; ++i) {
    const std::unique_ptr<int> p = f.pop();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
}

// ---- RNG -------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1'000; ++i) {
    const auto v = rng.range(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Xoshiro256 rng(17);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

// ---- RunningStats ----------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsNan) {
  RunningStats s;
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

// ---- SampleSet -------------------------------------------------------------

TEST(SampleSet, ExactPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(25), 25.75, 1e-9);
}

TEST(SampleSet, AddAfterSortResorts) {
  SampleSet s;
  s.add(10);
  s.add(20);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
  s.add(5);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
}

// ---- Histogram -------------------------------------------------------------

TEST(Histogram, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // underflow
  h.add(0.0);    // bin 0
  h.add(1.9);    // bin 0
  h.add(2.0);    // bin 1
  h.add(9.99);   // bin 4
  h.add(10.0);   // overflow (half-open)
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_high(1), 4.0);
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(0.0, 4.0, 2);
  h.add(1.0);
  h.add(1.5);
  h.add(3.0);
  const std::string out = h.render(10);
  EXPECT_NE(out.find("2"), std::string::npos);
  EXPECT_NE(out.find("#"), std::string::npos);
}

// ---- TextTable -------------------------------------------------------------

TEST(TextTable, AlignsAndRenders) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.5"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, CsvOutput) {
  TextTable t;
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.render_csv(), "a,b\n1,2\n");
}

TEST(FmtDouble, TrailingDigits) {
  EXPECT_EQ(fmt_double(1.234, 2), "1.23");
  EXPECT_EQ(fmt_double(1.0, 1), "1.0");
  EXPECT_EQ(fmt_double(-2.5, 0), "-2");  // round-half-even via printf
}

// ---- logging ---------------------------------------------------------------

TEST(Log, FormatBracesSubstitutesInOrder) {
  EXPECT_EQ(format_braces("a={} b={}", 1, "x"), "a=1 b=x");
  EXPECT_EQ(format_braces("no placeholders"), "no placeholders");
  EXPECT_EQ(format_braces("extra {} {}", 1), "extra 1 {}");
  EXPECT_EQ(format_braces("{}{}{}", 1, 2, 3), "123");
}

TEST(Log, LevelGateDefaultsOff) {
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
}

// ---- DenseNodeTable --------------------------------------------------------

TEST(DenseNodeTable, IndexedAccessAndGrowth) {
  DenseNodeTable<int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(0), nullptr);
  t[3] = 42;
  EXPECT_EQ(t.size(), 4u);  // grows to cover the id
  EXPECT_EQ(t[3], 42);
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_EQ(*t.find(3), 42);
  ASSERT_NE(t.find(1), nullptr);  // covered, default-constructed
  EXPECT_EQ(*t.find(1), 0);
  EXPECT_EQ(t.find(4), nullptr);  // never covered
}

TEST(DenseNodeTable, IterationIsIndexOrder) {
  DenseNodeTable<int> t;
  t.reserve(5);
  // Write in scrambled order; iteration must still be index order.
  for (std::uint32_t id : {4u, 0u, 2u, 1u, 3u}) t[id] = static_cast<int>(id);
  std::vector<int> seen(t.begin(), t.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DenseNodeTable, ReserveMakesSteadyStateAllocationFree) {
  DenseNodeTable<std::uint64_t> t;
  std::uint64_t allocs = 0, bytes = 0;
  t.set_alloc_sink(AllocSink{&allocs, &bytes});
  t.reserve(64);
  EXPECT_GE(allocs, 1u);  // setup growth is counted...
  const std::uint64_t setup_allocs = allocs;
  for (std::uint32_t id = 0; id < 64; ++id) t[id] = id;  // ...but the
  EXPECT_EQ(allocs, setup_allocs);  // reserved range never grows again
  EXPECT_GT(bytes, 0u);
}

// ---- FlatMap ---------------------------------------------------------------

TEST(FlatMap, InsertFindEraseBasics) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(7));
  m[7] = 70;
  m[9] = 90;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(7));
  ASSERT_NE(m.find(9), nullptr);
  EXPECT_EQ(*m.find(9), 90);
  EXPECT_EQ(m.at(7), 70);
  EXPECT_EQ(m.find(8), nullptr);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));  // already gone
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.contains(7));
  EXPECT_TRUE(m.check_invariants());
}

TEST(FlatMap, IterationFollowsInsertionOrderAcrossEraseAndRehash) {
  FlatMap<std::uint64_t, int> m;
  std::vector<std::uint64_t> order;
  // Enough keys to force several rehashes from the 8-bucket floor.
  for (std::uint64_t k = 1000; k < 1100; ++k) {
    m[k] = static_cast<int>(k);
    order.push_back(k);
  }
  // Erase every third key; survivors keep their relative order.
  std::vector<std::uint64_t> survivors;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(m.erase(order[i]));
    } else {
      survivors.push_back(order[i]);
    }
  }
  // New insertions (recycling freed slots) append at the tail.
  for (std::uint64_t k = 5000; k < 5010; ++k) {
    m[k] = static_cast<int>(k);
    survivors.push_back(k);
  }
  std::vector<std::uint64_t> walked;
  for (const auto& [key, value] : m) {
    walked.push_back(key);
    EXPECT_EQ(value, static_cast<int>(key));
  }
  EXPECT_EQ(walked, survivors);
  EXPECT_TRUE(m.check_invariants());
}

TEST(FlatMap, RecycledSlotsStartClean) {
  FlatMap<std::uint64_t, std::vector<int>> m;
  m[1] = {1, 2, 3};
  EXPECT_TRUE(m.erase(1));
  // The next insertion reuses the freed slot; its value must be V{},
  // not the previous occupant's protocol state.
  std::vector<int>& fresh = m[2];
  EXPECT_TRUE(fresh.empty());
  EXPECT_TRUE(m.check_invariants());
}

TEST(FlatMap, SteadyStateChurnIsAllocationFree) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t allocs = 0, bytes = 0;
  m.set_alloc_sink(AllocSink{&allocs, &bytes});
  m.reserve(128);
  // Warm the free list to its high-water mark once.
  for (std::uint64_t k = 0; k < 128; ++k) m[k] = k;
  for (std::uint64_t k = 0; k < 128; ++k) m.erase(k);
  const std::uint64_t warm_allocs = allocs;
  // Steady state: insert/erase churn at the same population must never
  // touch the allocator again (slots recycle, index never rehashes).
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t k = 0; k < 100; ++k) m[0x1000u * round + k] = k;
    for (std::uint64_t k = 0; k < 100; ++k) m.erase(0x1000u * round + k);
  }
  EXPECT_EQ(allocs, warm_allocs);
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.check_invariants());
}

TEST(FlatMap, ClearKeepsCapacityAndResetsContents) {
  FlatMap<std::uint64_t, int> m;
  std::uint64_t allocs = 0;
  m.set_alloc_sink(AllocSink{&allocs, nullptr});
  m.reserve(32);
  for (std::uint64_t k = 0; k < 32; ++k) m[k] = 1;
  const std::uint64_t warm_allocs = allocs;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(3), nullptr);
  for (std::uint64_t k = 0; k < 32; ++k) m[k] = 2;  // refill: no growth
  EXPECT_EQ(allocs, warm_allocs);
  EXPECT_TRUE(m.check_invariants());
}

// Differential fuzz: FlatMap vs std::map contents and vs an explicit
// insertion-order list (std::unordered_map cross-checks find()).  Every
// operation the control path performs — find-or-insert, overwrite,
// erase, lookup — must agree with the reference on every step, and the
// structural invariants must hold throughout.
TEST(FlatMap, DifferentialFuzzAgainstStdMaps) {
  Xoshiro256 rng(0xF1A77EEDu);
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;
  std::vector<std::uint64_t> insertion_order;

  const auto reference_erase = [&](std::uint64_t key) {
    ordered.erase(key);
    hashed.erase(key);
    for (std::size_t i = 0; i < insertion_order.size(); ++i) {
      if (insertion_order[i] == key) {
        insertion_order.erase(insertion_order.begin() +
                              static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  };

  for (int step = 0; step < 20'000; ++step) {
    // Small key space keeps collision/recycle pressure high.
    const std::uint64_t key = rng.below(512);
    switch (rng.below(4)) {
      case 0:
      case 1: {  // find-or-insert + overwrite
        const bool existed = ordered.count(key) != 0;
        const std::uint64_t value = rng();
        flat[key] = value;
        ordered[key] = value;
        hashed[key] = value;
        if (!existed) insertion_order.push_back(key);
        break;
      }
      case 2: {  // erase
        const bool expect_hit = ordered.count(key) != 0;
        EXPECT_EQ(flat.erase(key), expect_hit);
        if (expect_hit) reference_erase(key);
        break;
      }
      default: {  // lookup
        const auto it = hashed.find(key);
        const std::uint64_t* got = flat.find(key);
        if (it == hashed.end()) {
          EXPECT_EQ(got, nullptr);
        } else {
          ASSERT_NE(got, nullptr);
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ordered.size());
    if (step % 1'000 == 999) {
      ASSERT_TRUE(flat.check_invariants()) << "at step " << step;
      // Full sweep: iteration order == insertion order, values match.
      std::size_t i = 0;
      for (const auto& [k, v] : flat) {
        ASSERT_LT(i, insertion_order.size());
        ASSERT_EQ(k, insertion_order[i]) << "at step " << step;
        ASSERT_EQ(v, ordered.at(k));
        ++i;
      }
      ASSERT_EQ(i, insertion_order.size());
    }
  }
  EXPECT_TRUE(flat.check_invariants());
}

// Two maps fed the same operation sequence must walk identically —
// the determinism contract the NIC control path relies on (CSV output
// iterates rendezvous/cookie tables).
TEST(FlatMap, IdenticalHistoriesIterateIdentically) {
  const auto drive = [](FlatMap<std::uint64_t, int>& m) {
    Xoshiro256 rng(42);
    for (int i = 0; i < 2'000; ++i) {
      const std::uint64_t key = rng.below(64);
      if (rng.below(3) == 0) {
        m.erase(key);
      } else {
        m[key] = static_cast<int>(i);
      }
    }
  };
  FlatMap<std::uint64_t, int> a, b;
  drive(a);
  drive(b);
  ASSERT_EQ(a.size(), b.size());
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    EXPECT_EQ((*ita).first, (*itb).first);
    EXPECT_EQ((*ita).second, (*itb).second);
  }
}

}  // namespace
}  // namespace alpu::common
