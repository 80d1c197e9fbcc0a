// Property tests for the cache model against an executable reference:
// a straightforward list-based true-LRU implementation.  The Cache class
// is the hot path of every experiment (one access per walked queue
// entry), so its replacement and writeback behaviour is cross-checked
// exhaustively across geometries, including shapes whose set count or
// line size is not a power of two.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "mem/memory_system.hpp"

namespace alpu::mem {
namespace {

/// Reference: per-set LRU lists of (tag, dirty), textbook formulation.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : config_(config), sets_(config.num_sets()) {}

  CacheAccess access(Addr addr, bool is_write) {
    auto& lru = sets_[set_of(addr)];
    const Addr tag = tag_of(addr);
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->tag == tag) {
        const Line line{.tag = tag, .dirty = it->dirty || is_write};
        lru.erase(it);
        lru.push_front(line);  // most recently used
        return CacheAccess{.hit = true, .evicted_dirty = false};
      }
    }
    lru.push_front(Line{.tag = tag, .dirty = is_write});
    CacheAccess out{.hit = false, .evicted_dirty = false};
    if (lru.size() > config_.ways) {  // evict LRU
      ++evictions_;
      out.evicted_dirty = lru.back().dirty;
      if (out.evicted_dirty) ++writebacks_;
      lru.pop_back();
    }
    return out;
  }

  bool contains(Addr addr) const {
    const auto& lru = sets_[set_of(addr)];
    const Addr tag = tag_of(addr);
    return std::any_of(lru.begin(), lru.end(),
                       [tag](const Line& l) { return l.tag == tag; });
  }

  void flush() {
    for (auto& lru : sets_) lru.clear();
  }

  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t writebacks() const { return writebacks_; }

 private:
  struct Line {
    Addr tag;
    bool dirty;
  };

  std::size_t set_of(Addr addr) const {
    return (addr / config_.line_bytes) % config_.num_sets();
  }
  Addr tag_of(Addr addr) const {
    return addr / config_.line_bytes / config_.num_sets();
  }

  CacheConfig config_;
  std::vector<std::list<Line>> sets_;
  std::uint64_t evictions_ = 0;
  std::uint64_t writebacks_ = 0;
};

class CacheGeometry
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::uint64_t>> {
};

TEST_P(CacheGeometry, HitMissStreamMatchesReferenceLru) {
  const auto [size_kb, ways, line, seed] = GetParam();
  const CacheConfig config{.size_bytes = size_kb * 1024,
                           .line_bytes = line,
                           .ways = ways};
  Cache cache(config);
  ReferenceCache reference(config);
  common::Xoshiro256 rng(seed);

  // Mixed access pattern: streaming runs (queue walks, read through
  // read_run in runs of 1-64 lines), hot-set reuse (firmware structures),
  // and random scatter.
  Addr stream = 0;
  const auto next_stream = [&] {
    const Addr addr = stream;
    stream += line;
    if (stream > 4 * config.size_bytes) stream = 0;
    return addr;
  };
  const auto pick = [&](double roll) {
    if (roll < 0.4) return next_stream();
    if (roll < 0.7) return rng.below(16) * line;  // hot lines
    return rng.below(1 << 22);
  };
  std::vector<Addr> run;
  for (int i = 0; i < 20'000; ++i) {
    if (i == 10'000) {  // mid-stream flush: both sides start cold again
      cache.flush();
      reference.flush();
    }
    const double roll = rng.uniform01();
    if (roll < 0.4) {
      run.resize(1 + rng.below(64));
      for (Addr& addr : run) addr = next_stream();
      std::uint64_t want = 0;
      for (const Addr addr : run) {
        if (!reference.access(addr, false).hit) ++want;
      }
      ASSERT_EQ(cache.read_run(run.data(), run.size()), want)
          << "run of " << run.size() << " at access " << i << " addr "
          << run.front();
    } else {
      const Addr addr = pick(roll);
      const bool is_write = rng.chance(0.3);
      const CacheAccess got = cache.access(addr, is_write);
      const CacheAccess want = reference.access(addr, is_write);
      ASSERT_EQ(got.hit, want.hit) << "access " << i << " addr " << addr;
      ASSERT_EQ(got.evicted_dirty, want.evicted_dirty)
          << "access " << i << " addr " << addr;
    }
    if (i % 64 == 0) {
      const Addr probe = pick(rng.uniform01());
      ASSERT_EQ(cache.contains(probe), reference.contains(probe))
          << "probe after access " << i << " addr " << probe;
      ASSERT_TRUE(cache.check_invariants()) << "after access " << i;
    }
  }
  EXPECT_EQ(cache.stats().hits + cache.stats().misses,
            cache.stats().accesses);
  EXPECT_EQ(cache.stats().evictions, reference.evictions());
  EXPECT_EQ(cache.stats().writebacks, reference.writebacks());
  EXPECT_TRUE(cache.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(
        std::make_tuple(1, 1, 64, 11),    // direct-mapped
        std::make_tuple(1, 4, 64, 22),
        std::make_tuple(4, 8, 64, 33),
        std::make_tuple(32, 64, 64, 44),  // the NIC L1 shape
        std::make_tuple(64, 2, 64, 55),   // the host L1 shape
        std::make_tuple(8, 128, 64, 66),  // fully associative
        std::make_tuple(2, 2, 128, 77),   // wide lines
        std::make_tuple(3, 4, 64, 88),    // 12 sets
        std::make_tuple(3, 2, 96, 99),    // 96 B lines
        std::make_tuple(6, 3, 64, 111)));  // 3 ways

TEST(CacheProperties, DirtyBitSurvivesLruReordering) {
  // Write a line, keep it warm with reads while filling the set, then
  // force its eviction and expect exactly one writeback.
  const CacheConfig config{.size_bytes = 1024, .line_bytes = 64, .ways = 4};
  Cache cache(config);
  const std::size_t stride = 64 * config.num_sets();
  cache.access(0, true);  // dirty
  for (Addr w = 1; w < 4; ++w) {
    cache.access(w * stride, false);
    cache.access(0, false);  // keep it MRU (reads must not clean it)
  }
  for (Addr w = 4; w < 8; ++w) cache.access(w * stride, false);
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheProperties, StatsConservation) {
  const CacheConfig config{.size_bytes = 2048, .line_bytes = 64, .ways = 2};
  Cache cache(config);
  common::Xoshiro256 rng(3);
  std::size_t resident = 0;
  for (int i = 0; i < 5'000; ++i) {
    const CacheAccess a = cache.access(rng.below(1 << 16), false);
    if (!a.hit) ++resident;
  }
  // fills == misses; evictions == fills - lines still resident.
  EXPECT_EQ(cache.stats().misses, resident);
  EXPECT_LE(cache.stats().evictions, cache.stats().misses);
  EXPECT_GE(cache.stats().evictions,
            cache.stats().misses - cache.config().num_lines());
}

// ---- memory-system composition properties -----------------------------------

TEST(MemorySystemProperties, CostsAreMonotoneInHierarchyDepth) {
  // For any address stream, L1-hit cost <= L1+L2 cost <= full-miss cost.
  MemorySystemConfig cfg;
  cfg.l1 = {.size_bytes = 1024, .line_bytes = 64, .ways = 4};
  cfg.l1_hit_ps = 4'000;
  cfg.l2 = CacheConfig{.size_bytes = 8192, .line_bytes = 64, .ways = 8};
  cfg.l2_hit_ps = 10'000;
  cfg.backend_ps = 50'000;
  MemorySystem m(cfg);
  common::Xoshiro256 rng(9);
  for (int i = 0; i < 2'000; ++i) {
    const common::TimePs t = m.load(rng.below(1 << 18), 0);
    EXPECT_GE(t, cfg.l1_hit_ps);
    EXPECT_LE(t, cfg.l1_hit_ps + cfg.l2_hit_ps + cfg.backend_ps);
  }
}

TEST(MemorySystemProperties, LoadRunEqualsPerLoadLoop) {
  // A walk through load_run costs and counts exactly what the loop it
  // replaces does, on the NIC shape (L1 only: one read_run) and on the
  // host shape (L2 and DRAM: load by load), with stores mixed in so that
  // walks evict dirty lines.
  MemorySystemConfig host;
  host.l1 = {.size_bytes = 4096, .line_bytes = 64, .ways = 2};
  host.l1_hit_ps = 1'000;
  host.l2 = CacheConfig{.size_bytes = 16384, .line_bytes = 64, .ways = 4};
  host.l2_hit_ps = 6'000;
  host.backend_ps = 12'000;
  host.use_dram = true;
  for (const MemorySystemConfig& cfg : {MemorySystemConfig{}, host}) {
    SCOPED_TRACE(cfg.l2 ? "host shape" : "NIC shape");
    MemorySystem batched(cfg);
    MemorySystem looped(cfg);
    common::Xoshiro256 rng(17);
    // Lines around the L1's capacity, so walks both hit and evict.
    const Addr span = 3 * cfg.l1.num_lines() / 2;
    std::vector<Addr> run;
    common::TimePs now = 1'000'000;
    for (int i = 0; i < 2'000; ++i) {
      const Addr store = rng.below(span) * 64;
      ASSERT_EQ(batched.store(store, now), looped.store(store, now));
      const Addr first = rng.below(span);
      run.resize(rng.below(2 * cfg.l1.num_lines()));
      for (std::size_t k = 0; k < run.size(); ++k) {
        run[k] = ((first + k) % span) * 64 + rng.below(64);
      }
      const common::TimePs gap = rng.below(4) * 2'000;
      common::TimePs want = 0;
      for (const Addr addr : run) {
        want += gap;
        want += looped.load(addr, now + want);
      }
      ASSERT_EQ(batched.load_run(run.data(), run.size(), now, gap), want)
          << "walk " << i;
      now += want + rng.below(100'000);
    }
    EXPECT_EQ(batched.stats().loads, looped.stats().loads);
    EXPECT_EQ(batched.stats().stores, looped.stats().stores);
    EXPECT_EQ(batched.stats().total_time, looped.stats().total_time);
    const auto same_stats = [](const CacheStats& a, const CacheStats& b) {
      EXPECT_EQ(a.accesses, b.accesses);
      EXPECT_EQ(a.hits, b.hits);
      EXPECT_EQ(a.misses, b.misses);
      EXPECT_EQ(a.evictions, b.evictions);
      EXPECT_EQ(a.writebacks, b.writebacks);
    };
    same_stats(batched.l1_stats(), looped.l1_stats());
    EXPECT_GT(looped.l1_stats().writebacks, 0u);
    ASSERT_EQ(batched.l2() != nullptr, looped.l2() != nullptr);
    if (looped.l2() != nullptr) {
      same_stats(batched.l2()->stats(), looped.l2()->stats());
    }
    for (Addr line = 0; line < 2 * span; ++line) {
      ASSERT_EQ(batched.l1().contains(line * 64),
                looped.l1().contains(line * 64))
          << "line " << line;
      if (looped.l2() != nullptr) {
        ASSERT_EQ(batched.l2()->contains(line * 64),
                  looped.l2()->contains(line * 64))
            << "line " << line;
      }
    }
  }
}

TEST(MemorySystemProperties, RepeatedTouchRangeBecomesAllHits) {
  MemorySystemConfig cfg;
  cfg.l1 = {.size_bytes = 32 * 1024, .line_bytes = 64, .ways = 64};
  cfg.l1_hit_ps = 4'000;
  cfg.backend_ps = 50'000;
  MemorySystem m(cfg);
  (void)m.touch_range(0, 8 * 1024, 0, false);
  // The 8 KB region fits: a second pass costs exactly hits.
  EXPECT_EQ(m.touch_range(0, 8 * 1024, 0, false),
            (8u * 1024u / 64u) * 4'000u);
}

TEST(DramProperties, SequentialBeatsRandom) {
  // Open-row locality: sweeping a row costs less than hopping rows on
  // one bank.
  DramConfig cfg;
  cfg.banks = 1;  // force every access onto one bank
  Dram seq(cfg), rnd(cfg);
  common::TimePs t_seq = 0, t_rnd = 0;
  common::TimePs now = 0;
  for (int i = 0; i < 64; ++i) {
    t_seq += seq.access(static_cast<std::uint64_t>(i) * 64, now);
    t_rnd += rnd.access(static_cast<std::uint64_t>(i) * cfg.row_bytes * 2,
                        now);
    now += 1'000'000;  // spaced: no bank-busy stalls, pure row effects
  }
  EXPECT_LT(t_seq, t_rnd);
  EXPECT_EQ(seq.stats().row_hits, 63u);
  EXPECT_EQ(rnd.stats().row_hits, 0u);
}

}  // namespace
}  // namespace alpu::mem
