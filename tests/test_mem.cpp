// Unit tests for the memory models: cache, DRAM, memory system, heap.
#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/memory_system.hpp"

namespace alpu::mem {
namespace {

// ---- Cache -----------------------------------------------------------------

CacheConfig small_cache() {
  // 1 KB, 64 B lines, 4-way => 16 lines, 4 sets.
  return CacheConfig{.size_bytes = 1024, .line_bytes = 64, .ways = 4};
}

TEST(Cache, ConfigDerivedQuantities) {
  const CacheConfig c = small_cache();
  EXPECT_EQ(c.num_lines(), 16u);
  EXPECT_EQ(c.num_sets(), 4u);
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000 + 63, false).hit);  // same line
  EXPECT_FALSE(c.access(0x1000 + 64, false).hit);  // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldestWithinSet) {
  Cache c(small_cache());
  // 4 ways in set 0: lines with addresses stride num_sets*line = 256.
  for (Addr i = 0; i < 4; ++i) c.access(i * 256, false);
  // Touch line 0 again so line 1 becomes LRU.
  EXPECT_TRUE(c.access(0, false).hit);
  // A fifth line in the same set evicts line 1 (the true LRU).
  EXPECT_FALSE(c.access(4 * 256, false).hit);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1 * 256));
  EXPECT_TRUE(c.contains(2 * 256));
  EXPECT_TRUE(c.contains(3 * 256));
  EXPECT_TRUE(c.contains(4 * 256));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(small_cache());
  c.access(0, true);  // dirty line in set 0
  for (Addr i = 1; i <= 3; ++i) c.access(i * 256, false);
  const CacheAccess a = c.access(4 * 256, false);  // evicts addr 0
  EXPECT_FALSE(a.hit);
  EXPECT_TRUE(a.evicted_dirty);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache c(small_cache());
  for (Addr i = 0; i <= 4; ++i) c.access(i * 256, false);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(small_cache());
  c.access(0, false);
  c.access(0, true);  // hit, now dirty
  for (Addr i = 1; i <= 4; ++i) c.access(i * 256, false);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(small_cache());
  c.access(0, false);
  c.flush();
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.access(0, false).hit);
}

TEST(Cache, DistinctSetsDoNotConflict) {
  Cache c(small_cache());
  // 8 lines across 4 sets: 2 per set, well under 4 ways.
  for (Addr i = 0; i < 8; ++i) c.access(i * 64, false);
  for (Addr i = 0; i < 8; ++i) EXPECT_TRUE(c.contains(i * 64));
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(Cache, HighAssociativityBehavesFullyAssociative) {
  // The NIC L1 shape from Table III: 32 KB, 64-way.
  Cache c(CacheConfig{.size_bytes = 32 * 1024, .line_bytes = 64, .ways = 64});
  EXPECT_EQ(c.config().num_sets(), 8u);
  // Fill exactly to capacity; nothing evicts.
  for (Addr i = 0; i < 512; ++i) c.access(i * 64, false);
  EXPECT_EQ(c.stats().evictions, 0u);
  // One more line evicts exactly one.
  c.access(512 * 64, false);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, FreshSetsHoldNothing) {
  // The host L2 shape: 1024 sets, each set up at its first access.
  Cache c(CacheConfig{.size_bytes = 512 * 1024, .line_bytes = 64, .ways = 8});
  ASSERT_EQ(c.config().num_sets(), 1024u);
  EXPECT_TRUE(c.check_invariants());
  for (Addr line = 0; line < 4096; line += 7) {
    EXPECT_FALSE(c.contains(line * 64));
  }
  EXPECT_FALSE(c.access(0, true).hit);  // sets up set 0 only
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1024 * 64));  // set 0, another line
  EXPECT_FALSE(c.contains(64));         // set 1, untouched
  EXPECT_TRUE(c.check_invariants());
}

TEST(Cache, FlushedCacheReplaysAFreshOne) {
  // After a flush, every set is set up again at its next access: a
  // stream sees exactly what it sees on a fresh cache.
  const auto stream = [](Cache& c) {
    std::vector<CacheAccess> out;
    for (Addr i = 0; i < 200; ++i) {
      out.push_back(c.access((i * 5 % 48) * 64, i % 3 == 0));
    }
    return out;
  };
  Cache used(small_cache());
  (void)stream(used);
  const CacheStats before = used.stats();
  used.flush();
  EXPECT_TRUE(used.check_invariants());
  EXPECT_FALSE(used.contains(0));
  Cache fresh(small_cache());
  const std::vector<CacheAccess> got = stream(used);
  const std::vector<CacheAccess> want = stream(fresh);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].hit, want[i].hit) << "access " << i;
    EXPECT_EQ(got[i].evicted_dirty, want[i].evicted_dirty) << "access " << i;
  }
  EXPECT_EQ(used.stats().hits - before.hits, fresh.stats().hits);
  EXPECT_EQ(used.stats().misses - before.misses, fresh.stats().misses);
  EXPECT_EQ(used.stats().evictions - before.evictions,
            fresh.stats().evictions);
  EXPECT_EQ(used.stats().writebacks - before.writebacks,
            fresh.stats().writebacks);
  EXPECT_GT(fresh.stats().writebacks, 0u);
}

// ---- DRAM ------------------------------------------------------------------

DramConfig dram_cfg() {
  return DramConfig{.banks = 2,
                    .row_bytes = 1024,
                    .column_ps = 20'000,
                    .activate_ps = 25'000,
                    .precharge_ps = 20'000,
                    .data_beat_ps = 5'000};
}

TEST(Dram, FirstAccessActivatesRow) {
  Dram d(dram_cfg());
  // No row open: activate + column + beat (no precharge needed).
  EXPECT_EQ(d.access(0, 0), 25'000u + 20'000u + 5'000u);
  EXPECT_EQ(d.stats().row_misses, 1u);
}

TEST(Dram, RowHitIsCheap) {
  Dram d(dram_cfg());
  (void)d.access(0, 0);
  const common::TimePs t = d.access(64, 1'000'000);
  EXPECT_EQ(t, 20'000u + 5'000u);  // column + beat
  EXPECT_EQ(d.stats().row_hits, 1u);
}

TEST(Dram, RowConflictPaysPrecharge) {
  Dram d(dram_cfg());
  (void)d.access(0, 0);
  // Same bank, different row: rows interleave across banks, so row 0 and
  // row 2 of the address space share bank 0.
  const common::TimePs t = d.access(2 * 1024, 1'000'000);
  EXPECT_EQ(t, 20'000u + 25'000u + 20'000u + 5'000u);
  EXPECT_EQ(d.stats().row_misses, 2u);
}

TEST(Dram, BusyBankQueuesAccess) {
  Dram d(dram_cfg());
  const common::TimePs t1 = d.access(0, 0);
  // Immediately access the same bank again: must wait for the first.
  const common::TimePs t2 = d.access(64, 0);
  EXPECT_EQ(t2, t1 + 20'000u + 5'000u);  // wait + row hit
  EXPECT_EQ(d.stats().stalled_accesses, 1u);
}

TEST(Dram, DifferentBanksProceedInParallel) {
  Dram d(dram_cfg());
  (void)d.access(0, 0);          // bank 0
  const common::TimePs t = d.access(1024, 0);  // row 1 -> bank 1
  EXPECT_EQ(t, 25'000u + 20'000u + 5'000u);    // no stall
  EXPECT_EQ(d.stats().stalled_accesses, 0u);
}

// ---- MemorySystem ----------------------------------------------------------

MemorySystemConfig nic_mem() {
  return MemorySystemConfig{
      .l1 = {.size_bytes = 1024, .line_bytes = 64, .ways = 4},
      .l1_hit_ps = 4'000,
      .l2 = std::nullopt,
      .l2_hit_ps = 0,
      .backend_ps = 50'000,
      .use_dram = false,
      .dram = {},
  };
}

TEST(MemorySystem, HitAndMissCosts) {
  MemorySystem m(nic_mem());
  EXPECT_EQ(m.load(0, 0), 4'000u + 50'000u);  // cold miss
  EXPECT_EQ(m.load(0, 0), 4'000u);            // hit
  EXPECT_EQ(m.stats().loads, 2u);
}

TEST(MemorySystem, TouchRangeCountsLines) {
  MemorySystem m(nic_mem());
  // 128 bytes spanning exactly 2 lines: two cold misses.
  EXPECT_EQ(m.touch_range(0, 128, 0, false), 2 * (4'000u + 50'000u));
  // Again: two hits.
  EXPECT_EQ(m.touch_range(0, 128, 0, false), 2 * 4'000u);
  // Unaligned 4-byte touch crossing a line boundary: 2 lines.
  EXPECT_EQ(m.touch_range(62, 4, 0, false), 2 * 4'000u);
}

TEST(MemorySystem, TouchRangeZeroBytesTouchesOneLine) {
  MemorySystem m(nic_mem());
  EXPECT_EQ(m.touch_range(0, 0, 0, false), 4'000u + 50'000u);
}

TEST(MemorySystem, L2AbsorbsL1Misses) {
  MemorySystemConfig cfg = nic_mem();
  cfg.l2 = CacheConfig{.size_bytes = 4096, .line_bytes = 64, .ways = 8};
  cfg.l2_hit_ps = 10'000;
  MemorySystem m(cfg);
  (void)m.load(0, 0);  // cold: L1 miss, L2 miss, backend
  m.l1_mutable().flush();
  // L1 miss but L2 hit: no backend charge.
  EXPECT_EQ(m.load(0, 0), 4'000u + 10'000u);
}

TEST(MemorySystem, DramBackendAddsRowTiming) {
  MemorySystemConfig cfg = nic_mem();
  cfg.use_dram = true;
  cfg.dram = dram_cfg();
  cfg.backend_ps = 10'000;
  MemorySystem m(cfg);
  const auto t = m.load(0, 0);
  EXPECT_EQ(t, 4'000u + 10'000u + (25'000u + 20'000u + 5'000u));
}

TEST(MemorySystem, FlushRestoresColdBehaviour) {
  MemorySystem m(nic_mem());
  (void)m.load(0, 0);
  m.flush();
  EXPECT_EQ(m.load(0, 0), 4'000u + 50'000u);
}

// The default configuration is the NIC's Table III shape: a 32 KB 64-way
// L1 (8 sets), 4 ns hits and 62 ns to local memory.

std::vector<Addr> lines(std::size_t n) {
  std::vector<Addr> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i * 64;
  return out;
}

TEST(MemorySystem, LoadRunOfResidentLinesChargesHits) {
  MemorySystem m(MemorySystemConfig{});
  const std::vector<Addr> walk = lines(200);
  (void)m.load_run(walk.data(), walk.size(), 0, 0);  // cold: fills
  const MemorySystemStats before = m.stats();
  const common::TimePs gap = 6'000;
  EXPECT_EQ(m.load_run(walk.data(), walk.size(), 1'000'000, gap),
            200 * (gap + 4'000));
  EXPECT_EQ(m.stats().loads, before.loads + 200);
  EXPECT_EQ(m.stats().total_time, before.total_time + 200 * 4'000);
}

TEST(MemorySystem, LoadRunPastTheKneeMissesEveryEntry) {
  // 600 lines put 75 in each 64-way set, so a cyclic walk evicts every
  // line before it comes round again: every entry pays the 62 ns fill.
  // This is the Section VI-B knee at the memory layer.
  MemorySystem m(MemorySystemConfig{});
  const std::vector<Addr> walk = lines(600);
  const common::TimePs gap = 6'000;
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(m.load_run(walk.data(), walk.size(), 0, gap),
              600 * (gap + 4'000 + 62'000))
        << "pass " << pass;
  }
  EXPECT_EQ(m.l1_stats().hits, 0u);
  EXPECT_EQ(m.l1_stats().evictions, 3 * 600 - 512u);
}

// ---- SimHeap ---------------------------------------------------------------

TEST(SimHeap, AllocatesAlignedNonOverlapping) {
  SimHeap heap(0x1000);
  const Addr a = heap.alloc(100, 64);
  const Addr b = heap.alloc(10, 64);
  const Addr c = heap.alloc(1, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_GE(c, b + 10);
  EXPECT_GE(heap.bytes_used(), 100u + 10u + 1u);
}

TEST(SimHeap, RespectsBase) {
  SimHeap heap(0x8000'0000);
  EXPECT_GE(heap.alloc(8), 0x8000'0000u);
}

}  // namespace
}  // namespace alpu::mem
