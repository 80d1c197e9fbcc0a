// Memory-system front end: caches plus a backing store.
//
// A MemorySystem answers the only question a CPU cost model asks:
// "what does this load/store cost, in time, right now?"  It threads an
// access through an L1 (and optionally an L2) tag model and charges the
// backing store — either a fixed-latency local memory (the NIC's case:
// 30–32 cycles to local SRAM/DRAM, Table III) or the open-row DRAM model
// (the host's case: 85–90 cycles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/check.hpp"
#include "common/time.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"

namespace alpu::mem {

using common::TimePs;

struct MemorySystemConfig {
  CacheConfig l1;
  TimePs l1_hit_ps = 4'000;  ///< 2 cycles at 500 MHz

  std::optional<CacheConfig> l2;  ///< present on the host, absent on the NIC
  TimePs l2_hit_ps = 0;

  /// Fixed miss-to-backing latency (beyond the last cache level).  Used
  /// when `use_dram` is false; this is the NIC's 30–32-cycle local memory.
  TimePs backend_ps = 62'000;  ///< 31 cycles at 500 MHz

  /// When true, the backing store is the open-row DRAM model and
  /// `backend_ps` is added as the constant controller/bus overhead.
  bool use_dram = false;
  DramConfig dram;
};

struct MemorySystemStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  TimePs total_time = 0;
};

/// One clock domain's view of memory.  Not a component: callers charge
/// the returned latency into their own timelines.
class MemorySystem {
 public:
  explicit MemorySystem(const MemorySystemConfig& config);

  /// Cost of a load of one word within the line containing `addr`.
  TimePs load(Addr addr, TimePs now) { return access(addr, now, false); }

  /// Cost of a store (write-allocate, write-back).
  TimePs store(Addr addr, TimePs now) { return access(addr, now, true); }

  /// Cost of a walk that loads `addrs[0, n)` in order after `gap` of CPU
  /// work each: exactly the sum of gap + load(addrs[i], now + t), with t
  /// the walk's cost before load i.  Without an L2 or DRAM a miss always
  /// costs `backend_ps`, so the walk is one Cache::read_run.
  TimePs load_run(const Addr* addrs, std::size_t n, TimePs now, TimePs gap);

  /// Touch every line of [addr, addr+bytes) and return the summed cost
  /// (models structure-sized reads like pulling a queue entry).
  TimePs touch_range(Addr addr, std::uint64_t bytes, TimePs now,
                     bool is_write);

  const Cache& l1() const { return l1_; }
  const CacheStats& l1_stats() const { return l1_.stats(); }
  /// The L2, or null when the configuration has none.
  const Cache* l2() const { return l2_ ? &*l2_ : nullptr; }
  const MemorySystemStats& stats() const { return stats_; }
  Cache& l1_mutable() { return l1_; }

  /// Drop all cached state (power-on or firmware restart).
  void flush();

 private:
  TimePs access(Addr addr, TimePs now, bool is_write);

  MemorySystemConfig config_;
  Cache l1_;
  std::optional<Cache> l2_;
  std::optional<Dram> dram_;
  MemorySystemStats stats_;
};

// ---- inline implementations (hot path) --------------------------------
//
// Every modelled load and store funnels through access(); keeping it in
// the header lets callers inline the whole L1-hit fast path.

inline TimePs MemorySystem::access(Addr addr, TimePs now, bool is_write) {
  if (is_write) {
    ++stats_.stores;
  } else {
    ++stats_.loads;
  }

  TimePs cost = config_.l1_hit_ps;
  const CacheAccess a1 = l1_.access(addr, is_write);
  if (!a1.hit) {
    bool need_backend = true;
    if (l2_.has_value()) {
      cost += config_.l2_hit_ps;
      const CacheAccess a2 = l2_->access(addr, is_write);
      need_backend = !a2.hit;
    }
    if (need_backend) {
      cost += config_.backend_ps;
      if (dram_.has_value()) {
        cost += dram_->access(addr, now + cost);
      }
      // A dirty eviction also costs a writeback; model it as overlapped
      // with the fill except for one extra backend hop's occupancy, which
      // at this fidelity we fold into the fill (write buffers hide it).
    }
  }
  stats_.total_time += cost;
  return cost;
}

inline TimePs MemorySystem::load_run(const Addr* addrs, std::size_t n,
                                     TimePs now, TimePs gap) {
  if (l2_.has_value() || dram_.has_value()) {
    // DRAM timing depends on each load's start time: one load at a time.
    TimePs t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      t += gap;
      t += load(addrs[i], now + t);
    }
    return t;
  }
  const std::uint64_t misses = l1_.read_run(addrs, n);
  const TimePs cost = n * config_.l1_hit_ps + misses * config_.backend_ps;
  stats_.loads += n;
  stats_.total_time += cost;
  return n * gap + cost;
}

inline TimePs MemorySystem::touch_range(Addr addr, std::uint64_t bytes,
                                        TimePs now, bool is_write) {
  const std::uint64_t line = config_.l1.line_bytes;
  const Addr first = addr / line;
  const Addr last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
  TimePs total = 0;
  for (Addr l = first; l <= last; ++l) {
    total += access(l * line, now + total, is_write);
  }
  return total;
}

/// Bump allocator handing out simulated addresses for NIC/host data
/// structures, so queue entries occupy realistic, distinct cache lines.
class SimHeap {
 public:
  explicit SimHeap(Addr base = 0x1000'0000) : base_(base), next_(base) {}

  /// Allocate `bytes` aligned to `align` (power of two).
  Addr alloc(std::uint64_t bytes, std::uint64_t align = 64) {
    ALPU_ASSERT((align & (align - 1)) == 0, "alignment must be a power of two");
    next_ = (next_ + align - 1) & ~(align - 1);
    const Addr out = next_;
    next_ += bytes;
    return out;
  }

  Addr bytes_used() const { return next_ - base_; }

 private:
  Addr base_;
  Addr next_;
};

}  // namespace alpu::mem
