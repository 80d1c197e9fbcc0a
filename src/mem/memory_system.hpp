// Memory-system front end: an L1 plus a fixed-latency backing store.
//
// A MemorySystem answers the only question a CPU cost model asks:
// "what does this load/store cost, in time?"  It threads an access
// through the L1 tag model and, on a miss, charges the backing store: the
// NIC's local memory, 30–32 cycles away (Table III).  No cost depends on
// when the access happens, so no call takes a time.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.hpp"
#include "common/time.hpp"
#include "mem/cache.hpp"

namespace alpu::mem {

using common::TimePs;

struct MemorySystemConfig {
  CacheConfig l1;
  TimePs l1_hit_ps = 4'000;    ///< 2 cycles at 500 MHz
  /// Miss-to-backing latency, charged on top of the L1 hit.
  TimePs backend_ps = 62'000;  ///< 31 cycles at 500 MHz
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
  explicit MemorySystem(const MemorySystemConfig& config)
      : config_(config), l1_(config.l1) {}

  /// Cost of a load of one word within the line containing `addr`.  The
  /// second parameter is ignored: bench/e2e/layers.cpp still passes a
  /// time.
  TimePs load(Addr addr, TimePs = 0) { return access(addr, false); }

  /// Cost of a store (write-allocate, write-back).
  TimePs store(Addr addr) { return access(addr, true); }

  /// Cost of a walk that loads `addrs[0, n)` in order after `gap` of CPU
  /// work each: exactly the sum of gap + load(addrs[i]), in one
  /// Cache::read_run.
  TimePs load_run(const Addr* addrs, std::size_t n, TimePs gap) {
    const std::uint64_t misses = l1_.read_run(addrs, n);
    const TimePs cost = n * config_.l1_hit_ps + misses * config_.backend_ps;
    stats_.loads += n;
    stats_.total_time += cost;
    return n * gap + cost;
  }

  /// Touch every line of [addr, addr+bytes) and return the summed cost
  /// (models structure-sized reads like pulling a queue entry).
  TimePs touch_range(Addr addr, std::uint64_t bytes, bool is_write) {
    const std::uint64_t line = config_.l1.line_bytes;
    const Addr first = addr / line;
    const Addr last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
    TimePs total = 0;
    for (Addr l = first; l <= last; ++l) total += access(l * line, is_write);
    return total;
  }

  const Cache& l1() const { return l1_; }
  const CacheStats& l1_stats() const { return l1_.stats(); }
  const MemorySystemStats& stats() const { return stats_; }

  /// Drop all cached state (power-on or firmware restart).
  void flush() { l1_.flush(); }

 private:
  /// Every modelled load and store funnels through here; it lives in the
  /// header so that callers inline the whole L1-hit fast path.
  TimePs access(Addr addr, bool is_write) {
    ++(is_write ? stats_.stores : stats_.loads);
    TimePs cost = config_.l1_hit_ps;
    // A dirty victim's writeback overlaps the fill (write buffers hide
    // it), so a miss costs one backend hop either way.
    if (!l1_.access(addr, is_write).hit) cost += config_.backend_ps;
    stats_.total_time += cost;
    return cost;
  }

  MemorySystemConfig config_;
  Cache l1_;
  MemorySystemStats stats_;
};

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
