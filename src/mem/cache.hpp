// Set-associative cache model.
//
// The paper's central baseline effect is micro-architectural: queue
// traversal costs ~15 ns/entry while the queue fits in the NIC CPU's
// 32 KB L1 and ~64 ns/entry once it spills (Section VI-B).  This cache
// model — set-associative, LRU, allocate-on-miss — is what produces that
// knee in the reproduction.  It models tags only (no data payloads): the
// simulator needs timing, not contents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace alpu::mem {

using Addr = std::uint64_t;

struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;
  std::size_t line_bytes = 64;
  std::size_t ways = 64;  ///< Table III lists the NIC L1 as 32K 64-way

  std::size_t num_lines() const { return size_bytes / line_bytes; }
  std::size_t num_sets() const { return num_lines() / ways; }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  double hit_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }
};

/// Result of a single cache access.
struct CacheAccess {
  bool hit = false;
  bool evicted_dirty = false;  ///< a dirty victim was written back
};

/// Tag-only set-associative cache with true-LRU replacement, O(1) per
/// access at any associativity.  Slots 1..ways of a set hold its ways,
/// filled lowest-first after a flush and never invalidated one at a
/// time, so slots [1, fill] are the valid ones.  The set's index maps a
/// line to its slot (0: empty) in bit_ceil(2 * ways) buckets, with linear
/// probing and backward-shift deletion.  Its doubly linked list runs from
/// sentinel slot 0 through the filled slots, MRU to LRU, and back (zeroed
/// links: empty), so its tail is exactly the true-LRU victim.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Look up `addr`; on miss, allocate the line (evicting LRU).  Inline:
  /// this is the innermost call of every modelled load and store.
  CacheAccess access(Addr addr, bool is_write) {
    ++stats_.accesses;
    const Addr line = line_of(addr);
    const std::size_t set = set_of(line);
    const std::size_t base = set * (config_.ways + 1);
    std::uint16_t* prev = &prev_[base];
    std::uint16_t* next = &next_[base];
    std::size_t pos = find_bucket(line);
    std::uint16_t slot = index_[pos];
    CacheAccess out{.hit = slot != 0, .evicted_dirty = false};
    ++(out.hit ? stats_.hits : stats_.misses);
    if (!out.hit) {
      if (fill_[set] < config_.ways) {
        slot = ++fill_[set];  // self-linked, so unlinking it is a no-op
        prev[slot] = next[slot] = slot;
      } else {
        slot = prev[0];  // the LRU way
        ++stats_.evictions;
        out.evicted_dirty = dirty_[base + slot];
        if (out.evicted_dirty) ++stats_.writebacks;
        erase_bucket(set, find_bucket(lines_[set * config_.ways + slot - 1]));
        pos = find_bucket(line);  // the shift may have moved the chain end
      }
      lines_[set * config_.ways + slot - 1] = line;
      dirty_[base + slot] = false;
      index_[pos] = slot;
    }
    // Move the slot to the MRU end of the list.
    next[prev[slot]] = next[slot];
    prev[next[slot]] = prev[slot];
    prev[slot] = 0;
    next[slot] = next[0];
    prev[next[0]] = slot;
    next[0] = slot;
    if (is_write) dirty_[base + slot] = true;
    ALPU_INVARIANT(out.hit || set_consistent(set),
                   "cache set inconsistent after a fill or eviction");
    return out;
  }

  /// Probe without side effects (used by tests and warm-up accounting).
  bool contains(Addr addr) const {
    return index_[find_bucket(line_of(addr))] != 0;
  }

  /// Invalidate everything (e.g. context switch modelling).
  void flush();

  /// O(lines) structural check: in every set, the recency list visits
  /// each filled slot once, and the index holds exactly those.  Each fill
  /// or eviction checks its set under ALPU_INVARIANT (ALPU_CHECKED only).
  bool check_invariants() const {
    for (std::size_t set = 0; set < sets_; ++set) {
      if (!set_consistent(set)) return false;
    }
    return true;
  }

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

 private:
  // Table III and the benchmark grids have power-of-two line size and set
  // count, so the hot path shifts and masks; division keeps other shapes.
  Addr line_of(Addr addr) const {
    return pow2_geometry_ ? addr >> line_shift_ : addr / config_.line_bytes;
  }
  std::size_t set_of(Addr line) const {
    return pow2_geometry_ ? line & (sets_ - 1) : line % sets_;
  }
  /// Bucket `line` hashes to in its set's index (Fibonacci hashing).
  std::size_t home_of(Addr line) const {
    return (line * 0x9e3779b97f4a7c15ULL) >> hash_shift_;
  }
  /// index_ position of `line`'s bucket, or of its chain's empty end.
  std::size_t find_bucket(Addr line) const {
    const std::size_t set = set_of(line);
    const std::size_t first = set * buckets_;
    std::size_t b = home_of(line);
    while (index_[first + b] != 0 &&
           lines_[set * config_.ways + index_[first + b] - 1] != line) {
      b = (b + 1) & (buckets_ - 1);
    }
    return first + b;
  }
  /// Empty index_[pos], pulling later members of its chain back.
  void erase_bucket(std::size_t set, std::size_t pos);
  bool set_consistent(std::size_t set) const;

  CacheConfig config_;
  std::size_t sets_;
  std::size_t buckets_;               ///< per-set index size, a power of 2
  unsigned hash_shift_;               ///< 64 - log2(buckets_)
  bool pow2_geometry_;                ///< line_bytes and sets_ powers of 2
  unsigned line_shift_;               ///< log2(line_bytes) if pow2_geometry_
  std::vector<Addr> lines_;           ///< sets_ * ways: slot s at way s-1
  std::vector<std::uint16_t> prev_;   ///< sets_ * (ways + 1): newer slot
  std::vector<std::uint16_t> next_;   ///< sets_ * (ways + 1): older slot
  std::vector<bool> dirty_;           ///< sets_ * (ways + 1)
  std::vector<std::uint16_t> index_;  ///< sets_ * buckets_ slot numbers
  std::vector<std::uint16_t> fill_;   ///< filled slots per set
  CacheStats stats_;
};

}  // namespace alpu::mem
