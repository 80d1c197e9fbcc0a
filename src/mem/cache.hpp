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
#include <memory>
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
/// time, so slots [1, fill] are the valid ones.  A paged line index maps
/// every cached line to its slot (0: not cached): a page holds the
/// 16-bit slot numbers of kPageLines consecutive lines, is made zeroed at
/// the first access to any of them and lives until a flush.  The hot
/// path reaches a page through a one-page memo, and otherwise scans the
/// short list of pages (a NIC's two bump heaps reach one page each per
/// 512 lines).  A set's doubly linked list runs from sentinel slot 0
/// through the filled slots, MRU to LRU, and back (zeroed links: empty),
/// so its tail is exactly the true-LRU victim.  A set's links are zeroed
/// at its first access after construction or a flush, so a run pays only
/// for the sets it touches; a slot's line and dirty byte are written when
/// it fills.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Look up `addr`; on miss, allocate the line (evicting LRU).  Inline:
  /// this is the innermost call of every modelled load and store.
  CacheAccess access(Addr addr, bool is_write) {
    return step(line_of(addr), is_write, stats_);
  }

  /// Read `addrs[0, n)` in order: exactly the hits, fills, evictions and
  /// counters of n access(addr, false) calls, with the counters kept in
  /// registers for the run.  Returns the run's misses.
  std::uint64_t read_run(const Addr* addrs, std::size_t n) {
    CacheStats st = stats_;
    for (std::size_t i = 0; i < n; ++i) step(line_of(addrs[i]), false, st);
    const std::uint64_t misses = st.misses - stats_.misses;
    stats_ = st;
    return misses;
  }

  /// Probe without side effects: moves no line and makes no page.
  bool contains(Addr addr) const { return slot_of(line_of(addr)) != 0; }

  /// Invalidate everything (e.g. context switch modelling): O(sets +
  /// pages), as each set is set up again at its next access and the pages
  /// are dropped.
  void flush();

  /// O(lines) structural check: in every set set up so far, the recency
  /// list visits each filled slot once, and the index holds exactly
  /// those: each of their lines maps to its slot, and the pages hold no
  /// other entry.  Each fill or eviction checks its set under
  /// ALPU_INVARIANT (ALPU_CHECKED only).
  bool check_invariants() const;

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

 private:
  /// fill_ of a set whose links are not set up yet (above any real fill:
  /// the constructor asserts ways < 65535).
  static constexpr std::uint16_t kUntouched = 0xFFFF;
  /// Lines per index page: 1 KB of slot numbers.
  static constexpr unsigned kPageShift = 9;
  static constexpr Addr kPageLines = Addr{1} << kPageShift;
  /// memo_key_ when no page is memoised: no page key reaches it, as a
  /// key is a line number shifted right by kPageShift.
  static constexpr Addr kNoPage = ~Addr{0};

  struct Page {
    Addr key;  ///< line >> kPageShift of its lines
    std::unique_ptr<std::uint16_t[]> slots;  ///< kPageLines slot numbers
  };

  /// The one LRU transition behind access() and read_run(), counting
  /// into `st`.  Always inlined, so that read_run's counters stay in
  /// registers.
  [[gnu::always_inline]] CacheAccess step(Addr line, bool is_write,
                                          CacheStats& st) {
    ++st.accesses;
    const std::size_t set = set_of(line);
    if (fill_[set] == kUntouched) [[unlikely]] set_up(set);
    const std::size_t base = set * (config_.ways + 1);
    std::uint16_t* prev = &prev_[base];
    std::uint16_t* next = &next_[base];
    std::uint16_t slot = entry(line);
    CacheAccess out{.hit = slot != 0, .evicted_dirty = false};
    ++(out.hit ? st.hits : st.misses);
    if (!out.hit) {
      if (fill_[set] < config_.ways) {
        slot = ++fill_[set];  // self-linked, so unlinking it is a no-op
        prev[slot] = next[slot] = slot;
      } else {
        slot = prev[0];  // the LRU way
        ++st.evictions;
        out.evicted_dirty = dirty_[base + slot] != 0;
        if (out.evicted_dirty) ++st.writebacks;
        entry(lines_[set * config_.ways + slot - 1]) = 0;
      }
      lines_[set * config_.ways + slot - 1] = line;
      dirty_[base + slot] = 0;
      entry(line) = slot;  // after the victim's, so the memo ends here
    }
    // Move the slot to the MRU end of the list.
    next[prev[slot]] = next[slot];
    prev[next[slot]] = prev[slot];
    prev[slot] = 0;
    next[slot] = next[0];
    prev[next[0]] = slot;
    next[0] = slot;
    if (is_write) dirty_[base + slot] = 1;
    ALPU_INVARIANT(out.hit || set_consistent(set),
                   "cache set inconsistent after a fill or eviction");
    return out;
  }

  // Table III and the benchmark grids have power-of-two line size and set
  // count, so the hot path shifts and masks; division keeps other shapes.
  Addr line_of(Addr addr) const {
    return pow2_geometry_ ? addr >> line_shift_ : addr / config_.line_bytes;
  }
  std::size_t set_of(Addr line) const {
    return pow2_geometry_ ? line & (sets_ - 1) : line % sets_;
  }
  /// `line`'s index entry, through the memo; makes its page if none is.
  std::uint16_t& entry(Addr line) {
    const Addr key = line >> kPageShift;
    if (key != memo_key_) [[unlikely]] remember(key);
    return memo_page_[line & (kPageLines - 1)];
  }
  /// Point the memo at page `key`, making the page if there is none.
  void remember(Addr key);
  /// Page `key`'s slot numbers, or nullptr: a scan that skips the memo.
  std::uint16_t* find_page(Addr key) const;
  /// `line`'s slot, or 0 if it is not cached.
  std::uint16_t slot_of(Addr line) const {
    const std::uint16_t* page = find_page(line >> kPageShift);
    return page == nullptr ? 0 : page[line & (kPageLines - 1)];
  }
  /// Zero `set`'s links and mark it empty.
  void set_up(std::size_t set);
  bool set_consistent(std::size_t set) const;

  CacheConfig config_;
  std::size_t sets_;
  bool pow2_geometry_;                ///< line_bytes and sets_ powers of 2
  unsigned line_shift_;               ///< log2(line_bytes) if pow2_geometry_
  // The planes start uninitialised; set_up() zeroes a set's share of
  // prev_ and next_.
  std::unique_ptr<Addr[]> lines_;  ///< sets_ * ways: slot s at way s-1
  std::unique_ptr<std::uint16_t[]> prev_;   ///< sets_ * (ways + 1): newer slot
  std::unique_ptr<std::uint16_t[]> next_;   ///< sets_ * (ways + 1): older slot
  std::unique_ptr<std::uint8_t[]> dirty_;   ///< sets_ * (ways + 1)
  std::vector<std::uint16_t> fill_;  ///< filled slots per set, or kUntouched
  std::vector<Page> pages_;          ///< in the order they were made
  Addr memo_key_ = kNoPage;          ///< key of the page memo_page_ holds
  std::uint16_t* memo_page_ = nullptr;
  CacheStats stats_;
};

}  // namespace alpu::mem
