// Reference software match lists (the baseline NIC's data structures).
//
// Every published MPI implementation the paper surveys (MPICH, LAM,
// MPI/Pro, MPICH2, LA-MPI) keeps the posted-receive queue and the
// unexpected-message queue as linear lists searched front-to-back.
// These containers are that reference implementation: they define the
// *correct* answer the ALPU model is property-tested against, and they
// expose traversal counts so the NIC CPU cost model can charge time and
// cache traffic per visited entry.
//
// Storage is a contiguous struct-of-arrays arena: the search keys
// (bits/mask for the posted list, the explicit word for the unexpected
// list) live in their own stride-1 planes, so a front-to-back walk is a
// dense, prefetch-friendly scan instead of chasing std::deque chunks.
// Cookies and simulated addresses sit in parallel side planes touched
// only on a hit.  Erase compacts the planes with memmove block moves,
// and a cookie→index side table keeps `index_of()` O(1) — matching the
// O(1) cost the hardware cookie (a direct NIC-RAM pointer) is charged.
//
// `visited` counts are semantically identical to the original deque
// walk (entries examined including the hit), so the NIC cost model —
// and therefore every figure — is unchanged to the byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/dense.hpp"
#include "common/stats.hpp"
#include "match/match.hpp"

namespace alpu::match {

/// Outcome of a list search.
struct SearchResult {
  bool found = false;
  std::size_t index = 0;      ///< position of the hit (valid when found)
  Cookie cookie = 0;          ///< cookie of the hit (valid when found)
  std::size_t visited = 0;    ///< entries examined, including the hit

  friend bool operator==(const SearchResult&, const SearchResult&) = default;
};

/// An entry of the posted-receive queue: a pattern awaiting messages.
struct PostedEntry {
  Pattern pattern;
  Cookie cookie = 0;
  std::uint64_t addr = 0;  ///< simulated NIC-memory address of the full entry
};

/// An entry of the unexpected queue: an explicit arrived envelope.
struct UnexpectedEntry {
  MatchWord word = 0;
  Cookie cookie = 0;
  std::uint64_t addr = 0;  ///< simulated NIC-memory address of the full entry
};

namespace detail {

/// Cookie→index side table shared by both lists.  Append, lookup and
/// the hashed part of erase are O(1); the erase additionally renumbers
/// the shifted suffix while the arena memmoves it (the erase is
/// already O(suffix), so this does not change its complexity class).
///
/// Cookies resolve to *stable handles* (slots of `index_of_handle_`)
/// through a pooled FlatMap, and only the handle→index plane moves when
/// entries shift.  The suffix renumbering — run once per suffix entry
/// on EVERY erase, so it dominates long-queue message cost — is then a
/// pair of sequential vector stores per entry instead of a hash probe:
/// the hash table itself is untouched by shifts.
class CookieIndex {
 public:
  /// Register `cookie` at `index`; appends are always at the tail.
  void append(Cookie cookie, std::size_t index) {
    ALPU_ASSERT(pos_.find(cookie) == nullptr,
                "duplicate cookie appended to a match list");
    ALPU_ASSERT(index == order_.size(),
                "match-list append must be at the tail");
    std::uint32_t handle;
    if (!free_.empty()) {
      handle = free_.back();
      free_.pop_back();
      index_of_handle_[handle] = static_cast<std::uint32_t>(index);
    } else {
      handle = static_cast<std::uint32_t>(index_of_handle_.size());
      index_of_handle_.push_back(static_cast<std::uint32_t>(index));
    }
    pos_[cookie] = handle;
    order_.push_back(handle);
  }
  /// Drop `cookie` (currently at `index`) and renumber the suffix the
  /// caller is about to memmove down by one.
  void erase(Cookie cookie, std::size_t index) {
    const std::uint32_t* handle = pos_.find(cookie);
    ALPU_ASSERT(handle != nullptr, "cookie not present in match list");
    ALPU_ASSERT(index_of_handle_[*handle] == index,
                "match-list erase index does not hold this cookie");
    free_.push_back(*handle);
    pos_.erase(cookie);
    const std::size_t n = order_.size();
    for (std::size_t i = index + 1; i < n; ++i) {
      const std::uint32_t moved = order_[i];
      order_[i - 1] = moved;
      index_of_handle_[moved] = static_cast<std::uint32_t>(i - 1);
    }
    order_.pop_back();
  }
  bool contains(Cookie cookie) const { return pos_.contains(cookie); }
  std::size_t size() const { return pos_.size(); }
  /// Structural invariant (ALPU_CHECKED builds): the side table is a
  /// bijection onto the arena — every cookie maps to the index that
  /// holds it, and the sizes agree.
  bool consistent_with(const std::vector<Cookie>& cookies) const {
    if (pos_.size() != cookies.size()) return false;
    if (order_.size() != cookies.size()) return false;
    for (std::size_t i = 0; i < cookies.size(); ++i) {
      const std::uint32_t* handle = pos_.find(cookies[i]);
      if (handle == nullptr || order_[i] != *handle) return false;
      if (index_of_handle_[*handle] != i) return false;
    }
    return true;
  }
  std::size_t index_of(Cookie cookie) const {
    const std::uint32_t* handle = pos_.find(cookie);
    ALPU_ASSERT(handle != nullptr, "cookie not present in match list");
    return index_of_handle_[*handle];
  }
  void clear() {
    pos_.clear();
    order_.clear();
    index_of_handle_.clear();
    free_.clear();
  }

 private:
  common::FlatMap<Cookie, std::uint32_t> pos_;  ///< cookie → stable handle
  std::vector<std::uint32_t> order_;  ///< arena index → handle (mirrors arena)
  std::vector<std::uint32_t> index_of_handle_;  ///< handle → arena index
  std::vector<std::uint32_t> free_;             ///< recycled handles
};

}  // namespace detail

/// The posted-receive queue as a linear list.
///
/// `search(word)` walks front-to-back and returns the first entry whose
/// pattern matches the incoming envelope — exactly MPI's required
/// "first posted receive wins" semantics.  The caller erases the hit.
class PostedList {
 public:
  void append(PostedEntry e) {
    index_.append(e.cookie, bits_.size());
    bits_.push_back(e.pattern.bits);
    mask_.push_back(e.pattern.mask);
    cookies_.push_back(e.cookie);
    addrs_.push_back(e.addr);
  }

  /// First-match search for the incoming explicit `word`.
  SearchResult search(MatchWord word) const { return search_from(0, word); }

  /// Search only indices [first, size()) — the NIC uses this to search
  /// the portion of the queue not yet loaded into the ALPU.
  SearchResult search_from(std::size_t first, MatchWord word) const;

  /// Remove the entry at `index` (after a successful match).
  void erase(std::size_t index);

  /// Current index of the entry holding `cookie` (must be present);
  /// O(1) via the side table.
  std::size_t index_of(Cookie cookie) const { return index_.index_of(cookie); }
  bool contains(Cookie cookie) const { return index_.contains(cookie); }

  std::size_t size() const { return bits_.size(); }
  bool empty() const { return bits_.empty(); }
  /// Materialized view of entry `i` (by value — storage is SoA planes).
  PostedEntry at(std::size_t i) const {
    ALPU_ASSERT(i < size(), "posted-list index out of range");
    return PostedEntry{Pattern{bits_[i], mask_[i]}, cookies_[i], addrs_[i]};
  }
  /// The address plane: entry i's simulated address is addrs()[i].
  const std::uint64_t* addrs() const { return addrs_.data(); }
  void clear() {
    bits_.clear();
    mask_.clear();
    cookies_.clear();
    addrs_.clear();
    index_.clear();
  }

  const common::MatchCounters& counters() const { return counters_; }

 private:
  std::vector<MatchWord> bits_;
  std::vector<MatchWord> mask_;
  std::vector<Cookie> cookies_;
  std::vector<std::uint64_t> addrs_;
  detail::CookieIndex index_;
  mutable common::MatchCounters counters_;
};

/// The unexpected-message queue as a linear list.
///
/// Probing is the *reverse* lookup the paper highlights: the stored
/// entries are explicit, the probe (a receive being posted) may carry
/// wildcards.  First match in arrival order wins, which preserves MPI's
/// ordering guarantee for same-(source, context) messages.
class UnexpectedList {
 public:
  void append(UnexpectedEntry e) {
    index_.append(e.cookie, words_.size());
    words_.push_back(e.word);
    cookies_.push_back(e.cookie);
    addrs_.push_back(e.addr);
  }

  /// First-match search with a possibly-wildcarded probe pattern.
  SearchResult search(const Pattern& probe) const {
    return search_from(0, probe);
  }

  /// Search only indices [first, size()).
  SearchResult search_from(std::size_t first, const Pattern& probe) const;

  void erase(std::size_t index);

  /// Current index of the entry holding `cookie` (must be present);
  /// O(1) via the side table.
  std::size_t index_of(Cookie cookie) const { return index_.index_of(cookie); }
  bool contains(Cookie cookie) const { return index_.contains(cookie); }

  std::size_t size() const { return words_.size(); }
  bool empty() const { return words_.empty(); }
  /// Materialized view of entry `i` (by value — storage is SoA planes).
  UnexpectedEntry at(std::size_t i) const {
    ALPU_ASSERT(i < size(), "unexpected-list index out of range");
    return UnexpectedEntry{words_[i], cookies_[i], addrs_[i]};
  }
  /// The address plane: entry i's simulated address is addrs()[i].
  const std::uint64_t* addrs() const { return addrs_.data(); }
  void clear() {
    words_.clear();
    cookies_.clear();
    addrs_.clear();
    index_.clear();
  }

  const common::MatchCounters& counters() const { return counters_; }

 private:
  std::vector<MatchWord> words_;
  std::vector<Cookie> cookies_;
  std::vector<std::uint64_t> addrs_;
  detail::CookieIndex index_;
  mutable common::MatchCounters counters_;
};

// ---- inline implementations -------------------------------------------

inline SearchResult PostedList::search_from(std::size_t first,
                                            MatchWord word) const {
  SearchResult r;
  ++counters_.probes;
  const std::size_t n = bits_.size();
  for (std::size_t i = first; i < n; ++i) {
    ++r.visited;
    if (((bits_[i] ^ word) & ~mask_[i] & kFullMask) == 0) {
      r.found = true;
      r.index = i;
      r.cookie = cookies_[i];
      break;
    }
  }
  counters_.cells_scanned += r.visited;
  return r;
}

inline void PostedList::erase(std::size_t index) {
  ALPU_ASSERT(index < size(), "posted-list erase index out of range");
  index_.erase(cookies_[index], index);
  const std::size_t moved = size() - index - 1;
  if (moved > 0) {
    std::memmove(&bits_[index], &bits_[index + 1],
                 moved * sizeof(MatchWord));
    std::memmove(&mask_[index], &mask_[index + 1],
                 moved * sizeof(MatchWord));
    std::memmove(&cookies_[index], &cookies_[index + 1],
                 moved * sizeof(Cookie));
    std::memmove(&addrs_[index], &addrs_[index + 1],
                 moved * sizeof(std::uint64_t));
    counters_.compaction_moves += moved;
  }
  bits_.pop_back();
  mask_.pop_back();
  cookies_.pop_back();
  addrs_.pop_back();
  ALPU_INVARIANT(index_.consistent_with(cookies_),
                 "posted-list erase broke the cookie map");
}

inline SearchResult UnexpectedList::search_from(std::size_t first,
                                                const Pattern& probe) const {
  SearchResult r;
  ++counters_.probes;
  const MatchWord care = ~probe.mask & kFullMask;
  const std::size_t n = words_.size();
  for (std::size_t i = first; i < n; ++i) {
    ++r.visited;
    if (((probe.bits ^ words_[i]) & care) == 0) {
      r.found = true;
      r.index = i;
      r.cookie = cookies_[i];
      break;
    }
  }
  counters_.cells_scanned += r.visited;
  return r;
}

inline void UnexpectedList::erase(std::size_t index) {
  ALPU_ASSERT(index < size(), "unexpected-list erase index out of range");
  index_.erase(cookies_[index], index);
  const std::size_t moved = size() - index - 1;
  if (moved > 0) {
    std::memmove(&words_[index], &words_[index + 1],
                 moved * sizeof(MatchWord));
    std::memmove(&cookies_[index], &cookies_[index + 1],
                 moved * sizeof(Cookie));
    std::memmove(&addrs_[index], &addrs_[index + 1],
                 moved * sizeof(std::uint64_t));
    counters_.compaction_moves += moved;
  }
  words_.pop_back();
  cookies_.pop_back();
  addrs_.pop_back();
  ALPU_INVARIANT(index_.consistent_with(cookies_),
                 "unexpected-list erase broke the cookie map");
}

}  // namespace alpu::match
