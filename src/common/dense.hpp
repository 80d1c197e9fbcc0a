// Cache-resident control-path containers.
//
// The NP queue-management literature (Papaefstathiou et al.) makes the
// same point for the control structures AROUND the queues that the
// paper makes for the queues themselves: per-message bookkeeping lives
// or dies on memory behaviour.  The simulator's message hot path keeps
// several small keyed tables per NIC — rendezvous tokens, cookie->
// request state, per-destination ordering tickets, reliability windows,
// per-link serialisation horizons.  Node- and pointer-chasing
// containers (std::map, std::unordered_map) spend the per-message
// budget on allocation and cache misses; these two containers spend it
// on nothing:
//
//   * DenseNodeTable<T> — a NodeId-indexed flat array.  Node ids are
//     small and dense (the Machine fixes the node count at
//     construction), so "map keyed by NodeId" is just an array lookup.
//     Growth happens only while the machine is being built or a link is
//     first used; steady state is a single indexed load.
//
//   * FlatMap<K, V> — an open-addressing hash map over integer keys
//     with two properties std::unordered_map lacks: iteration follows
//     INSERTION ORDER (a doubly-linked list threaded through the slot
//     pool), so no result can ever depend on hash-bucket order
//     (tools/lint/lint.py bans raw unordered containers from
//     the NIC/net control path for exactly that reason); and erased
//     slots go to a free list and are RECYCLED, so the protocol states
//     they hold (RdvzSendState, PostedInfo, ...) are pooled — at steady
//     state insert/erase churn never touches the allocator.
//
// Every backing-array growth is reported through an AllocSink, which
// the NIC wires to NicStats.control_allocs/control_bytes — the
// counters the steady-state-allocation soak tests pin to zero, the way
// ReliabilityStats.buffer_allocs already proves the retransmit ring
// clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace alpu::common {

/// Borrowed pair of counters a pooled container bumps on each backing
/// allocation (growth or rehash).  Default-constructed it counts into
/// nothing; the owner points it at its stats block.
struct AllocSink {
  std::uint64_t* allocs = nullptr;
  std::uint64_t* bytes = nullptr;
  void count(std::size_t nbytes) const {
    if (allocs != nullptr) ++*allocs;
    if (bytes != nullptr) *bytes += nbytes;
  }
};

namespace detail {
/// splitmix64 finalizer: a deterministic, platform-independent integer
/// hash (std::hash<uint64_t> is identity on libstdc++ — clustered
/// tokens would degenerate linear probing).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace detail

/// Flat array keyed by a small dense id (NodeId).  operator[] grows the
/// backing store to cover the id (setup-time only in practice: callers
/// reserve() the machine's node count up front); find() never grows.
/// Iteration is index order — deterministic by construction.
template <typename T>
class DenseNodeTable {
 public:
  void set_alloc_sink(AllocSink sink) { sink_ = sink; }

  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  /// Pre-size for ids [0, n): no growth on the hot path afterwards.
  void reserve(std::size_t n) {
    if (n > slots_.size()) grow(n);
  }

  T& operator[](std::uint32_t id) {
    if (id >= slots_.size()) grow(static_cast<std::size_t>(id) + 1);
    return slots_[id];
  }

  /// Entry for `id`, or nullptr if the table has never covered it.
  const T* find(std::uint32_t id) const {
    return id < slots_.size() ? &slots_[id] : nullptr;
  }
  T* find(std::uint32_t id) {
    return id < slots_.size() ? &slots_[id] : nullptr;
  }

  typename std::vector<T>::iterator begin() { return slots_.begin(); }
  typename std::vector<T>::iterator end() { return slots_.end(); }
  typename std::vector<T>::const_iterator begin() const {
    return slots_.begin();
  }
  typename std::vector<T>::const_iterator end() const { return slots_.end(); }

 private:
  void grow(std::size_t n) {
    const std::size_t old_cap = slots_.capacity();
    slots_.resize(n);
    if (slots_.capacity() != old_cap) {
      sink_.count(slots_.capacity() * sizeof(T));
    }
  }

  std::vector<T> slots_;
  AllocSink sink_;
};

/// Open-addressing hash map over integer keys with insertion-order
/// iteration and a pooled slot free list (see the file comment).
///
/// Deletion uses backward-shift (no tombstones), so lookup cost never
/// degrades under churn.  Erased values are reset to V{} before going
/// on the free list — recycled protocol state always starts clean (the
/// pool-reset property the ALPU_CHECKED tests pin down).
template <typename K, typename V>
class FlatMap {
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    K key{};
    V value{};
    std::uint32_t prev = kNil;  ///< insertion-order list links
    std::uint32_t next = kNil;
    bool used = false;
  };

 public:
  void set_alloc_sink(AllocSink sink) { sink_ = sink; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-size index and pool for `n` live entries.
  void reserve(std::size_t n) {
    std::size_t buckets = kMinBuckets;
    while (buckets * 7 < n * 10) buckets *= 2;
    if (buckets > index_.size()) rehash(buckets);
    if (n > slots_.capacity()) {
      slots_.reserve(n);
      sink_.count(slots_.capacity() * sizeof(Slot));
    }
  }

  V* find(const K& key) {
    const std::uint32_t b = probe(key);
    return b == kNil ? nullptr : &slots_[index_[b]].value;
  }
  const V* find(const K& key) const {
    const std::uint32_t b = probe(key);
    return b == kNil ? nullptr : &slots_[index_[b]].value;
  }
  bool contains(const K& key) const { return probe(key) != kNil; }

  /// Lookup that asserts presence (the protocol guarantees the entry).
  V& at(const K& key) {
    V* v = find(key);
    ALPU_ASSERT(v != nullptr, "FlatMap::at: key not present");
    return *v;
  }
  const V& at(const K& key) const {
    const V* v = find(key);
    ALPU_ASSERT(v != nullptr, "FlatMap::at: key not present");
    return *v;
  }

  /// Find-or-insert-default (the std::map idiom the call sites use).
  V& operator[](const K& key) {
    if (index_.empty()) rehash(kMinBuckets);
    std::size_t mask = index_.size() - 1;
    std::size_t b = bucket_of(key, mask);
    while (index_[b] != kNil) {
      if (slots_[index_[b]].key == key) return slots_[index_[b]].value;
      b = (b + 1) & mask;
    }
    if ((size_ + 1) * 10 > index_.size() * 7) {
      rehash(index_.size() * 2);
      mask = index_.size() - 1;
      b = bucket_of(key, mask);
      while (index_[b] != kNil) b = (b + 1) & mask;
    }
    const std::uint32_t s = acquire_slot();
    Slot& slot = slots_[s];
    slot.key = key;
    slot.used = true;
    link_tail(s);
    index_[b] = s;
    ++size_;
    return slot.value;
  }

  /// Erase by key.  Returns false when absent.  The freed slot's value
  /// is reset and the slot recycled by the next insertion.
  bool erase(const K& key) {
    const std::uint32_t b = probe(key);
    if (b == kNil) return false;
    const std::uint32_t s = index_[b];
    unlink(s);
    slots_[s].used = false;
    slots_[s].value = V{};  // recycled state starts clean
    if (free_.size() == free_.capacity()) {
      free_.push_back(s);
      sink_.count(free_.capacity() * sizeof(std::uint32_t));
    } else {
      free_.push_back(s);
    }
    --size_;

    // Backward-shift deletion: walk the probe chain after the hole and
    // pull back every entry whose home bucket the hole now separates
    // from its resting place.  No tombstones, so probe chains stay as
    // short as the load factor allows.
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = b;
    std::size_t i = (b + 1) & mask;
    while (index_[i] != kNil) {
      const std::size_t home = bucket_of(slots_[index_[i]].key, mask);
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        index_[hole] = index_[i];
        hole = i;
      }
      i = (i + 1) & mask;
    }
    index_[hole] = kNil;
    ALPU_INVARIANT(check_invariants(), "FlatMap inconsistent after erase");
    return true;
  }

  /// Drop all entries, keeping every backing capacity (pool intact).
  void clear() {
    slots_.clear();
    free_.clear();
    index_.assign(index_.size(), kNil);
    head_ = tail_ = kNil;
    size_ = 0;
  }

  /// Insertion-order iteration: `for (auto [key, value] : map)`.
  template <bool kConst>
  class Iter {
    using MapPtr = std::conditional_t<kConst, const FlatMap*, FlatMap*>;
    using Ref = std::conditional_t<kConst, std::pair<const K&, const V&>,
                                   std::pair<const K&, V&>>;

   public:
    Iter(MapPtr map, std::uint32_t idx) : map_(map), idx_(idx) {}
    Ref operator*() const {
      auto& slot = map_->slots_[idx_];
      return Ref{slot.key, slot.value};
    }
    Iter& operator++() {
      idx_ = map_->slots_[idx_].next;
      return *this;
    }
    bool operator==(const Iter& o) const { return idx_ == o.idx_; }
    bool operator!=(const Iter& o) const { return idx_ != o.idx_; }

   private:
    MapPtr map_;
    std::uint32_t idx_;
  };

  Iter<false> begin() { return {this, head_}; }
  Iter<false> end() { return {this, kNil}; }
  Iter<true> begin() const { return {this, head_}; }
  Iter<true> end() const { return {this, kNil}; }

  /// O(n) structural consistency: index/list/pool agree.  Run under
  /// ALPU_INVARIANT (ALPU_CHECKED builds only).
  bool check_invariants() const {
    // Insertion-order list: length == size_, links consistent, every
    // node used and findable through the index.
    std::size_t walked = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t i = head_; i != kNil; i = slots_[i].next) {
      if (i >= slots_.size() || !slots_[i].used) return false;
      if (slots_[i].prev != prev) return false;
      if (probe(slots_[i].key) == kNil) return false;
      prev = i;
      if (++walked > size_) return false;
    }
    if (walked != size_ || tail_ != prev) return false;
    // Index: occupied buckets == size_, each pointing at a used slot.
    std::size_t occupied = 0;
    for (const std::uint32_t s : index_) {
      if (s == kNil) continue;
      if (s >= slots_.size() || !slots_[s].used) return false;
      ++occupied;
    }
    if (occupied != size_) return false;
    // Free list: only unused slots.
    for (const std::uint32_t s : free_) {
      if (s >= slots_.size() || slots_[s].used) return false;
    }
    return slots_.size() == size_ + free_.size();
  }

 private:
  static constexpr std::size_t kMinBuckets = 8;

  static std::size_t bucket_of(const K& key, std::size_t mask) {
    return static_cast<std::size_t>(
               detail::mix64(static_cast<std::uint64_t>(key))) &
           mask;
  }

  /// Bucket holding `key`, or kNil.
  std::uint32_t probe(const K& key) const {
    if (index_.empty()) return kNil;
    const std::size_t mask = index_.size() - 1;
    std::size_t b = bucket_of(key, mask);
    while (index_[b] != kNil) {
      if (slots_[index_[b]].key == key) {
        return static_cast<std::uint32_t>(b);
      }
      b = (b + 1) & mask;
    }
    return kNil;
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    const std::size_t old_cap = slots_.capacity();
    slots_.emplace_back();
    if (slots_.capacity() != old_cap) {
      sink_.count(slots_.capacity() * sizeof(Slot));
    }
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void link_tail(std::uint32_t s) {
    slots_[s].prev = tail_;
    slots_[s].next = kNil;
    if (tail_ != kNil) {
      slots_[tail_].next = s;
    } else {
      head_ = s;
    }
    tail_ = s;
  }

  void unlink(std::uint32_t s) {
    Slot& slot = slots_[s];
    if (slot.prev != kNil) {
      slots_[slot.prev].next = slot.next;
    } else {
      head_ = slot.next;
    }
    if (slot.next != kNil) {
      slots_[slot.next].prev = slot.prev;
    } else {
      tail_ = slot.prev;
    }
    slot.prev = slot.next = kNil;
  }

  /// Rebuild the index at `buckets` capacity, reinserting live slots in
  /// insertion order (deterministic: the result depends only on the
  /// operation history, never on bucket layout).
  void rehash(std::size_t buckets) {
    index_.assign(buckets, kNil);
    sink_.count(buckets * sizeof(std::uint32_t));
    const std::size_t mask = buckets - 1;
    for (std::uint32_t i = head_; i != kNil; i = slots_[i].next) {
      std::size_t b = bucket_of(slots_[i].key, mask);
      while (index_[b] != kNil) b = (b + 1) & mask;
      index_[b] = i;
    }
    ALPU_INVARIANT(check_invariants(), "FlatMap inconsistent after rehash");
  }

  std::vector<Slot> slots_;           ///< pooled entry storage
  std::vector<std::uint32_t> free_;   ///< recycled slot indices (LIFO)
  std::vector<std::uint32_t> index_;  ///< open-addressing bucket array
  std::uint32_t head_ = kNil;         ///< insertion-order list
  std::uint32_t tail_ = kNil;
  std::size_t size_ = 0;
  AllocSink sink_;
};

}  // namespace alpu::common
