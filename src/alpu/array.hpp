// Functional core of the associative match array (Figure 2).
//
// This class captures exactly what the cell/block/unit hierarchy
// computes, independent of pipeline timing: an ordered array of valid
// cells where
//   * new entries enter at the tail (the "left"; lowest priority),
//   * a probe compares against every valid cell in parallel,
//   * the priority network selects the OLDEST matching cell (MPI's
//     "first posted receive wins" rule),
//   * a successful match deletes its cell, with every younger cell
//     shifting up one slot (the broadcast-match-location compaction of
//     Section III-B; no holes are left by deletion).
//
// Storage is struct-of-arrays: parallel `bits[]` / `mask[]` / `cookie[]`
// planes plus a 64-bit-per-word validity bitmap, mirroring how the
// hardware lays each field across the cell array rather than how C++
// would lay out a struct.  A probe is a strided compare over the bit
// planes that emits one hit bitmask per 64 cells, and the hardware
// priority network collapses to `countr_zero` of the first non-zero
// word — word-parallel TCAM emulation, with no allocation or branching
// per cell.  On x86-64 the compare runs through a runtime-dispatched
// AVX2 kernel (four cells per step, movemask bit-gather); elsewhere a
// portable branch-free scalar loop.  Deletion compaction is memmove
// over the planes.
//
// Two match paths are provided: `match()` is the word-parallel linear
// specification, and `match_tree()` evaluates the same answer through an
// explicit block-structured priority-mux reduction mirroring the RTL
// (pairwise muxes within blocks, then across blocks), using fixed
// per-instance scratch buffers (no per-probe allocation).  Tests assert
// the two agree on all inputs — the hardware-fidelity check — and
// `check::ListSpec` (src/check/spec.hpp) is the oracle both are
// differentially tested against.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "alpu/seu.hpp"
#include "alpu/types.hpp"
#include "common/stats.hpp"

namespace alpu::hw {

namespace testing {
/// Test-only fault injection for the model checker and its self-tests
/// (tests/test_check.cpp): when set, AlpuArray's deletion compaction
/// shifts one cell too few, leaving a duplicated entry where the tail
/// should have moved up — the classic off-by-one the bounded checker
/// must catch with a counterexample.  Never set outside tests and the
/// `alpusim check --inject-compaction-bug` demonstration path.
extern bool inject_compaction_off_by_one;

/// Must-fail teeth for the fault subsystem: when armed, the next
/// successful insert (into any array, so arm it with `--jobs 1`) flips
/// the source LSB of the bits plane of cell 0 directly in storage —
/// bypassing the parity-maintaining accessors — then disarms itself.
/// With no parity installed (zero SEU rate) the flip is silent at the
/// hardware level, so only the end-to-end checks can catch it: the
/// bounded checker must produce a counterexample and a chaos soak must
/// fail its exactly-once/in-order verdict.  `SilentFlip.*` and the
/// `chaos_silent_flip_fails` ctest require both to fail.
extern std::atomic<bool> inject_silent_flip;
}  // namespace testing

/// One storage cell (Figure 2a/2b).  The SoA engine materializes these
/// on demand for tests/diagnostics; the RTL and pipelined models still
/// store them directly.
struct Cell {
  MatchWord bits = 0;
  MatchWord mask = 0;   ///< stored mask; meaningful only in posted flavour
  Cookie cookie = 0;    ///< the software "tag" (pointer into NIC RAM)
  bool valid = false;
};

/// Result of a probe against the array.
struct ArrayMatch {
  bool hit = false;
  std::size_t location = 0;  ///< index of the matched cell (oldest first)
  Cookie cookie = 0;
};

class AlpuArray {
 public:
  /// `total_cells` must be a positive multiple of `block_size`, and
  /// `block_size` a power of two (Section III-B restriction).
  ///
  /// `significant_mask` selects which bit positions the comparators are
  /// wired for: the 42-bit MPI packing by default, wider for the
  /// multi-process extension (PID bits, footnote 1) or full-width
  /// Portals-style matching.
  AlpuArray(AlpuFlavor flavor, std::size_t total_cells,
            std::size_t block_size,
            MatchWord significant_mask = match::kFullMask);

  AlpuFlavor flavor() const { return flavor_; }
  std::size_t capacity() const { return total_cells_; }
  std::size_t block_size() const { return block_size_; }
  std::size_t occupancy() const { return occupancy_; }
  std::size_t free_slots() const { return capacity() - occupancy_; }
  bool full() const { return occupancy_ == capacity(); }
  bool empty() const { return occupancy_ == 0; }

  /// Insert at the tail.  Returns false when full (the processor is
  /// expected to respect the free-count from START ACKNOWLEDGE).
  [[nodiscard]] bool insert(MatchWord bits, MatchWord mask, Cookie cookie);

  /// Pure probe: the oldest matching cell, if any.  Does not modify
  /// array contents (probe counters advance).
  ArrayMatch match(const Probe& probe) const;

  /// Same answer computed through the block/priority-mux reduction.
  ArrayMatch match_tree(const Probe& probe) const;

  /// Probe and, on a hit, delete the matched cell with upward compaction
  /// (the complete match pipeline's architectural effect).
  ArrayMatch match_and_delete(const Probe& probe);

  /// Clear all valid flags (RESET).
  void reset();

  /// Invalidate every cell matching `selector` (compacting as deletes
  /// do) and return how many were removed.  This is the datapath of the
  /// RESET PROCESS extension: a broadcast compare followed by a
  /// multi-delete sweep.
  std::size_t invalidate_matching(const Probe& selector);

  MatchWord significant_mask() const { return significant_mask_; }

  /// The i-th cell, materialized from the bit planes (test/diagnostic
  /// access; returns by value — there is no Cell struct in storage).
  Cell cell(std::size_t i) const;

  /// Probe-level work counters (probes / cells_scanned /
  /// compaction_moves).  `cells_scanned` counts comparator evaluations
  /// at the engine's 64-cell word granularity — the cells a probe's
  /// word-parallel scan actually touched before the priority network
  /// resolved.
  const common::MatchCounters& counters() const { return counters_; }

  // ---- transient-fault model (seu.hpp) ----

  /// Install the SEU injector + parity protection.  `stream` seeds this
  /// array's private injector stream.  Must be called before any entry
  /// is inserted; without this call the array has no parity state and
  /// the probe path is byte-identical to the fault-free build.
  void install_fault_model(const SeuConfig& config, std::uint64_t stream);
  bool fault_model_installed() const { return fault_ != nullptr; }

  /// Sticky fault latch: true from the first failed parity check until
  /// reset().  While quarantined, probes and sweeps return misses and
  /// do not touch the (untrustworthy) planes.
  bool quarantined() const { return fault_ && fault_->quarantined; }

  SeuStats seu_stats() const { return fault_ ? fault_->stats : SeuStats{}; }

  /// Catch the injector up to `now`: one fixed-draw Bernoulli trial per
  /// elapsed tick, each firing flipping one random bit of one random
  /// plane without updating parity.  Called by the owning unit at every
  /// operation and scrub, so injection times are deterministic
  /// functions of the (shard-independent) event schedule.
  void seu_advance(common::TimePs now);

  /// Full-array parity verification (every checker evaluates in
  /// parallel in hardware).  Latches the quarantine on the first
  /// mismatch.  Returns false when the array is (now) quarantined.
  bool parity_ok() const;

  /// Background scrub sweep: counts the sweep and verifies parity.
  /// Returns true when the array is quarantined afterwards.
  bool scrub();

  /// Test access: flip one stored bit directly, without any parity
  /// update.  Plane 0/1/2 = bits/mask/cookie (bit < 64, cookie bits
  /// taken mod 32); plane 3 = the validity bit of cell `cell` (`bit`
  /// ignored).  Used by the checker's kCorrupt op and the fuzzers.
  void corrupt_for_test(unsigned plane, std::size_t cell, unsigned bit);

 private:
  static constexpr std::size_t kMiss = static_cast<std::size_t>(-1);

  /// Word-parallel scan: index of the oldest matching valid cell, or
  /// kMiss.  The whole hot path of the engine.
  std::size_t find_oldest(const Probe& probe) const;

  bool cell_matches(std::size_t i, const Probe& probe) const;
  /// Structural invariant (ALPU_CHECKED builds): the validity bitmap is
  /// exactly the [0, occupancy) prefix and every plane is zeroed beyond
  /// it — what the word-parallel probe and the padding-free tail rely on.
  bool planes_consistent() const;
  bool valid_bit(std::size_t i) const {
    return (valid_[i >> 6] >> (i & 63)) & 1u;
  }
  void delete_at(std::size_t location);

  // Parity maintenance (no-ops unless the fault model is installed).
  // Every plane mutation must pass through one of these — a lint rule
  // (alpu-plane-write-outside-parity) flags raw writes elsewhere.
  void parity_update_cell(std::size_t i);
  void parity_update_valid_word(std::size_t w);
  /// Recompute parity for cells [lo, hi) and the validity words that
  /// cover them (compaction memmoves rewrite whole ranges).
  void parity_update_range(std::size_t lo, std::size_t hi);
  void parity_rebuild_all();

  AlpuFlavor flavor_;
  std::size_t total_cells_;
  std::size_t block_size_;
  MatchWord significant_mask_;
  std::size_t occupancy_ = 0;

  // SoA planes, padded to a whole number of 64-cell words so the match
  // loop never needs a tail case.  Index 0 is the oldest entry (the
  // paper's right-most, highest-priority cell); occupancy_ cells
  // starting at 0 are valid and contiguous — deletion compaction
  // maintains this invariant, so valid_ is always a prefix bitmap.
  std::vector<MatchWord> bits_;
  std::vector<MatchWord> mask_;
  std::vector<Cookie> cookie_;
  std::vector<std::uint64_t> valid_;  ///< bit j of word w == cell 64w+j

  /// match_tree() scratch (priority-mux candidates), sized once at
  /// construction: [0, block_size) for the in-block reduction, then
  /// [0, padded_blocks) for the cross-block reduction.  mutable because
  /// match_tree is logically const; instances are single-threaded (one
  /// simulated machine per sweep worker).
  struct Candidate {
    bool hit = false;
    std::size_t location = 0;
    Cookie cookie = 0;
  };
  mutable std::vector<Candidate> tree_scratch_;
  mutable std::vector<std::uint64_t> select_scratch_;  ///< sweep bitmasks

  /// Transient-fault state (null on the zero-rate path).  Detection
  /// latches state from const probe paths, which the unique_ptr
  /// indirection permits without a const_cast.
  std::unique_ptr<SeuState> fault_;

  mutable common::MatchCounters counters_;
};

}  // namespace alpu::hw
