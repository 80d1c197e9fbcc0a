// Executable specification of the ALPU list-management protocol.
//
// The ALPU's whole value proposition is that its hardware list
// management — ordered priority match, delete-on-match with upward
// compaction, insert mode with held failures — is observationally
// identical to a software traversal of the MPI posted/unexpected
// queues.  This module states that claim as code, at two levels:
//
//   * ListSpec      the datapath: a plain ordered list of
//                   {bits, mask, cookie} entries with MPI first-match
//                   semantics.  No timing, no FIFOs, no modes — just
//                   the list algebra every array implementation must
//                   realize.
//
//   * ProtocolSpec  the Figure-3 protocol wrapped around the list: the
//                   insert-mode state machine, START ACKNOWLEDGE free
//                   counts, and the held-failure rule (a failed match
//                   between START and STOP INSERT is never reported; it
//                   retries after each insert and resolves at STOP
//                   INSERT), at run-to-quiescence granularity.
//
// The bounded checker (checker.hpp) drives hw::AlpuArray, hw::Alpu and
// hw::PipelinedAlpu through all short operation sequences and
// cross-checks every observable against these specs after every step;
// the differential fuzz (tests/test_alpu_fuzz.cpp) drives AlpuArray
// against ListSpec through long random ones.  ListSpec is the only
// datapath oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "alpu/types.hpp"

namespace alpu::check {

using hw::AlpuFlavor;
using match::Cookie;
using match::MatchWord;

/// One step of a checked operation sequence.  `bits`/`mask` come from
/// the enumeration alphabet; `cookie` (inserts) and `seq` (probes) are
/// assigned from the op's position during replay, so every entry and
/// probe is uniquely identifiable in a counterexample.
enum class OpKind : std::uint8_t {
  kBegin,   ///< START INSERT (protocol level; expect START ACKNOWLEDGE)
  kEnd,     ///< STOP INSERT (protocol level; releases a held failure)
  kInsert,  ///< append {bits, mask, cookie} at the tail (youngest)
  kProbe,   ///< match-and-delete probe (delete-on-match, compaction)
  kReset,   ///< clear all entries
  kSweep,   ///< RESET MATCHING: delete every entry matching the selector
  /// A probe refused by a full header FIFO.  The refusal leaves no trace
  /// in the unit — no response is owed, no state changes — and the
  /// processor must re-offer the header later (the NIC firmware's
  /// bounded retry / graceful-degradation path).  Modelled as an
  /// explicit no-op so the checker can prove the refusal composes with
  /// held failures and retries: rejected-then-retried sequences must be
  /// response-equivalent to never-rejected ones.
  kProbeRejected,
  /// A single-event upset: flip one bit of one storage plane without
  /// updating parity (AlpuArray::corrupt_for_test).  Field encoding is
  /// positional: `bits` = plane (0 bits / 1 mask / 2 cookie / 3
  /// validity), `mask` = cell index, `cookie` = bit index.  Legal only
  /// outside insert mode and at most once per episode; until the
  /// recovering kReset, only kProbe (answered PARITY FAULT) and kReset
  /// itself are legal.  Enabled by CheckOptions::faults on the
  /// implementations that carry the fault model.
  kCorrupt,
};

struct Op {
  OpKind kind = OpKind::kReset;
  MatchWord bits = 0;
  MatchWord mask = 0;
  Cookie cookie = 0;       ///< inserts: assigned at replay
  std::uint64_t seq = 0;   ///< probes: assigned at replay
};

std::string to_string(const Op& op);

/// A stored entry, oldest first (index 0 = highest priority).
struct SpecEntry {
  MatchWord bits = 0;
  MatchWord mask = 0;
  Cookie cookie = 0;

  friend bool operator==(const SpecEntry&, const SpecEntry&) = default;
};

/// Result of a spec-level probe.
struct SpecMatch {
  bool hit = false;
  std::size_t index = 0;
  Cookie cookie = 0;

  friend bool operator==(const SpecMatch&, const SpecMatch&) = default;
};

/// The datapath specification: an ordered list with MPI matching
/// semantics.  Index 0 is the oldest entry; a probe selects the oldest
/// match ("first posted receive wins"); deletion keeps the survivors in
/// order (the hardware's upward compaction, made trivial by a vector).
class ListSpec {
 public:
  ListSpec(AlpuFlavor flavor, std::size_t capacity,
           MatchWord significant_mask);

  AlpuFlavor flavor() const { return flavor_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool full() const { return entries_.size() == capacity_; }
  const std::vector<SpecEntry>& entries() const { return entries_; }

  /// Append at the tail (youngest).  False when full.
  bool insert(MatchWord bits, MatchWord mask, Cookie cookie);

  /// The entry-matches-probe rule.  Posted flavour: the STORED mask is
  /// the don't-care set (Figure 2a).  Unexpected flavour: the PROBE
  /// carries the don't-care set — the reverse lookup (Figure 2b).
  bool entry_matches(const SpecEntry& e, MatchWord bits,
                     MatchWord mask) const;

  /// Oldest matching entry, if any.  Pure.
  SpecMatch match(MatchWord bits, MatchWord mask) const;

  /// Probe and, on a hit, delete the matched entry.
  SpecMatch match_and_delete(MatchWord bits, MatchWord mask);

  /// Delete every entry matching the selector (always selector-masked,
  /// whatever the flavour — the RESET PROCESS datapath).  Returns the
  /// number removed.
  std::size_t sweep(MatchWord bits, MatchWord mask);

  void reset() { entries_.clear(); }

 private:
  AlpuFlavor flavor_;
  std::size_t capacity_;
  MatchWord significant_mask_;
  std::vector<SpecEntry> entries_;
};

/// Expected observable response at the protocol level (the functional
/// fields of hw::Response — timing excluded by design).
struct SpecResponse {
  hw::ResponseKind kind = hw::ResponseKind::kMatchFailure;
  Cookie cookie = 0;
  std::uint32_t free_slots = 0;
  std::uint64_t probe_seq = 0;

  friend bool operator==(const SpecResponse&, const SpecResponse&) = default;
};

std::string to_string(const SpecResponse& r);

/// The Figure-3 protocol around the list, at run-to-quiescence
/// granularity: each op is applied, then the machine settles (held
/// retries, queued probes) until nothing more can happen — exactly what
/// the checker observes after letting the simulation engine drain.
class ProtocolSpec {
 public:
  ProtocolSpec(AlpuFlavor flavor, std::size_t capacity,
               MatchWord significant_mask);

  /// Apply one op; append every response the device must emit (in
  /// order) to `out`.  The enumerator only issues protocol-legal ops
  /// (kInsert inside insert mode; kBegin/kReset/kSweep outside).
  void apply(const Op& op, std::vector<SpecResponse>& out);

  bool in_insert_mode() const { return insert_mode_; }
  const ListSpec& list() const { return list_; }
  /// True while a failed probe is held (its response still owed).
  bool has_held_probe() const { return held_.has_value(); }
  /// True between kCorrupt and the recovering kReset: the stored planes
  /// are untrustworthy, so every probe answers PARITY FAULT and the
  /// list contents are unobservable until rebuilt.
  bool quarantined() const { return quarantined_; }

 private:
  struct PendingProbe {
    MatchWord bits = 0;
    MatchWord mask = 0;
    std::uint64_t seq = 0;
  };

  /// Fixpoint: resolve the held probe and drain queued probes until no
  /// further progress is possible in the current mode.
  void settle(std::vector<SpecResponse>& out);

  ListSpec list_;
  bool insert_mode_ = false;
  bool retry_pending_ = false;
  bool quarantined_ = false;
  std::optional<PendingProbe> held_;
  std::deque<PendingProbe> queued_;
};

}  // namespace alpu::check
