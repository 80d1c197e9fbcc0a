// Determinism audit layer: a happens-before checker for the sharded DES.
//
// The conservative parallel engine (sim/parallel.hpp) is correct only if
// three protocol-level properties hold on every run:
//
//   1. Safe horizon — a shard executing window [T, W) never fires an
//      event outside the window, and no cross-shard delivery posted
//      during that window lands before W = T + lookahead.  A violation
//      here is a causality bug: the destination shard may already have
//      simulated past the delivery time, silently diverging from the
//      serial schedule.  TSan cannot see this class of bug — shard
//      engines only touch shared state at barriers, so the racy
//      interleaving is data-race-free yet still wrong.
//
//   2. Canonical merge order — cross-shard deliveries with equal
//      timestamps must be consumed in the canonical
//      (when, sent_at, src_node, src_seq) order from the merge step,
//      whatever partition produced them.
//
//   3. No stale captures — an EventCallback closure must not outlive
//      the pool generation of what it captured (coroutine frames from
//      the FramePool, slot-pool events).  Firing one is a use-after-free
//      that usually *happens* to work.
//
// The auditor stamps every scheduled event with provenance (origin
// shard, the Lamport clock of the event that scheduled it, cross-shard
// merge generation and canonical key) and re-derives all three
// properties independently at execution time.  On a violation it prints
// the event's provenance chain — the scheduling events walked backwards
// across shards — and aborts through the contract layer, so tests can
// intercept it with set_check_failure_handler.
//
// Everything here is compiled only under -DALPU_AUDIT=ON; the flag adds
// a stamp to every event slot and a check per executed event, so the
// production build keeps the hot path untouched (`host_ns_per_msg` in
// bench/e2e times the ALPU_AUDIT=OFF build).
//
// The same stamps feed the divergence-triage tool (`alpusim audit`):
// with tracing enabled, each shard folds every executed event into a
// commutative per-window hash, so two runs of the same workload at
// different shard counts can be compared window by window and the first
// divergent window re-run with full event capture — turning a "CSV cmp
// failed" CI signal into a pinpointed event pair with both provenance
// chains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace alpu::check {

using common::TimePs;

/// Canonical merge key of a cross-shard delivery.  Mirrors
/// sim::CrossKey field for field; duplicated here because the audit
/// layer sits below the sim kernel in the link order (the Engine embeds
/// an EventStamp in every slot) and must not include parallel.hpp.
struct CrossStamp {
  TimePs when = 0;
  TimePs sent_at = 0;
  std::uint32_t src_node = 0;
  std::uint64_t src_seq = 0;
};

/// Strict total order on the canonical key (same order the ShardGroup
/// merge uses; re-derived independently so the audit does not trust the
/// code under test).
bool canonical_less(const CrossStamp& a, const CrossStamp& b);

/// Provenance stamp attached to every scheduled event in audit builds.
struct EventStamp {
  /// Shard whose execution scheduled the event.
  std::uint32_t origin_shard = 0;
  /// Lamport clock of the scheduling event on its shard (0 = scheduled
  /// outside any event, i.e. during setup before the run).
  std::uint64_t origin_lamport = 0;
  /// Simulated time at which the event was scheduled.
  TimePs origin_when = 0;
  /// True if the event arrived through the cross-shard outbox merge.
  bool cross = false;
  /// Merge generation (number of completed windows) for cross events.
  std::uint64_t window_gen = 0;
  /// Canonical merge key (valid when `cross`).
  CrossStamp key{};
};

/// One executed event, as remembered by a shard's history ring.
struct ExecRecord {
  std::uint64_t lamport = 0;
  TimePs when = 0;
  EventStamp stamp{};
};

/// Per-window trace record: a commutative digest of everything the
/// whole group executed inside one lookahead window.  The hash folds
/// (when, origin_when) per event with a wrapping sum, so it is
/// independent of both the partition and the intra-window execution
/// interleaving — two runs diverge in the first window whose multiset
/// of events differs.
struct WindowRecord {
  std::uint64_t window = 0;  ///< 1-based window generation
  TimePs start = 0;
  TimePs end = 0;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
};
using AuditTrace = std::vector<WindowRecord>;

/// One event captured verbatim during a triage re-run of a divergent
/// window.
struct CapturedEvent {
  std::uint32_t shard = 0;
  std::uint64_t lamport = 0;
  TimePs when = 0;
  EventStamp stamp{};
};

class Auditor;

/// Per-shard audit state.  Touched only by the owning shard's worker
/// thread inside a window and by the barrier-completion thread between
/// windows — the same ordering discipline as the outboxes, so the audit
/// itself introduces no data races.
class ShardAudit {
 public:
  /// Stamp for an event being scheduled right now on this shard.
  EventStamp make_stamp(TimePs now) const {
    EventStamp s;
    s.origin_shard = index_;
    s.origin_lamport = lamport_;
    s.origin_when = now;
    return s;
  }

  /// Called by the engine for every executed event, immediately before
  /// its callback runs.  Advances the shard's Lamport clock and checks
  /// monotonicity, window containment, the happens-before edge to the
  /// scheduling event, the conservative lookahead contract, and the
  /// canonical merge order.
  void on_execute(TimePs when, const EventStamp& stamp);

  std::uint64_t lamport() const { return lamport_; }

  /// History lookup by Lamport number; nullptr once evicted from the
  /// ring (ring slot = lamport % capacity, so lookup is O(1)).
  const ExecRecord* find(std::uint64_t lamport) const;

 private:
  friend class Auditor;

  static constexpr std::size_t kHistory = 1 << 14;  ///< per-shard ring

  Auditor* group_ = nullptr;
  std::uint32_t index_ = 0;

  std::uint64_t lamport_ = 0;
  TimePs last_when_ = 0;

  /// Current window bounds (set by the barrier-completion thread).
  bool windowed_ = false;
  TimePs window_start_ = 0;
  TimePs window_end_ = common::kTimeNever;

  /// Last cross-shard event executed, for the merge-order check.
  bool have_cross_ = false;
  std::uint64_t last_cross_gen_ = 0;
  CrossStamp last_cross_{};

  /// Per-window trace accumulators (folded at each barrier).
  std::uint64_t window_events_ = 0;
  std::uint64_t window_hash_ = 0;

  std::vector<ExecRecord> history_;
  std::vector<CapturedEvent> captured_;
};

/// Group-level auditor: owns one ShardAudit per engine plus the window
/// bookkeeping, the violation sink, and the triage trace.
class Auditor {
 public:
  Auditor() = default;

  /// (Re)bind to a group of `shards` engines.  Called by
  /// ShardGroup::set_audit / the ShardGroup constructor.
  void bind(unsigned shards);

  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }
  ShardAudit& shard(unsigned i) { return *shards_[i]; }
  const ShardAudit& shard(unsigned i) const { return *shards_[i]; }

  // --- run lifecycle (called by ShardGroup) -------------------------

  /// A run is starting with this conservative lookahead.
  void begin_run(TimePs lookahead);

  /// Barrier-completion step, before the outbox merge: fold the window
  /// that just finished into the trace and remember its end as the
  /// forbidden-window bound for check_post.
  void on_barrier();

  /// One cross-shard event is about to be merged.  `provenance` is the
  /// stamp captured when the sender posted it.
  void check_post(const CrossStamp& key, const EventStamp& provenance);

  /// The next window [start, end) is about to run.
  void begin_window(TimePs start, TimePs end);

  /// The group drained; no more windows (finish hooks may still run).
  void end_windows();

  /// Merge generation = completed windows (stamped onto cross events).
  std::uint64_t generation() const { return gen_; }
  TimePs lookahead() const { return lookahead_; }

  // --- triage -------------------------------------------------------

  /// Collect a per-window trace.  Implies windowed execution even for a
  /// single-shard group (ShardGroup::run_all checks trace_enabled()),
  /// so traces from different shard counts are window-aligned.
  void enable_trace() { trace_enabled_ = true; }
  bool trace_enabled() const { return trace_enabled_; }
  const AuditTrace& trace() const { return trace_; }

  /// Capture every event executed in window `gen` (1-based) verbatim.
  void capture_window(std::uint64_t gen) { capture_gen_ = gen; }
  std::uint64_t capture_generation() const { return capture_gen_; }

  /// All captured events, merged across shards and sorted by the
  /// partition-stable key (when, origin_when) — comparable between runs
  /// at different shard counts.
  std::vector<CapturedEvent> captured() const;

  // --- violations ---------------------------------------------------

  /// Record violations instead of aborting (triage mode).
  void set_record_mode(bool record) { record_ = record; }
  const std::vector<std::string>& violations() const { return violations_; }

  /// Render the provenance chain of a stamp: the scheduling events
  /// walked backwards across shards, up to `max_depth` hops or until
  /// the chain leaves the history rings.
  std::string provenance_chain(const EventStamp& stamp,
                               int max_depth = 8) const;

 private:
  friend class ShardAudit;

  /// Build the report (header + event line + provenance chain) and
  /// either record it or fail the ALPU_ASSERT contract with it.
  void report(const std::string& what, std::uint32_t shard, TimePs when,
              const EventStamp& stamp);

  std::vector<std::unique_ptr<ShardAudit>> shards_;
  TimePs lookahead_ = 0;
  std::uint64_t gen_ = 0;            ///< completed windows
  TimePs completed_window_end_ = 0;  ///< forbidden-window bound

  bool trace_enabled_ = false;
  AuditTrace trace_;
  TimePs open_window_start_ = 0;
  TimePs open_window_end_ = 0;
  bool window_open_ = false;

  std::uint64_t capture_gen_ = 0;  ///< 0 = capture nothing

  bool record_ = false;
  std::vector<std::string> violations_;
};

// --- stale-capture detection (frame generation tags) ----------------
//
// The coroutine FramePool recycles frames; a callback that captured a
// coroutine handle and fires after the frame was released (or after the
// frame was reused by a new coroutine) is a use-after-free.  In audit
// builds the pool registers every frame in a process-wide generation
// registry; resume-scheduling call sites (DelayAwaiter, Trigger) tag
// the handle with the frame's current generation and re-validate it
// before resuming.

/// Register a newly allocated frame; returns its generation.  Asserts
/// the address is not already live (pool corruption / double alloc).
std::uint64_t frame_register(void* frame);

/// Mark a frame released.  Asserts it was live.
void frame_retire(void* frame);

/// Current generation of a live frame (asserts liveness) — captured at
/// schedule time by resume call sites.
std::uint64_t frame_current_tag(const void* frame);

/// True iff the frame is still live with the captured generation.
bool frame_live(const void* frame, std::uint64_t tag);

// --- divergence triage (pure helpers, unit-testable) ----------------

/// Index of the first window where two traces disagree (window id,
/// bounds, event count or hash), or -1 when they match, including in
/// length.
std::ptrdiff_t first_divergent_window(const AuditTrace& a,
                                      const AuditTrace& b);

/// First position at which two canonically sorted capture lists
/// disagree on the partition-stable key (when, origin_when), or -1 when
/// they match.  A position past the shorter list's end means one run
/// executed extra events.
std::ptrdiff_t first_divergent_event(const std::vector<CapturedEvent>& a,
                                     const std::vector<CapturedEvent>& b);

/// Human-readable rendering of one captured event (single line).
std::string format_event(const CapturedEvent& e);

}  // namespace alpu::check
