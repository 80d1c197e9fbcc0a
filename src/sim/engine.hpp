// Discrete-event simulation kernel.
//
// This is the Enkidu substitute described in DESIGN.md: a single-threaded
// component-based DES.  Time advances only through the event queue; all
// model state changes happen inside event callbacks, so no locking is ever
// needed.  Determinism: events at equal timestamps fire in the order they
// were scheduled (a monotone sequence number breaks ties), which makes
// every experiment bit-reproducible from its seed.
//
// Hot-path design (see docs/SIMULATOR.md, "Event pool"):
//
//  * Callbacks are stored in an EventCallback — a small-buffer-optimized
//    move-only callable.  Every capture the simulator's components
//    actually schedule (coroutine handles, `this` pointers, Packet,
//    Completion and HostRequest copies) fits in the inline buffer, so
//    the steady state allocates nothing per event; anything larger falls
//    back to the heap and stays correct.
//
//  * One move per event: schedule_at constructs a lambda directly in its
//    pool slot, and the run loop invokes and destroys it there with one
//    indirect call.  Slot blocks never move, so a callback that grows
//    the pool cannot move its own slot; the slot is released only after
//    the callback returns.
//
//  * Pending events live in a slot pool indexed by the low bits of the
//    EventId; the high bits carry the slot's generation.  Cancellation
//    validates the generation and releases the slot in O(1) — no hash
//    lookup per cancel, no hash probe per pop (the heap item is a 24-byte
//    POD whose staleness is a single generation compare), and cancelling
//    an already-fired id is a true no-op (nothing is remembered forever).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"

#if ALPU_AUDIT
#include "check/audit.hpp"
#endif

namespace alpu::sim {

using common::TimePs;

/// Handle for cancelling a scheduled event.  Encodes {generation, slot}.
using EventId = std::uint64_t;

/// Move-only type-erased `void()` callable with inline storage for the
/// capture sizes the simulator schedules on its hot path.
class EventCallback {
 public:
  /// Sized for the largest hot-path capture: the ~96-byte HostRequest
  /// copy (scheduled once per MPI call by Host::submit and again by the
  /// NIC's doorbell leg) plus `this`.  Coroutine resumes — the dominant
  /// event — use 8 bytes; the wider buffer trades a little slot-pool
  /// memory for keeping every steady-state schedule allocation-free.
  static constexpr std::size_t kInlineBytes = 112;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT: implicit by design (lambda -> callback)
    emplace(std::forward<F>(f));
  }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when an F is stored in the inline buffer, not on the heap.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  /// Invoke the held callable once and destroy it, leaving this empty:
  /// the engine's dispatch, one indirect call per event.  The callable
  /// is destroyed even if it throws.
  void invoke_once() {
    ALPU_DEBUG_ASSERT(ops_ != nullptr, "invoking an empty EventCallback");
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_once(&storage_);
  }

  /// Construct `f` in place in an empty callback.
  template <typename F0>
  void emplace(F0&& f) {
    ALPU_DEBUG_ASSERT(ops_ == nullptr, "emplacing into a full EventCallback");
    using F = std::decay_t<F0>;
    if constexpr (fits_inline<F>) {
      ::new (static_cast<void*>(&storage_)) F(std::forward<F0>(f));
      ops_ = &InlineOps<F>::ops;
    } else {
      // lint: ok(raw-new-delete) — the spill path; see HeapOps.
      ::new (static_cast<void*>(&storage_)) (F*)(new F(std::forward<F0>(f)));
      ops_ = &HeapOps<F>::ops;
    }
  }

  /// Destroy the held callable (releases captured resources eagerly —
  /// used on cancel so a dead timeout does not pin its captures).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke_once)(void* storage);      // invoke, then destroy
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void* storage);
  };

  /// Destroys the callable on scope exit, so invoke_once destroys it
  /// even when it throws.
  template <void (*Destroy)(void*)>
  struct DestroyOnExit {
    void* storage;
    ~DestroyOnExit() { Destroy(storage); }
  };

  template <typename F>
  struct InlineOps {
    static F* get(void* s) { return std::launder(reinterpret_cast<F*>(s)); }
    static void invoke_once(void* s) {
      const DestroyOnExit<&destroy> guard{s};
      (*get(s))();
    }
    static void relocate(void* dst, void* src) {
      F* from = get(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void destroy(void* s) { get(s)->~F(); }
    static constexpr Ops ops{&invoke_once, &relocate, &destroy};
  };

  template <typename F>
  struct HeapOps {
    static F* get(void* s) { return *std::launder(reinterpret_cast<F**>(s)); }
    static void invoke_once(void* s) {
      const DestroyOnExit<&destroy> guard{s};
      (*get(s))();
    }
    static void relocate(void* dst, void* src) {
      ::new (dst) (F*)(get(src));  // the pointer moves; the object stays put
    }
    // lint: ok(raw-new-delete) — this IS the EventCallback heap spill
    // path for oversized captures; everything under kInlineBytes stays
    // in the SBO and never reaches it.
    static void destroy(void* s) { delete get(s); }
    static constexpr Ops ops{&invoke_once, &relocate, &destroy};
  };

  void move_from(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Engine;
class StallWatchdog;

/// Base class for simulation components (NIC, ALPU, network, ...).
///
/// Components register themselves with the engine for the init/finish
/// lifecycle hooks; all interesting behaviour happens via events and
/// clocks they schedule on the engine.
class Component {
 public:
  Component(Engine& engine, std::string name);
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  const std::string& name() const { return name_; }
  Engine& engine() const { return engine_; }

  /// Called by Engine::run() once before the first event fires.
  virtual void init() {}
  /// Called after the simulation finishes (stats flushing).
  virtual void finish() {}

 private:
  Engine& engine_;
  std::string name_;
};

/// The event-driven simulation engine.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.  Only meaningful inside callbacks or after run.
  TimePs now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when` (>= now).  A lambda is
  /// constructed directly in its pool slot; an EventCallback (the
  /// sharded engine's cross-shard outboxes) is moved in.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventId schedule_at(TimePs when, F&& fn) {
    const EventId id = enqueue(when);
    slot(static_cast<std::uint32_t>(id & kSlotMask))
        .fn.emplace(std::forward<F>(fn));
    return id;
  }
  EventId schedule_at(TimePs when, EventCallback fn) {
    const EventId id = enqueue(when);
    slot(static_cast<std::uint32_t>(id & kSlotMask)).fn = std::move(fn);
    return id;
  }

  /// Schedule `fn` to run `delay` after now.
  template <typename F>
  EventId schedule_in(TimePs delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending event in O(1).  Cancelling an already-fired,
  /// already-cancelled, or unknown id is a harmless no-op (models e.g. a
  /// timeout that lost its race) and leaves no residue behind.
  void cancel(EventId id);

  /// Run until the event queue drains or `stop()` is called.
  /// Returns the final simulated time.
  TimePs run();

  /// Run until simulated time would exceed `deadline`; events at exactly
  /// `deadline` still fire.  Unless stop() ended the run early, a finite
  /// deadline leaves now() == deadline, so time passes for components
  /// that compute their state lazily (hw::Alpu) even with no events
  /// queued.  run() leaves now() at the last event.
  TimePs run_until(TimePs deadline);

  /// Conservative-window run: fire every event strictly before `end`,
  /// then return with events at >= `end` left pending.  Unlike run(),
  /// finish hooks never fire (the window loop calls run() once the whole
  /// group drains).  Used by the parallel ShardGroup coordinator.
  TimePs run_window(TimePs end);

  /// Timestamp of the earliest live event, or kTimeNever when none is
  /// pending.  Skims cancelled-event tombstones off the heap top as a
  /// side effect (cheap, and work run_window would do anyway).
  TimePs next_event_time();

  /// Fire the components' init() hooks now if they have not run yet.
  /// run()/run_window() call this implicitly; the ShardGroup coordinator
  /// calls it explicitly so every shard's initial events exist before
  /// the first window is sized.
  void ensure_initialized() { init_components(); }

  /// Request that run() return after the current event completes.
  void stop() { stop_requested_ = true; }

  /// True while an event's callback runs.  Lazily timed components use
  /// it for their tie rule: inside an event at time t, work due at t
  /// has not happened yet; between runs, it has.
  bool dispatching() const { return dispatching_; }

  /// Install a stall watchdog (sim/watchdog.hpp), polled once when
  /// run() reaches quiescence (empty heap, no deadline) just before the
  /// finish hooks.  nullptr (the default) detaches it.  Not owned.
  void set_watchdog(StallWatchdog* watchdog) { watchdog_ = watchdog; }

  /// Number of events executed so far (for kernel benchmarks).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Scheduled events that are still live (not fired, not cancelled).
  std::uint64_t pending_events() const { return live_events_; }

#if ALPU_AUDIT
  /// Install the determinism auditor's per-shard state.  Every scheduled
  /// event is then stamped with provenance and every executed event
  /// checked against the happens-before contracts (check/audit.hpp).
  void set_audit(check::ShardAudit* audit) { audit_ = audit; }
  check::ShardAudit* audit() const { return audit_; }

  /// Overwrite the provenance stamp of a still-pending event: the
  /// ShardGroup merge step annotates cross-shard deliveries with their
  /// canonical key and merge generation after scheduling them.
  void set_event_stamp(EventId id, const check::EventStamp& stamp);
#endif

  /// True if no live events are pending.  Cancelled events never count
  /// (regression: the lazy-cancel scheme compared queue size against a
  /// tombstone set, which drifted once an already-fired id was cancelled).
  bool idle() const { return live_events_ == 0; }

 private:
  friend class Component;

  // EventId layout: low kSlotBits = pool slot index, high 40 bits = the
  // monotone schedule sequence number.  The sequence number does double
  // duty: it is the FIFO tie-break among same-time events, and — because
  // it is never reused — it makes every id unique for the engine's
  // lifetime, so a stale id (fired or cancelled) can never be confused
  // with the slot's current occupant.
  static constexpr unsigned kSlotBits = 24;  // 16.7M concurrent events
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq =
      (std::uint64_t{1} << (64 - kSlotBits)) - 1;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFF'FFFF;

  // Slots live in fixed-size blocks with stable addresses: growing the
  // pool never relocates live callbacks (a measured hotspot with a flat
  // vector once pending-event counts reach the tens of thousands).
  // 512 slots/block keeps the first-touch cost of a fresh Engine small
  // (a two-node machine run uses well under one block) while bounding
  // the block-pointer vector for million-event floods.
  static constexpr unsigned kBlockBits = 9;
  static constexpr std::size_t kSlotsPerBlock = std::size_t{1} << kBlockBits;
  static constexpr std::size_t kBlockMask = kSlotsPerBlock - 1;

  struct Slot {
    EventCallback fn;
    EventId key = 0;  // id of the pending occupant; 0 = free (seq >= 1)
    std::uint32_t next_free = kNoFreeSlot;
#if ALPU_AUDIT
    check::EventStamp stamp;  // provenance of the pending occupant
#endif
  };

  /// 16-byte trivially-copyable heap element: sift operations are plain
  /// copies, and staleness needs no hash lookup (one compare against the
  /// slot's current key).
  struct QueueItem {
    TimePs when;
    EventId id;
  };
  /// Strict total order: ids embed the unique monotone sequence number in
  /// their high bits, so comparing ids compares schedule order, no two
  /// items are equal, and the pop order — and therefore determinism — is
  /// independent of the heap's shape.
  static bool earlier(const QueueItem& a, const QueueItem& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.id < b.id;  // FIFO among same-time events
  }

  Slot& slot(std::uint32_t index) {
    return blocks_[index >> kBlockBits][index & kBlockMask];
  }
  /// Claim a slot and queue its id at `when`; the caller fills the
  /// slot's callback.
  EventId enqueue(TimePs when);
  /// Fire the live event at the heap top in place: the callback runs in
  /// its slot, which is released only after it returns.
  void dispatch_top(const QueueItem& top, Slot& s);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index) {
    Slot& s = slot(index);
    s.key = 0;
    s.next_free = free_head_;
    free_head_ = index;
  }

  // 8-ary min-heap with hole percolation: a third the depth of a binary
  // heap, with each child group spanning two consecutive cache lines —
  // the pop path is memory bound at large pending-event counts, and the
  // shallower, denser layout measurably beats both binary and 4-ary here.
  void heap_push(const QueueItem& item);
  void heap_pop();
  /// Structural invariant (ALPU_CHECKED builds): the heap property holds
  /// over the whole queue.
  bool heap_ordered() const;

  void init_components();
  void finish_components();

  TimePs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<QueueItem> heap_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::uint64_t live_events_ = 0;
  std::vector<Component*> components_;
  bool components_initialized_ = false;
  bool stop_requested_ = false;
  bool dispatching_ = false;
  StallWatchdog* watchdog_ = nullptr;
  std::uint64_t events_executed_ = 0;
#if ALPU_AUDIT
  check::ShardAudit* audit_ = nullptr;
#endif
};

}  // namespace alpu::sim
