#include "sim/engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "sim/watchdog.hpp"

namespace alpu::sim {

Component::Component(Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {
  engine_.components_.push_back(this);
}

Component::~Component() {
  auto& v = engine_.components_;
  v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t index = free_head_;
    Slot& s = slot(index);
    free_head_ = s.next_free;
    s.next_free = kNoFreeSlot;
    return index;
  }
  ALPU_ASSERT(slot_count_ < kSlotMask, "too many concurrent events");
  if ((slot_count_ & kBlockMask) == 0) {
    // Default-initialised: a callback buffer is first written by emplace.
    blocks_.push_back(std::make_unique_for_overwrite<Slot[]>(kSlotsPerBlock));
  }
  return slot_count_++;
}

void Engine::heap_push(const QueueItem& item) {
  heap_.push_back(item);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) >> 3;
    if (!earlier(item, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = item;
  ALPU_INVARIANT(heap_ordered(), "heap_push broke the event-heap order");
}

bool Engine::heap_ordered() const {
  // 8-ary min-heap property: no child fires before its parent.  The
  // strict total order on (when, id) makes this the full determinism
  // guarantee — pop order is forced, whatever the heap's shape.
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    if (earlier(heap_[i], heap_[(i - 1) >> 3])) return false;
  }
  return true;
}

void Engine::heap_pop() {
  const QueueItem last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first_child = (hole << 3) + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t limit = std::min(first_child + 8, n);
    for (std::size_t c = first_child + 1; c < limit; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  ALPU_INVARIANT(heap_ordered(), "heap_pop broke the event-heap order");
}

EventId Engine::enqueue(TimePs when) {
  ALPU_ASSERT(when >= now_, "cannot schedule into the past");
  ALPU_ASSERT(next_seq_ < kMaxSeq, "sequence space exhausted");
  const std::uint32_t index = acquire_slot();
  Slot& s = slot(index);
#if ALPU_AUDIT
  s.stamp = audit_ != nullptr ? audit_->make_stamp(now_) : check::EventStamp{};
#endif
  const EventId id = (next_seq_++ << kSlotBits) | index;
  s.key = id;
  heap_push(QueueItem{when, id});
  ++live_events_;
  return id;
}

void Engine::dispatch_top(const QueueItem& top, Slot& s) {
  heap_pop();
  // Clear the key before the call, so the callback cancelling its own
  // id is a no-op, and release the slot only after it: until then no
  // schedule can reuse it, and blocks never move, so `s` stays valid
  // however much the callback grows the pool.
  s.key = 0;
  --live_events_;
  now_ = top.when;
  ++events_executed_;
#if ALPU_AUDIT
  if (audit_ != nullptr) audit_->on_execute(top.when, s.stamp);
#endif
  s.fn.invoke_once();
  release_slot(static_cast<std::uint32_t>(top.id & kSlotMask));
}

void Engine::cancel(EventId id) {
  const std::uint32_t index = static_cast<std::uint32_t>(id & kSlotMask);
  if (index >= slot_count_) return;  // never-issued id
  Slot& s = slot(index);
  if (s.key != id) return;           // fired, already cancelled, or unknown
  // O(1) cancel: drop the callback and recycle the slot.  The heap item
  // stays behind as a 16-byte tombstone and is skipped on pop by the key
  // compare (sequence numbers are never reused, so it can't false-match).
  s.fn.reset();
  release_slot(index);
  --live_events_;
}

#if ALPU_AUDIT
void Engine::set_event_stamp(EventId id, const check::EventStamp& stamp) {
  const std::uint32_t index = static_cast<std::uint32_t>(id & kSlotMask);
  ALPU_ASSERT(index < slot_count_ && slot(index).key == id,
              "stamping an event that is not pending");
  slot(index).stamp = stamp;
}
#endif

void Engine::init_components() {
  if (components_initialized_) return;
  components_initialized_ = true;
  for (Component* c : components_) c->init();
}

void Engine::finish_components() {
  for (Component* c : components_) c->finish();
}

TimePs Engine::run() { return run_until(common::kTimeNever); }

TimePs Engine::next_event_time() {
  while (!heap_.empty()) {
    const QueueItem top = heap_.front();
    const std::uint32_t index = static_cast<std::uint32_t>(top.id & kSlotMask);
    if (slot(index).key == top.id) return top.when;
    heap_pop();  // tombstone of a cancelled event
  }
  return common::kTimeNever;
}

TimePs Engine::run_window(TimePs end) {
  init_components();
  dispatching_ = true;
  while (!heap_.empty()) {
    const QueueItem top = heap_.front();
    const std::uint32_t index = static_cast<std::uint32_t>(top.id & kSlotMask);
    Slot& s = slot(index);
    if (s.key != top.id) {
      heap_pop();
      continue;
    }
    // Strict bound: an event at exactly `end` belongs to the next window
    // (the coordinator sized this window so no cross-shard influence can
    // land before `end`, not at it).
    if (top.when >= end) break;
    dispatch_top(top, s);
  }
  dispatching_ = false;
  return now_;
}

TimePs Engine::run_until(TimePs deadline) {
  init_components();
  stop_requested_ = false;
  dispatching_ = true;
  while (!heap_.empty() && !stop_requested_) {
    const QueueItem top = heap_.front();  // trivially-copyable, cheap
    const std::uint32_t index = static_cast<std::uint32_t>(top.id & kSlotMask);
    Slot& s = slot(index);
    if (s.key != top.id) {
      heap_pop();  // tombstone of a cancelled event
      continue;
    }
    if (top.when > deadline) break;
    dispatch_top(top, s);
  }
  dispatching_ = false;
  if (deadline != common::kTimeNever) {
    // Time reaches the deadline even with nothing queued at it.
    if (!stop_requested_ && deadline > now_) now_ = deadline;
    return now_;
  }
  if (heap_.empty()) {
    // Quiescent with no deadline: the run is over.  Let an installed
    // watchdog inspect for undrained protocol work before the finish
    // hooks flush stats (the components are still fully intact here).
    if (watchdog_ != nullptr) watchdog_->on_quiescent(now_);
    finish_components();
  }
  return now_;
}

}  // namespace alpu::sim
