#include "sim/process.hpp"

#include <memory>

#include "common/check.hpp"

namespace alpu::sim {

std::size_t ProcessPool::spawn_on(Engine& engine, Process p) {
  ALPU_ASSERT(p.valid(), "spawning an invalid (moved-from or done) process");
  auto flag = std::make_unique<bool>(false);
  p.handle_.promise().done_flag = flag.get();
  const auto handle = p.handle_;
  owned_.push_back(std::move(p));
  flags_.push_back(std::move(flag));
  // Kick off at the current time, through the queue so that spawning
  // inside an event callback does not reenter model code immediately.
#if ALPU_AUDIT
  const std::uint64_t tag = check::frame_current_tag(handle.address());
  engine.schedule_in(0, [handle, tag] {
    ALPU_ASSERT(check::frame_live(handle.address(), tag),
                "spawned process destroyed before its kick-off event "
                "(stale capture)");
    handle.resume();
  });
#else
  engine.schedule_in(0, [handle] { handle.resume(); });
#endif
  return owned_.size() - 1;
}

bool ProcessPool::all_done() const {
  for (const auto& f : flags_) {
    if (!*f) return false;
  }
  return true;
}

void Trigger::fire() {
  // Swap out first: a resumed waiter may immediately wait again, and that
  // new wait must not be woken by this same fire.
  std::vector<WaitEntry> current;
  current.swap(waiters_);
  for (const WaitEntry& w : current) {
#if ALPU_AUDIT
    const std::uint64_t tag = check::frame_current_tag(w.handle.address());
    w.engine->schedule_in(0, [h = w.handle, tag] {
      ALPU_ASSERT(check::frame_live(h.address(), tag),
                  "trigger resumed a waiter whose frame was destroyed "
                  "or recycled (stale capture)");
      h.resume();
    });
#else
    w.engine->schedule_in(0, [h = w.handle] { h.resume(); });
#endif
  }
  // Hand the storage back so the next wait() does not allocate.  Nothing
  // can have waited meanwhile: the resumes run from the event queue.
  ALPU_ASSERT(waiters_.empty(), "a process waited while the trigger fired");
  current.clear();
  waiters_.swap(current);
}

}  // namespace alpu::sim
