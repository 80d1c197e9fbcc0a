// Coroutine-based simulated processes.
//
// MPI rank programs and host-side drivers read naturally as sequential
// code ("send, then wait, then compute") even though they execute inside
// a discrete-event simulation.  C++20 coroutines provide exactly that:
// a Process suspends at `co_await` points (delays, triggers, child
// processes) and the engine resumes it when the awaited event fires.
//
//   sim::Process ping(Ctx& ctx) {
//     co_await ctx.mpi.send(...);   // suspends until send completes
//     co_await sim::delay(ctx.engine, 10_ns);
//   }
//   engine.spawn(ping(ctx));
#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

#if ALPU_AUDIT
#include "check/audit.hpp"
#include "common/check.hpp"
#endif

namespace alpu::sim {

namespace detail {

// Coroutine frames churn at protocol rate (every modelled request,
// packet and delivery spawns one), and the default frame allocation is
// a malloc/free round trip per spawn.  This pool recycles frames in
// 64-byte size classes through thread-local LIFO free lists — each
// ShardGroup worker owns its lists, so no locks and no cross-thread
// ordering enters the simulation.  Under sanitizers the pool is
// bypassed: retained free-list blocks on exited shard threads would
// otherwise read as leaks.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ALPU_POOL_COROUTINE_FRAMES 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ALPU_POOL_COROUTINE_FRAMES 0
#else
#define ALPU_POOL_COROUTINE_FRAMES 1
#endif
#else
#define ALPU_POOL_COROUTINE_FRAMES 1
#endif

class FramePool {
 public:
  static void* allocate(std::size_t n) {
#if ALPU_AUDIT
    void* out = allocate_impl(n);
    check::frame_register(out);  // stale-capture generation tag
    return out;
#else
    return allocate_impl(n);
#endif
  }

  static void release(void* p, std::size_t n) noexcept {
#if ALPU_AUDIT
    check::frame_retire(p);
#endif
    release_impl(p, n);
  }

 private:
  static void* allocate_impl(std::size_t n) {
#if ALPU_POOL_COROUTINE_FRAMES
    const std::size_t bucket = (n + 63) >> 6;
    if (bucket < kBuckets) {
      void*& head = lists_[bucket];
      if (head != nullptr) {
        void* out = head;
        head = *static_cast<void**>(out);
        return out;
      }
      return ::operator new(bucket << 6);
    }
#endif
    return ::operator new(n);
  }

  static void release_impl(void* p, [[maybe_unused]] std::size_t n) noexcept {
#if ALPU_POOL_COROUTINE_FRAMES
    const std::size_t bucket = (n + 63) >> 6;
    if (bucket < kBuckets) {
      *static_cast<void**>(p) = lists_[bucket];
      lists_[bucket] = p;
      return;
    }
#endif
    ::operator delete(p);
  }

 private:
  static constexpr std::size_t kBuckets = 17;  ///< frames up to 1 KiB pooled
  // lint: ok(mutable-static) — thread-confined by construction: each
  // shard thread recycles only frames it allocated (coroutines never
  // migrate shards), so the free lists are private per thread and
  // cannot order cross-shard behaviour.
  static thread_local inline void* lists_[kBuckets];
};

}  // namespace detail

/// A lazily-started coroutine representing simulated sequential activity.
///
/// A Process may be either spawned as a root activity on the engine
/// (Engine-independent: `spawn(engine, std::move(p))`) or awaited from
/// another Process (structured nesting, e.g. MPI_Send = Isend + Wait).
class [[nodiscard]] Process {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;  // resumed at final suspend
    bool* done_flag = nullptr;             // optional external completion flag

    // Route frame allocation through the recycling pool (the sized
    // delete is guaranteed: frames always destroy via handle.destroy()).
    static void* operator new(std::size_t n) {
      return detail::FramePool::allocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      detail::FramePool::release(p, n);
    }

    Process get_return_object() {
      return Process{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto& p = h.promise();
        if (p.done_flag != nullptr) *p.done_flag = true;
        return p.continuation ? p.continuation : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };

  Process() = default;
  explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Process(Process&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Process() { destroy(); }

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a Process runs it to completion, then resumes the awaiter
  /// (symmetric transfer; no engine round-trip for the handoff).
  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    handle_.promise().continuation = cont;
    return handle_;
  }
  void await_resume() const noexcept {}

 private:
  friend class ProcessPool;

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Owns root processes spawned onto an engine and tears them down safely.
///
/// The pool must outlive the engine run; destroying the pool destroys any
/// still-suspended coroutines (e.g. after Engine::stop()).
class ProcessPool {
 public:
  explicit ProcessPool(Engine& engine) : engine_(engine) {}

  /// Start `p` as a root activity at the current simulation time.
  /// Returns an index usable with `done(i)`.
  std::size_t spawn(Process p) { return spawn_on(engine_, std::move(p)); }

  /// Start `p` on a specific engine (a shard of a ShardGroup).  The pool
  /// still owns the coroutine; it only kicks off — and thereafter runs —
  /// on `engine`'s thread.
  std::size_t spawn_on(Engine& engine, Process p);

  /// True once the i-th spawned process has run to completion.
  bool done(std::size_t i) const { return flags_[i] != nullptr && *flags_[i]; }

  /// True when every spawned process has completed.
  bool all_done() const;

  std::size_t size() const { return owned_.size(); }

 private:
  Engine& engine_;
  std::vector<Process> owned_;
  std::vector<std::unique_ptr<bool>> flags_;
};

/// Awaitable that suspends the current process for `d` picoseconds.
/// A zero delay still yields through the event queue (models "end of
/// this delta cycle" and keeps ordering deterministic).
struct DelayAwaiter {
  Engine& engine;
  common::TimePs d;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
#if ALPU_AUDIT
    // Tag the frame's generation at capture time; if the frame is
    // destroyed (or recycled by a new coroutine) before the delay
    // fires, the resume would be a use-after-free — catch it instead.
    const std::uint64_t tag = check::frame_current_tag(h.address());
    engine.schedule_in(d, [h, tag] {
      ALPU_ASSERT(check::frame_live(h.address(), tag),
                  "delay resumed a coroutine whose frame was destroyed "
                  "or recycled (stale capture)");
      h.resume();
    });
#else
    engine.schedule_in(d, [h] { h.resume(); });
#endif
  }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(Engine& engine, common::TimePs d) {
  return DelayAwaiter{engine, d};
}

/// A broadcast condition variable for processes.
///
/// Processes `co_await trigger.wait(engine)`; `fire()` resumes every
/// waiter (through the event queue, preserving determinism).  There is no
/// implicit predicate: callers re-check their condition after waking, in
/// the usual condition-variable loop style.
class Trigger {
 public:
  struct Awaiter {
    Trigger& trigger;
    Engine& engine;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      trigger.waiters_.push_back(WaitEntry{&engine, h});
    }
    void await_resume() const noexcept {}
  };

  Awaiter wait(Engine& engine) { return Awaiter{*this, engine}; }

  /// Resume all current waiters at the present simulation time.
  /// Waiters added during fire() (re-waits) are not woken by this call.
  void fire();

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  struct WaitEntry {
    Engine* engine;
    std::coroutine_handle<> handle;
  };
  std::vector<WaitEntry> waiters_;
};

}  // namespace alpu::sim
