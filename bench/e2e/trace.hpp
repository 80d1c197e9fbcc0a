// Host-time spans for the benchmark's traced run.
//
// Spans are recorded only around calls the benchmark itself makes into a
// layer: machine set-up, run_all, the MPI calls inside its rank programs,
// teardown, the correctness checks, and each layer driver.  Nothing inside
// src/ is instrumented.  Spans stay in memory and are written once, at
// exit, as Chrome trace-event JSON together with a per-name self-time
// table.  With no tracer installed a span costs one pointer test, which is
// how the untraced runs that give the end-to-end metrics execute.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  /// Aggregate of every span sharing one name.  Self time is a span's
  /// duration minus the part its children cover.
  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Open a span nested in the innermost open one; returns its id.
  std::int32_t begin(const char* name);
  /// Close span `id`, which must be the innermost open span.
  void end(std::int32_t id);
  /// Drop every recorded span (no span may be open).
  void clear();

  /// Per-name totals, in order of first appearance.
  std::vector<SelfTime> self_times() const;

  /// Write the first `max_events` spans as Chrome trace-event JSON, with
  /// the full self-time table under "selfTime".  False on an I/O error.
  bool write_chrome_json(const std::string& path,
                         std::size_t max_events) const;

 private:
  struct Span {
    const char* name = nullptr;  ///< string literal
    std::int64_t start_ns = 0;   ///< since the tracer's epoch
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;    ///< index of the parent span, -1 for a root
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// The tracer spans record into, or nullptr while tracing is off.
extern Tracer* g_tracer;

/// RAII span around one synchronous call.  Never hold one across a
/// co_await: spans must nest, and a suspended coroutine would interleave.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(g_tracer != nullptr ? g_tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) g_tracer->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t id_;
};

}  // namespace bench
