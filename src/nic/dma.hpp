// DMA engine model.
//
// The NIC has separate Tx and Rx DMA engines (Figure 1).  Each engine
// serves one transfer at a time: a fixed setup cost, then bytes at the
// engine's bandwidth.  Requests queue FIFO when the engine is busy.
// Completion invokes a callback (the firmware enqueues the follow-up
// work from it).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <type_traits>
#include <utility>

#include "common/time.hpp"
#include "sim/engine.hpp"

namespace alpu::nic {

using common::TimePs;

struct DmaConfig {
  TimePs setup_ps = 60'000;  ///< descriptor fetch + engine start (60 ns)
  TimePs ps_per_byte = 500;  ///< 2 GB/s
};

class DmaEngine : public sim::Component {
 public:
  DmaEngine(sim::Engine& engine, std::string name, const DmaConfig& config);

  /// Queue a transfer of `bytes`; `done` fires when the last byte lands.
  /// It must fit EventCallback's inline buffer: a transfer allocates
  /// nothing.
  template <typename F>
  void request(std::uint64_t bytes, F&& done) {
    static_assert(sim::EventCallback::fits_inline<std::decay_t<F>>);
    pending_.push_back(Job{bytes, std::forward<F>(done)});
    if (!busy_) start_next();
  }

 private:
  struct Job {
    std::uint64_t bytes;
    sim::EventCallback done;
  };

  void start_next();

  DmaConfig config_;
  std::deque<Job> pending_;
  /// Completion of the transfer under way, so that its event captures
  /// only `this` (an EventCallback inside a capture would spill).
  sim::EventCallback in_flight_;
  bool busy_ = false;
};

}  // namespace alpu::nic
