// Host (main) processor model.
//
// In the modelled system the application processor only dispatches
// message requests to the NIC and waits for completion (Section V-C).
// The Host charges a small dispatch cost at its own (2 GHz, Table III)
// clock, rings the NIC doorbell across the host bus, and exposes an
// awaitable completion interface that MPI request objects build on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/dense.hpp"
#include "common/time.hpp"
#include "mem/memory_system.hpp"
#include "nic/host_protocol.hpp"
#include "nic/nic.hpp"
#include "sim/process.hpp"

namespace alpu::host {

using common::TimePs;

struct HostConfig {
  /// Application-processor clock (Table III: 2 GHz).
  common::ClockPeriod clock = common::ClockPeriod::from_ghz(2);
  /// Library-side cycles to build and dispatch one request descriptor.
  std::uint32_t request_cycles = 160;  ///< 80 ns at 2 GHz
  /// Library-side cycles to reap one completion record.
  std::uint32_t completion_cycles = 100;  ///< 50 ns at 2 GHz

  /// Host memory hierarchy (Table III: 64 KB 2-way L1, 512 KB L2,
  /// 85-90 cycles to main memory — a constant controller portion plus
  /// the open-row DRAM timing).  The host's only memory traffic is its
  /// two 64-record rings, and the constructor checks that the L1 holds
  /// both, so every access costs `l1_hit_ps`.  The L2 and DRAM fields
  /// describe Table III; that check proves no ring access reaches them.
  mem::MemorySystemConfig memory{
      .l1 = {.size_bytes = 64 * 1024, .line_bytes = 64, .ways = 2},
      .l1_hit_ps = 1'000,  // 2 cycles at 2 GHz
      .l2 = mem::CacheConfig{.size_bytes = 512 * 1024,
                             .line_bytes = 64,
                             .ways = 8},
      .l2_hit_ps = 6'000,  // 12 cycles
      .backend_ps = 12'000,  // controller/bus; DRAM timing adds the rest
      .use_dram = true,
      .dram = {},
  };
};

/// State of one outstanding request (shared with MPI request handles).
struct Pending {
  bool done = false;
  nic::Completion completion;
  sim::Trigger on_done;
};

using PendingHandle = std::shared_ptr<Pending>;

class Host : public sim::Component {
 public:
  Host(sim::Engine& engine, std::string name, nic::Nic& nic,
       const HostConfig& config);

  /// Dispatch a request to the NIC.  Returns the handle the caller
  /// awaits; the descriptor reaches NIC SRAM one doorbell latency after
  /// the dispatch cost has been charged.
  PendingHandle submit(nic::HostRequest request);

  /// Await completion of `handle`, charging the reap cost on wake.
  sim::Process wait(PendingHandle handle);

  /// Allocate a host buffer address (bump allocation in host DRAM).
  mem::Addr alloc_buffer(std::uint64_t bytes) {
    return buffers_.alloc(bytes, 64);
  }

  /// Requests completed so far (for tests).
  std::uint64_t completions_seen() const { return completions_seen_; }

 private:
  void on_completion(const nic::Completion& completion);

  HostConfig config_;
  nic::Nic& nic_;
  mem::SimHeap buffers_;
  /// Outstanding requests by req_id: pooled flat map, so the steady
  /// submit/complete churn recycles slots instead of allocating nodes.
  common::FlatMap<std::uint64_t, PendingHandle> pending_;
  std::uint64_t next_req_id_ = 1;
  std::uint64_t completions_seen_ = 0;
};

}  // namespace alpu::host
