#include "host/host.hpp"

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace alpu::host {

namespace {

/// True when no set of `l1` receives more lines of the MPI library's
/// request and completion rings (64 records, 64 bytes apart) than it has
/// ways: both rings then stay resident, and every record access hits.
bool rings_fit(const mem::CacheConfig& l1) {
  const std::size_t line_bytes = l1.line_bytes;
  ALPU_ASSERT(line_bytes > 0 && l1.ways > 0 && l1.num_sets() > 0,
              "host L1 has no sets");
  std::vector<std::uint8_t> in_set(l1.num_sets(), 0);  // 128 lines at most
  for (const mem::Addr ring : {0xF000'0000, 0xF800'0000}) {
    // Step through the records carrying the current line's set and the
    // offset in it: a 64-bit division per record was four times slower.
    std::size_t set = ring / line_bytes % in_set.size();
    mem::Addr offset = ring % line_bytes;
    bool new_line = true;
    for (int k = 0; k < 64; ++k, offset += 64) {
      for (; offset >= line_bytes; offset -= line_bytes) {
        if (++set == in_set.size()) set = 0;
        new_line = true;
      }
      if (new_line && ++in_set[set] > l1.ways) return false;
      new_line = false;
    }
  }
  return true;
}

}  // namespace

Host::Host(sim::Engine& engine, std::string name, nic::Nic& nic,
           const HostConfig& config)
    : sim::Component(engine, std::move(name)),
      config_(config),
      nic_(nic),
      buffers_(0x8000'0000) {
  // The rings are the host's only memory traffic, and warm: while the
  // L1 holds both, each record access costs an L1 hit.
  ALPU_ASSERT(rings_fit(config_.l1),
              "host L1 cannot hold both 64-record rings");
  nic_.set_completion_handler(
      [this](const nic::Completion& c) { on_completion(c); });
}

PendingHandle Host::submit(nic::HostRequest request) {
  request.req_id = next_req_id_++;
  auto handle = std::make_shared<Pending>();
  pending_[request.req_id] = handle;
  // Build the descriptor in its request-ring record, charge the dispatch
  // cost, then the doorbell write crosses the host bus; the NIC sees the
  // descriptor at now + dispatch + doorbell.
  const TimePs dispatch = config_.clock.cycles(config_.request_cycles) +
                          config_.l1_hit_ps;
  const TimePs doorbell = nic_.config().doorbell_ps;
  engine().schedule_in(dispatch + doorbell, [this, request] {
    nic_.host_submit(request);
  });
  return handle;
}

sim::Process Host::wait(PendingHandle handle) {
  ALPU_ASSERT(handle != nullptr, "waiting on a null pending handle");
  while (!handle->done) {
    co_await handle->on_done.wait(engine());
  }
  // Reap cost: read the completion record the NIC wrote into its ring.
  co_await sim::delay(engine(),
                      config_.clock.cycles(config_.completion_cycles) +
                          config_.l1_hit_ps);
}

void Host::on_completion(const nic::Completion& completion) {
  ++completions_seen_;
  PendingHandle* found = pending_.find(completion.req_id);
  ALPU_ASSERT(found != nullptr, "completion for unknown request");
  PendingHandle handle = *found;
  pending_.erase(completion.req_id);
  handle->completion = completion;
  handle->done = true;
  handle->on_done.fire();
}

}  // namespace alpu::host
