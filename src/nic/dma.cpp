#include "nic/dma.hpp"

namespace alpu::nic {

DmaEngine::DmaEngine(sim::Engine& engine, std::string name,
                     const DmaConfig& config)
    : sim::Component(engine, std::move(name)), config_(config) {}

void DmaEngine::start_next() {
  if (pending_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  const std::uint64_t bytes = pending_.front().bytes;
  in_flight_ = std::move(pending_.front().done);
  pending_.pop_front();
  const TimePs duration = config_.setup_ps + bytes * config_.ps_per_byte;
  engine().schedule_in(duration, [this] {
    in_flight_.invoke_once();
    start_next();
  });
}

}  // namespace alpu::nic
