// Quickstart: drive a standalone ALPU through its command protocol.
//
// This is the smallest complete use of the library: instantiate the
// cycle-level Associative List Processing Unit, load it with posted
// receives through the Table I command set (START INSERT -> ACK ->
// INSERT... -> STOP INSERT), and feed it incoming message headers,
// observing the Table II responses and the MPI ordering semantics
// (oldest matching entry wins; matches consume their entry).
#include <cstdio>

#include "alpu/alpu.hpp"
#include "sim/engine.hpp"

using namespace alpu;

namespace {

/// Pump the simulation until the unit produces a response.
hw::Response await_response(sim::Engine& engine, hw::Alpu& unit) {
  while (!unit.result_available()) {
    engine.run_until(engine.now() + unit.config().clock.period());
  }
  return *unit.pop_result();
}

const char* kind_name(hw::ResponseKind kind) {
  switch (kind) {
    case hw::ResponseKind::kStartAck: return "START ACKNOWLEDGE";
    case hw::ResponseKind::kMatchSuccess: return "MATCH SUCCESS";
    case hw::ResponseKind::kMatchFailure: return "MATCH FAILURE";
    case hw::ResponseKind::kParityFault: return "PARITY FAULT";
  }
  return "?";
}

void show(const char* what, const hw::Response& r, common::TimePs t0) {
  std::printf("  %-28s -> %-17s", what, kind_name(r.kind));
  if (r.kind == hw::ResponseKind::kStartAck) {
    std::printf(" free=%u", r.free_slots);
  }
  if (r.kind == hw::ResponseKind::kMatchSuccess) {
    std::printf(" tag=0x%x", r.cookie);
  }
  std::printf("   (t=%.0f ns)\n", common::to_ns(r.issued_at - t0));
}

}  // namespace

int main() {
  std::printf("ALPU quickstart: a 16-cell posted-receive match unit\n\n");

  sim::Engine engine;
  hw::AlpuConfig config;
  config.flavor = hw::AlpuFlavor::kPostedReceive;
  config.total_cells = 16;
  config.block_size = 8;
  config.clock = common::ClockPeriod::from_mhz(500);  // ASIC speed
  hw::Alpu unit(engine, "alpu", config);

  // ---- load three posted receives --------------------------------------
  // ctx 0 / src 3 / tag 7 (exact), ctx 0 / ANY src / tag 7 (wildcard),
  // ctx 0 / src 5 / ANY tag (wildcard).
  std::printf("Insert session (Table I commands):\n");
  const common::TimePs t0 = engine.now();
  (void)unit.push_command({hw::CommandKind::kStartInsert, 0, 0, 0});
  show("START INSERT", await_response(engine, unit), t0);

  const auto exact = match::make_recv_pattern(0, 3, 7);
  const auto any_src = match::make_recv_pattern(0, std::nullopt, 7);
  const auto any_tag = match::make_recv_pattern(0, 5, std::nullopt);
  (void)unit.push_command(
      {hw::CommandKind::kInsert, exact.bits, exact.mask, 0xAAA});
  (void)unit.push_command(
      {hw::CommandKind::kInsert, any_src.bits, any_src.mask, 0xBBB});
  (void)unit.push_command(
      {hw::CommandKind::kInsert, any_tag.bits, any_tag.mask, 0xCCC});
  (void)unit.push_command({hw::CommandKind::kStopInsert, 0, 0, 0});
  while (!unit.idle()) {  // the unit sleeps once the session is done
    engine.run_until(engine.now() + config.clock.period());
  }
  std::printf("  3 x INSERT + STOP INSERT    (array now holds %zu entries)\n\n",
              unit.array().occupancy());

  // ---- probe with incoming headers --------------------------------------
  std::printf("Incoming headers (oldest matching entry must win):\n");
  auto probe = [&](std::uint32_t src, std::uint32_t tag, const char* note) {
    (void)unit.push_probe(
        {match::pack(match::Envelope{0, src, tag}), 0, 0});
    char label[64];
    std::snprintf(label, sizeof label, "{src=%u tag=%u} %s", src, tag, note);
    show(label, await_response(engine, unit), t0);
  };

  // Matches BOTH the exact entry (0xAAA) and the any-src entry (0xBBB);
  // the exact one is older, so MPI ordering demands 0xAAA.
  probe(3, 7, "(exact beats younger wildcard)");
  // The exact entry was consumed: the same header now hits the wildcard.
  probe(3, 7, "(entry consumed; wildcard now)");
  // Tag wildcard from source 5.
  probe(5, 999, "(ANY_TAG entry)");
  // Nothing left that matches.
  probe(3, 7, "(array has no match left)");

  std::printf("\nOccupancy after the session: %zu (every success deleted "
              "its entry)\n", unit.array().occupancy());
  std::printf("\nNext steps: examples/ping_pong.cpp runs the full simulated\n"
              "machine; bench/ regenerates the paper's tables and figures.\n");
  return 0;
}
