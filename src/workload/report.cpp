#include "workload/report.hpp"

#include <sstream>

#include "common/table.hpp"

namespace alpu::workload {

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

void alpu_row(common::TextTable& t, const char* label,
              const hw::Alpu* unit) {
  if (unit == nullptr) {
    t.add_row({label, "-", "-", "-", "-", "-", "-"});
    return;
  }
  const hw::AlpuStats& s = unit->stats();
  t.add_row({label, u64(unit->array().occupancy()),
             u64(s.probes_accepted), u64(s.match_successes),
             u64(s.match_failures), u64(s.inserts), u64(s.held_retries)});
}

}  // namespace

std::string machine_report(mpi::Machine& machine) {
  std::ostringstream out;

  {
    common::TextTable t;
    t.set_header({"node", "rx pkts", "tx pkts", "posted Q", "unexpected Q",
                  "posted walks", "unexpected walks", "completions",
                  "fw busy (us)"});
    for (int r = 0; r < machine.size(); ++r) {
      const nic::NicStats& s = machine.nic(r).stats();
      t.add_row({std::to_string(r), u64(s.packets_rx), u64(s.packets_tx),
                 u64(machine.nic(r).posted_queue_length()),
                 u64(machine.nic(r).unexpected_queue_length()),
                 u64(s.posted_entries_walked),
                 u64(s.unexpected_entries_walked), u64(s.completions),
                 common::fmt_double(common::to_us(s.firmware_busy), 1)});
    }
    out << "--- NIC ---\n" << t.render();
  }

  {
    common::TextTable t;
    t.set_header({"unit", "occupancy", "probes", "successes", "failures",
                  "inserts", "held retries"});
    for (int r = 0; r < machine.size(); ++r) {
      const std::string posted = "node" + std::to_string(r) + ".posted";
      const std::string unexp = "node" + std::to_string(r) + ".unexpected";
      alpu_row(t, posted.c_str(), machine.nic(r).posted_alpu());
      alpu_row(t, unexp.c_str(), machine.nic(r).unexpected_alpu());
    }
    out << "--- ALPU ---\n" << t.render();
  }

  {
    common::TextTable t;
    t.set_header({"node", "L1 accesses", "L1 hit rate", "loads", "stores"});
    for (int r = 0; r < machine.size(); ++r) {
      const auto& l1 = machine.nic(r).memory().l1_stats();
      const auto& m = machine.nic(r).memory().stats();
      t.add_row({std::to_string(r), u64(l1.accesses),
                 common::fmt_double(l1.hit_rate(), 3), u64(m.loads),
                 u64(m.stores)});
    }
    out << "--- NIC memory ---\n" << t.render();
  }

  {
    const net::NetworkStats& s = machine.network().stats();
    common::TextTable t;
    t.set_header({"packets", "payload bytes"});
    t.add_row({u64(s.packets), u64(s.payload_bytes)});
    out << "--- network ---\n" << t.render();
  }

  return out.str();
}

}  // namespace alpu::workload
