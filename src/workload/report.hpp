// Machine-state reporting: render every component's counters as tables.
//
// Experiments usually want one latency number, but debugging a model
// (or explaining a result) wants the whole picture: what each NIC
// walked, hit, inserted, cached, and moved.  `machine_report` renders
// that for all nodes.
#pragma once

#include <string>

#include "mpi/mpi.hpp"

namespace alpu::workload {

/// Render a full per-node report (NIC, ALPUs, caches, network).
std::string machine_report(mpi::Machine& machine);

}  // namespace alpu::workload
