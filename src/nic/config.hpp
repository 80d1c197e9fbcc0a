// NIC configuration: Table III parameters plus firmware cost model.
//
// The embedded processor is modelled by charging cycle costs per
// abstract firmware operation, with all queue-entry traffic going
// through the simulated L1 (see DESIGN.md, substitution table).  The
// cycle constants below were calibrated so the baseline reproduces the
// paper's measured traversal costs: ~15 ns per posted-queue entry while
// the queue fits in the 32 KB cache and ~64 ns per entry once it spills.
#pragma once

#include <cstdint>
#include <optional>

#include "alpu/alpu.hpp"
#include "common/time.hpp"
#include "mem/memory_system.hpp"
#include "nic/dma.hpp"
#include "nic/reliability.hpp"

namespace alpu::nic {

using common::TimePs;

/// Per-operation firmware instruction budgets (cycles at the NIC clock).
struct FirmwareCosts {
  std::uint32_t loop_overhead_cycles = 10;   ///< per iteration with work
  std::uint32_t parse_packet_cycles = 20;
  std::uint32_t per_entry_cycles = 5;        ///< list-walk work per entry
  std::uint32_t append_entry_cycles = 25;    ///< build + link a queue entry
  std::uint32_t erase_entry_cycles = 15;     ///< unlink + free
  std::uint32_t post_recv_cycles = 30;       ///< decode a post-recv request
  std::uint32_t send_setup_cycles = 30;      ///< decode + stage a send
  std::uint32_t delivery_setup_cycles = 25;  ///< program a delivery DMA
  std::uint32_t rendezvous_cycles = 20;      ///< CTS/RTS protocol step
  std::uint32_t alpu_cmd_cycles = 5;         ///< prepare one ALPU command
  std::uint32_t alpu_poll_cycles = 12;       ///< bookkeeping per result read
  /// Bus transactions per result retrieval (status read + result word +
  /// tag word over the 32-bit local bus).
  std::uint32_t alpu_result_bus_reads = 3;
};

/// How the firmware uses an attached ALPU (Section IV-B heuristics).
struct AlpuUsePolicy {
  /// Start moving the queue into the ALPU once it is at least this long.
  /// The paper notes break-even near 5 entries; its experiments use the
  /// ALPU unconditionally (threshold 0), so that is the default.
  std::size_t insert_threshold = 0;
  /// Cap on inserts per START/STOP INSERT session (batching bound).
  std::size_t max_batch = 256;
  /// Section IV-B: "the software ... should attempt to conglomerate
  /// insertions".  While the firmware has other work, it defers an
  /// insert session until at least this many entries are pending,
  /// amortising the START/ACK/STOP handshake; once idle it syncs any
  /// remainder regardless.  1 == sync eagerly (the paper's behaviour).
  std::size_t min_batch = 1;
};

/// Which unit model backs the attached ALPUs.  The two models are
/// response-stream equivalent (differentially tested); the pipelined
/// model adds RTL-level compaction/bubble fidelity at some simulation
/// cost, and serves as a system-level cross-check.
enum class AlpuModelKind : std::uint8_t {
  kTransaction,
  kPipelined,
};

struct NicConfig {
  /// NIC processor clock (Table III: 500 MHz).
  common::ClockPeriod clock = common::ClockPeriod::from_mhz(500);

  /// Local bus transaction latency (Section V-B: 20 ns).
  TimePs bus_ps = 20'000;

  /// Host doorbell write (request reaching NIC SRAM) and completion
  /// visibility (NIC write reaching the polling host) latencies.
  TimePs doorbell_ps = 150'000;
  TimePs completion_ps = 150'000;

  /// NIC memory system (Table III: 32 KB 64-way L1, 64 B lines; 30-32
  /// cycle latency to local memory — 31 cycles = 62 ns at 500 MHz).
  mem::MemorySystemConfig memory{
      .l1 = {.size_bytes = 32 * 1024, .line_bytes = 64, .ways = 64},
      .l1_hit_ps = 4'000,
      // Effective line-fill cost beyond the L1 hit charge; together they
      // land the paper's ~64 ns out-of-cache per-entry asymptote.
      .backend_ps = 50'000,
  };

  // Queue entries occupy two cache lines of NIC memory: a slot in a
  // dense array of match lines (the only line touched while walking the
  // list) and a separate request-state line touched on append and on
  // match — 128 B of cache footprint per entry, which puts the paper's
  // cache-exhaustion knee near 32 KB / 128 B = 256 entries.

  /// Messages up to this size travel eagerly; larger ones rendezvous.
  std::uint32_t eager_threshold = 16 * 1024;

  /// Receiver-side eager-resource budget.  Zero means unlimited (the
  /// paper's idealised NIC, and byte-identical to the pre-budget
  /// simulator); nonzero bounds what an incast can pin on the receiver
  /// and turns exhaustion into an RNR-NACK protocol event handled by the
  /// reliability sublayer — so nonzero budgets require
  /// `reliability.enabled` (asserted at machine build).  Occupancy and
  /// peaks are tracked in NicStats even when unlimited.
  std::uint64_t eager_pool_bytes = 0;  ///< bytes of staged eager payload
  std::uint32_t unexpected_slots = 0;  ///< staged eager/RTS envelope slots

  /// Tx and Rx DMA engines share one parameterisation.
  DmaConfig dma;

  /// Link-reliability sublayer (go-back-N).  Disabled by default: the
  /// clean-path packet schedule is then byte-identical to a NIC without
  /// the sublayer.  Must be enabled whenever the network injects faults.
  ReliabilityConfig reliability;

  FirmwareCosts costs;

  /// ALPU attachments.  Disabled (nullopt) reproduces the baseline NIC.
  std::optional<hw::AlpuConfig> posted_alpu;
  std::optional<hw::AlpuConfig> unexpected_alpu;
  AlpuUsePolicy alpu_policy;
  AlpuModelKind alpu_model = AlpuModelKind::kTransaction;

  /// Transient-fault model applied to every attached ALPU.  The NIC
  /// derives an independent injector stream per unit (node id and
  /// flavour folded into `seu.seed`).  Default (`seu.any() == false`)
  /// installs nothing — the zero-rate path is byte-identical.
  /// Requires the transaction-level model (asserted at unit build).
  hw::SeuConfig seu;
};

}  // namespace alpu::nic
