// Bounded model checker for the ALPU implementations.
//
// Exhaustively enumerates every protocol-legal operation sequence up to
// a configurable depth on a small array (the classic small-scope
// hypothesis: list-management bugs — compaction off-by-ones, held-probe
// ordering, mode-transition races — all manifest within a handful of
// cells and operations) and cross-checks each implementation against
// the executable specification in spec.hpp after every step:
//
//   datapath tier    hw::AlpuArray against ListSpec — every insert
//                    result, probe answer (both the linear scan and the
//                    priority-mux tree), sweep count, and the full
//                    post-step cell state;
//
//   protocol tier    hw::Alpu and hw::PipelinedAlpu against
//                    ProtocolSpec — each op is pushed, the simulation
//                    runs to quiescence, and the drained response
//                    stream plus the logical cell order must equal the
//                    spec's.
//
// Iterative deepening (depth 1, 2, ... D) guarantees the first failing
// sequence is length-minimal; a greedy shrink pass then drops every op
// that is not needed to reproduce the divergence, so what gets printed
// is a minimal counterexample trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/spec.hpp"

namespace alpu::check {

/// Which implementation a check run targets.  Value 1 is retired, not
/// reused: the parameterised test names print these values.
enum class ImplKind : std::uint8_t {
  kArray = 0,        ///< hw::AlpuArray (SoA production engine) vs ListSpec
  kTransaction = 2,  ///< hw::Alpu (transaction-level) vs ProtocolSpec
  kPipelined = 3,    ///< hw::PipelinedAlpu (stage-level RTL) vs ProtocolSpec
};

const char* to_string(ImplKind impl);
const char* to_string(AlpuFlavor flavor);

struct CheckOptions {
  std::size_t depth = 6;  ///< maximum operation-sequence length
  std::size_t cells = 4;  ///< array capacity (keep small; state space!)
  std::size_t block = 2;  ///< block size (must divide cells, power of 2)
  /// Include OpKind::kCorrupt in the alphabet: parity protection is
  /// installed, deterministic single-bit flips are interleaved with the
  /// protocol ops, and the spec demands detection (PARITY FAULT per
  /// probe) followed by full recovery at kReset.  Only meaningful for
  /// the implementations that carry the fault model (kArray datapath,
  /// kTransaction protocol); ignored elsewhere.
  bool faults = false;
};

struct CheckResult {
  ImplKind impl = ImplKind::kArray;
  AlpuFlavor flavor = AlpuFlavor::kPostedReceive;
  bool ok = false;
  std::uint64_t sequences = 0;    ///< operation sequences replayed
  std::uint64_t ops_applied = 0;  ///< total ops applied across replays
  /// On failure: the shrunk minimal trace (cookies/seqs as replayed)
  /// and a description of the first divergence it produces.
  std::vector<Op> counterexample;
  std::string divergence;
};

/// Exhaustively check one implementation/flavour pair.
CheckResult check_impl(ImplKind impl, AlpuFlavor flavor,
                       const CheckOptions& options);

/// Human-readable counterexample trace ("step 1: insert ...").
std::string format_counterexample(const CheckResult& result);

}  // namespace alpu::check
