#include "check/checker.hpp"

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <type_traits>
#include <utility>

#include "alpu/alpu.hpp"
#include "alpu/array.hpp"
#include "alpu/pipelined.hpp"
#include "common/check.hpp"
#include "sim/engine.hpp"

namespace alpu::check {
namespace {

std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

std::string join_responses(const std::vector<SpecResponse>& rs) {
  if (rs.empty()) return "(none)";
  std::string out;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (i != 0) out += ", ";
    out += to_string(rs[i]);
  }
  return out;
}

// ---- enumeration alphabet -------------------------------------------------
//
// Two distinguishable headers sharing a context, one source/tag
// wildcard pattern, and one partial sweep selector are enough to
// exercise every interesting relation: equal vs distinct entries,
// wildcard overlap, sweeps that remove a strict subset.  Keeping the
// alphabet minimal is what keeps exhaustive depth-6 enumeration cheap.
struct Shape {
  MatchWord bits = 0;
  MatchWord mask = 0;
};

struct Alphabet {
  std::vector<Shape> inserts;
  std::vector<Shape> probes;
  Shape sweep;  ///< RESET MATCHING selector (always selector-masked)
};

Alphabet make_alphabet(AlpuFlavor flavor) {
  const MatchWord h0 = match::pack({1, 0, 0});
  const MatchWord h1 = match::pack({1, 1, 1});
  const match::Pattern wild = match::make_recv_pattern(1, std::nullopt,
                                                       std::nullopt);
  const match::Pattern sweep_sel =
      match::make_recv_pattern(1, 1, std::nullopt);

  Alphabet a;
  if (flavor == AlpuFlavor::kPostedReceive) {
    // Entries carry the masks; probes are explicit incoming headers.
    a.inserts = {{h0, 0}, {h1, 0}, {wild.bits, wild.mask}};
    a.probes = {{h0, 0}, {h1, 0}};
  } else {
    // Entries are explicit headers; probes carry the masks (the
    // reverse lookup of Figure 2b).
    a.inserts = {{h0, 0}, {h1, 0}};
    a.probes = {{h0, 0}, {h1, 0}, {wild.bits, wild.mask}};
  }
  a.sweep = {sweep_sel.bits, sweep_sel.mask};
  return a;
}

bool is_protocol(ImplKind impl) {
  return impl == ImplKind::kTransaction || impl == ImplKind::kPipelined;
}

/// Implementations carrying the transient-fault model (parity planes +
/// corrupt_for_test).  The stage-level RTL model deliberately has none.
bool supports_faults(ImplKind impl) {
  return impl == ImplKind::kArray || impl == ImplKind::kTransaction;
}

/// Protocol legality of a whole sequence: insert-mode bracketing, plus
/// the corruption-episode rules (kCorrupt outside insert mode, at most
/// once per episode; only kProbe/kReset until the recovering kReset).
/// Used by the shrinker; the enumerator enforces the same rules
/// incrementally — keep the two in lockstep or shrinking produces
/// sequences the spec asserts on.
bool sequence_legal(const std::vector<Op>& seq, bool protocol) {
  bool mode = false;
  bool corrupted = false;
  for (const Op& op : seq) {
    switch (op.kind) {
      case OpKind::kBegin:
        if (!protocol || mode || corrupted) return false;
        mode = true;
        break;
      case OpKind::kEnd:
        if (!protocol || !mode) return false;
        mode = false;
        break;
      case OpKind::kInsert:
        if ((protocol && !mode) || corrupted) return false;
        break;
      case OpKind::kReset:
        if (mode) return false;
        corrupted = false;
        break;
      case OpKind::kSweep:
        if (mode || corrupted) return false;
        break;
      case OpKind::kProbe:
        break;
      case OpKind::kProbeRejected:
        if (corrupted) return false;
        break;
      case OpKind::kCorrupt:
        if (mode || corrupted) return false;
        corrupted = true;
        break;
    }
  }
  return true;
}

/// The two corruption variants the fault alphabet interleaves: a data-
/// plane flip (bits plane, cell 0 — a padded cell is still covered, so
/// this is detectable even at occupancy 0) and a validity-bitmap flip
/// (turns a dead cell live or a live cell dead).  Field encoding is
/// documented on OpKind::kCorrupt.
constexpr Op kCorruptDataBit{OpKind::kCorrupt, /*bits=*/0, /*mask=*/0,
                             /*cookie=*/14, 0};
constexpr Op kCorruptValidBit{OpKind::kCorrupt, /*bits=*/3, /*mask=*/1,
                              /*cookie=*/0, 0};

// ---- datapath tier: AlpuArray vs ListSpec ---------------------------------

/// Replay `seq` against a fresh implementation and the spec, comparing
/// every observable after every step.  Cookies and probe sequence
/// numbers are assigned in place from the op's position, so a failing
/// trace prints with the identities it actually ran with.  Returns the
/// divergence description and sets `*fail_at` to the failing step.
std::optional<std::string> replay_datapath(AlpuFlavor flavor,
                                           const CheckOptions& opt,
                                           std::vector<Op>& seq,
                                           std::size_t* fail_at) {
  ListSpec spec(flavor, opt.cells, match::kFullMask);
  hw::AlpuArray impl(flavor, opt.cells, opt.block);
  if (opt.faults) {
    hw::SeuConfig seu;
    seu.force_parity = true;  // detection only; the checker injects
    impl.install_fault_model(seu, /*stream=*/0);
  }
  Cookie next_cookie = 1;
  std::uint64_t next_seq = 1;
  // True between a kCorrupt and the recovering kReset: the planes are
  // untrustworthy, so probes must all miss (quarantine) and the state
  // comparison is suspended until the rebuild.
  bool corrupted = false;

  for (std::size_t i = 0; i < seq.size(); ++i) {
    Op& op = seq[i];
    *fail_at = i;
    switch (op.kind) {
      case OpKind::kInsert: {
        op.cookie = next_cookie++;
        const bool got = impl.insert(op.bits, op.mask, op.cookie);
        const bool want = spec.insert(op.bits, op.mask, op.cookie);
        if (got != want) {
          return strf("insert accepted=%d, spec says %d", got, want);
        }
        break;
      }
      case OpKind::kProbe: {
        op.seq = next_seq++;
        const hw::Probe probe{op.bits, op.mask, op.seq};
        if (corrupted) {
          // The parity verify at the head of every search must refuse
          // to answer from corrupted planes: all three entry points
          // report a miss while quarantined, whatever is stored.
          const hw::ArrayMatch linear = impl.match(probe);
          const hw::ArrayMatch tree = impl.match_tree(probe);
          const hw::ArrayMatch del = impl.match_and_delete(probe);
          if (linear.hit || tree.hit || del.hit) {
            return strf(
                "quarantined array answered a probe: match hit=%d "
                "match_tree hit=%d match_and_delete hit=%d",
                linear.hit, tree.hit, del.hit);
          }
          break;
        }
        const SpecMatch want = spec.match(op.bits, op.mask);
        const hw::ArrayMatch linear = impl.match(probe);
        const hw::ArrayMatch tree = impl.match_tree(probe);
        if (linear.hit != want.hit ||
            (want.hit && (linear.location != want.index ||
                          linear.cookie != want.cookie))) {
          return strf(
              "match(): hit=%d loc=%zu cookie=%u, spec says hit=%d "
              "index=%zu cookie=%u",
              linear.hit, linear.location, linear.cookie, want.hit,
              want.index, want.cookie);
        }
        if (tree.hit != linear.hit || tree.location != linear.location ||
            tree.cookie != linear.cookie) {
          return strf(
              "match_tree() disagrees with match(): tree hit=%d loc=%zu "
              "cookie=%u vs linear hit=%d loc=%zu cookie=%u",
              tree.hit, tree.location, tree.cookie, linear.hit,
              linear.location, linear.cookie);
        }
        const hw::ArrayMatch del = impl.match_and_delete(probe);
        const SpecMatch sdel = spec.match_and_delete(op.bits, op.mask);
        if (del.hit != sdel.hit ||
            (sdel.hit &&
             (del.location != sdel.index || del.cookie != sdel.cookie))) {
          return strf(
              "match_and_delete(): hit=%d loc=%zu cookie=%u, spec says "
              "hit=%d index=%zu cookie=%u",
              del.hit, del.location, del.cookie, sdel.hit, sdel.index,
              sdel.cookie);
        }
        break;
      }
      case OpKind::kReset:
        impl.reset();
        spec.reset();
        corrupted = false;  // reset reheals parity and lifts quarantine
        break;
      case OpKind::kCorrupt:
        impl.corrupt_for_test(static_cast<unsigned>(op.bits),
                              static_cast<std::size_t>(op.mask), op.cookie);
        corrupted = true;
        break;
      case OpKind::kSweep: {
        const hw::Probe selector{op.bits, op.mask, 0};
        const std::size_t got = impl.invalidate_matching(selector);
        const std::size_t want = spec.sweep(op.bits, op.mask);
        if (got != want) {
          return strf("sweep removed %zu entries, spec says %zu", got, want);
        }
        break;
      }
      case OpKind::kBegin:
      case OpKind::kEnd:
      case OpKind::kProbeRejected:
        ALPU_CHECK_FAIL("protocol-only op in a datapath sequence");
    }

    // Full post-step state comparison: occupancy and every live cell.
    // Suspended while quarantined: the planes (validity included, so
    // occupancy too) are corrupted by construction, and the recovery
    // contract only promises equivalence again after the rebuild.
    if (corrupted) continue;
    if (impl.occupancy() != spec.size()) {
      return strf("occupancy %zu, spec says %zu", impl.occupancy(),
                  spec.size());
    }
    for (std::size_t j = 0; j < spec.size(); ++j) {
      const hw::Cell cell = impl.cell(j);
      const SpecEntry& want = spec.entries()[j];
      if (!cell.valid || cell.bits != want.bits || cell.mask != want.mask ||
          cell.cookie != want.cookie) {
        return strf(
            "cell %zu holds {bits=%llx mask=%llx cookie=%u valid=%d}, "
            "spec says {bits=%llx mask=%llx cookie=%u}",
            j, static_cast<unsigned long long>(cell.bits),
            static_cast<unsigned long long>(cell.mask), cell.cookie,
            cell.valid, static_cast<unsigned long long>(want.bits),
            static_cast<unsigned long long>(want.mask), want.cookie);
      }
    }
  }
  return std::nullopt;
}

// ---- protocol tier: Alpu / PipelinedAlpu vs ProtocolSpec ------------------

/// Functional fields of a device response, zeroed where the kind does
/// not define them, so vectors compare with ==.
SpecResponse normalize(const hw::Response& r) {
  SpecResponse s;
  s.kind = r.kind;
  switch (r.kind) {
    case hw::ResponseKind::kStartAck:
      s.free_slots = r.free_slots;
      break;
    case hw::ResponseKind::kMatchSuccess:
      s.cookie = r.cookie;
      s.probe_seq = r.probe_seq;
      break;
    case hw::ResponseKind::kMatchFailure:
      s.probe_seq = r.probe_seq;
      break;
    case hw::ResponseKind::kParityFault:
      s.probe_seq = r.probe_seq;
      break;
  }
  return s;
}

/// Logical cell order (oldest first) of the transaction-level unit:
/// AlpuArray keeps the list compacted with index 0 oldest.
std::vector<SpecEntry> logical_cells(const hw::Alpu& dev) {
  std::vector<SpecEntry> out;
  const hw::AlpuArray& array = dev.array();
  out.reserve(array.occupancy());
  for (std::size_t i = 0; i < array.occupancy(); ++i) {
    const hw::Cell c = array.cell(i);
    out.push_back(SpecEntry{c.bits, c.mask, c.cookie});
  }
  return out;
}

/// Logical cell order of the stage-level unit: the RTL array stores the
/// youngest at cell 0 and may hold holes mid-insert; cells only drift
/// toward the old end without overtaking, so walking from the high end
/// down yields oldest-first regardless of compaction progress.
std::vector<SpecEntry> logical_cells(const hw::PipelinedAlpu& dev) {
  std::vector<SpecEntry> out;
  const hw::RtlAlpu& rtl = dev.datapath();
  out.reserve(rtl.occupancy());
  for (std::size_t i = rtl.capacity(); i-- > 0;) {
    const hw::Cell& c = rtl.cell(i);
    if (c.valid) out.push_back(SpecEntry{c.bits, c.mask, c.cookie});
  }
  return out;
}

hw::AlpuConfig make_device_config(AlpuFlavor flavor, const CheckOptions& opt,
                                  const hw::Alpu*) {
  hw::AlpuConfig cfg;
  cfg.flavor = flavor;
  cfg.total_cells = opt.cells;
  cfg.block_size = opt.block;
  // Fault checking needs the parity planes installed; the injector and
  // the scrub stay off — kCorrupt flips bits deterministically instead.
  cfg.seu.force_parity = opt.faults;
  return cfg;
}

hw::PipelinedAlpuConfig make_device_config(AlpuFlavor flavor,
                                           const CheckOptions& opt,
                                           const hw::PipelinedAlpu*) {
  hw::PipelinedAlpuConfig cfg;
  cfg.flavor = flavor;
  cfg.total_cells = opt.cells;
  cfg.block_size = opt.block;
  return cfg;
}

/// Replay `seq` against a fresh device at run-to-quiescence
/// granularity: push one op, let the device go quiet, and require the
/// response stream, the occupancy, and the logical cell order to equal
/// the protocol spec's after every step.  The clocked PipelinedAlpu goes
/// quiet when the engine drains; hw::Alpu schedules no events, so time
/// is stepped until it sleeps.
template <typename Device>
std::optional<std::string> replay_protocol(AlpuFlavor flavor,
                                           const CheckOptions& opt,
                                           std::vector<Op>& seq,
                                           std::size_t* fail_at) {
  sim::Engine engine;
  Device dev(engine, "dut", make_device_config(flavor, opt,
                                               static_cast<Device*>(nullptr)));
  ProtocolSpec spec(flavor, opt.cells, match::kFullMask);
  Cookie next_cookie = 1;
  std::uint64_t next_seq = 1;
  // Suspends the occupancy / cell-order comparison between a kCorrupt
  // and the recovering kReset (the response-stream comparison keeps
  // running — that is where PARITY FAULT detection is proven).
  bool corrupted = false;

  for (std::size_t i = 0; i < seq.size(); ++i) {
    Op& op = seq[i];
    *fail_at = i;

    bool pushed = true;
    switch (op.kind) {
      case OpKind::kBegin:
        pushed = dev.push_command({hw::CommandKind::kStartInsert, 0, 0, 0});
        break;
      case OpKind::kEnd:
        pushed = dev.push_command({hw::CommandKind::kStopInsert, 0, 0, 0});
        break;
      case OpKind::kInsert:
        op.cookie = next_cookie++;
        pushed = dev.push_command(
            {hw::CommandKind::kInsert, op.bits, op.mask, op.cookie});
        break;
      case OpKind::kProbe:
        op.seq = next_seq++;
        pushed = dev.push_probe({op.bits, op.mask, op.seq});
        break;
      case OpKind::kReset:
        pushed = dev.push_command({hw::CommandKind::kReset, 0, 0, 0});
        corrupted = false;  // RESET reheals parity and lifts quarantine
        break;
      case OpKind::kSweep:
        pushed = dev.push_command(
            {hw::CommandKind::kResetMatching, op.bits, op.mask, 0});
        break;
      case OpKind::kCorrupt:
        if constexpr (std::is_same_v<Device, hw::Alpu>) {
          dev.corrupt_for_test(static_cast<unsigned>(op.bits),
                               static_cast<std::size_t>(op.mask), op.cookie);
          corrupted = true;
        } else {
          ALPU_CHECK_FAIL("corrupt op on a device without a fault model");
        }
        break;
      case OpKind::kProbeRejected:
        // The header FIFO refused the probe before the unit saw it:
        // nothing reaches the device.  The spec step must agree that no
        // response is owed and no state changed.
        break;
    }
    // FIFO depths dwarf the bounded sequence length; back-pressure here
    // would itself be a protocol bug worth failing on.
    ALPU_ASSERT(pushed, "device FIFO refused an op within bounded depth");

    if constexpr (std::is_same_v<Device, hw::Alpu>) {
      while (!dev.idle()) {
        engine.run_until(engine.now() + dev.config().clock.period());
      }
    } else {
      engine.run();
    }

    std::vector<SpecResponse> got;
    while (std::optional<hw::Response> r = dev.pop_result()) {
      got.push_back(normalize(*r));
    }
    std::vector<SpecResponse> want;
    spec.apply(op, want);
    if (got != want) {
      return strf("responses [%s], spec says [%s]",
                  join_responses(got).c_str(), join_responses(want).c_str());
    }

    if (corrupted) continue;  // planes untrustworthy until the rebuild
    if (dev.occupancy() != spec.list().size()) {
      return strf("occupancy %zu, spec says %zu", dev.occupancy(),
                  spec.list().size());
    }
    const std::vector<SpecEntry> cells = logical_cells(dev);
    if (cells != spec.list().entries()) {
      for (std::size_t j = 0; j < cells.size(); ++j) {
        const SpecEntry& want_e = spec.list().entries()[j];
        if (!(cells[j] == want_e)) {
          return strf(
              "logical cell %zu holds {bits=%llx mask=%llx cookie=%u}, "
              "spec says {bits=%llx mask=%llx cookie=%u}",
              j, static_cast<unsigned long long>(cells[j].bits),
              static_cast<unsigned long long>(cells[j].mask),
              cells[j].cookie, static_cast<unsigned long long>(want_e.bits),
              static_cast<unsigned long long>(want_e.mask), want_e.cookie);
        }
      }
      return "logical cell order diverged";
    }
  }
  return std::nullopt;
}

// ---- the bounded enumerator -----------------------------------------------

class Checker {
 public:
  Checker(ImplKind impl, AlpuFlavor flavor, const CheckOptions& opt)
      : impl_(impl), flavor_(flavor), opt_(opt),
        alphabet_(make_alphabet(flavor)), protocol_(is_protocol(impl)) {}

  CheckResult run() {
    CheckResult result;
    result.impl = impl_;
    result.flavor = flavor_;

    // Iterative deepening: every length-(d-1) sequence was already
    // checked at the previous depth, so the first failure found here is
    // length-minimal by construction.
    std::vector<Op> seq;
    seq.reserve(opt_.depth);
    for (std::size_t depth = 1; depth <= opt_.depth; ++depth) {
      if (!extend(seq, /*in_mode=*/false, /*corrupted=*/false, depth,
                  result)) {
        shrink(result);
        result.ok = false;
        return result;
      }
      ALPU_ASSERT(seq.empty(), "enumerator left a partial sequence behind");
    }
    result.ok = true;
    return result;
  }

 private:
  /// Ops legal from the current mode.  Datapath sequences have no
  /// modes; the protocol alphabet honours Figure 3 (insert only inside
  /// insert mode; reset/sweep only outside; PipelinedAlpu discards
  /// RESET MATCHING, so it gets no sweep at all).  A corruption episode
  /// narrows the alphabet to probes (each must answer PARITY FAULT /
  /// miss) and the recovering reset.
  void legal_ops(bool in_mode, bool corrupted, std::vector<Op>& out) const {
    out.clear();
    if (corrupted) {
      for (const Shape& s : alphabet_.probes) {
        out.push_back(Op{OpKind::kProbe, s.bits, s.mask, 0, 0});
      }
      out.push_back(Op{OpKind::kReset, 0, 0, 0, 0});
      return;
    }
    const bool corrupt_ok = opt_.faults && supports_faults(impl_);
    if (!protocol_) {
      for (const Shape& s : alphabet_.inserts) {
        out.push_back(Op{OpKind::kInsert, s.bits, s.mask, 0, 0});
      }
      for (const Shape& s : alphabet_.probes) {
        out.push_back(Op{OpKind::kProbe, s.bits, s.mask, 0, 0});
      }
      out.push_back(Op{OpKind::kReset, 0, 0, 0, 0});
      out.push_back(
          Op{OpKind::kSweep, alphabet_.sweep.bits, alphabet_.sweep.mask, 0, 0});
      if (corrupt_ok) {
        out.push_back(kCorruptDataBit);
        out.push_back(kCorruptValidBit);
      }
      return;
    }
    for (const Shape& s : alphabet_.probes) {
      out.push_back(Op{OpKind::kProbe, s.bits, s.mask, 0, 0});
    }
    if (in_mode) {
      out.push_back(Op{OpKind::kEnd, 0, 0, 0, 0});
      for (const Shape& s : alphabet_.inserts) {
        out.push_back(Op{OpKind::kInsert, s.bits, s.mask, 0, 0});
      }
    } else {
      out.push_back(Op{OpKind::kBegin, 0, 0, 0, 0});
      out.push_back(Op{OpKind::kReset, 0, 0, 0, 0});
      if (impl_ == ImplKind::kTransaction) {
        out.push_back(Op{OpKind::kSweep, alphabet_.sweep.bits,
                         alphabet_.sweep.mask, 0, 0});
      }
      if (corrupt_ok) {
        out.push_back(kCorruptDataBit);
        out.push_back(kCorruptValidBit);
      }
    }
  }

  /// DFS over sequences of length exactly `target`.  Returns false when
  /// a divergence was found (recorded into `result`).
  bool extend(std::vector<Op>& seq, bool in_mode, bool corrupted,
              std::size_t target, CheckResult& result) {
    if (seq.size() == target) {
      return replay(seq, result);
    }
    std::vector<Op> ops;
    legal_ops(in_mode, corrupted, ops);
    for (const Op& op : ops) {
      seq.push_back(op);
      const bool next_mode =
          op.kind == OpKind::kBegin   ? true
          : op.kind == OpKind::kEnd   ? false
                                      : in_mode;
      const bool next_corrupted =
          op.kind == OpKind::kCorrupt ? true
          : op.kind == OpKind::kReset ? false
                                      : corrupted;
      if (!extend(seq, next_mode, next_corrupted, target, result)) {
        return false;
      }
      seq.pop_back();
    }
    return true;
  }

  std::optional<std::string> replay_once(std::vector<Op>& seq,
                                         std::size_t* fail_at) const {
    switch (impl_) {
      case ImplKind::kArray:
        return replay_datapath(flavor_, opt_, seq, fail_at);
      case ImplKind::kTransaction:
        return replay_protocol<hw::Alpu>(flavor_, opt_, seq, fail_at);
      case ImplKind::kPipelined:
        return replay_protocol<hw::PipelinedAlpu>(flavor_, opt_, seq,
                                                  fail_at);
    }
    ALPU_CHECK_FAIL("unknown ImplKind");
    return std::nullopt;
  }

  bool replay(std::vector<Op>& seq, CheckResult& result) {
    ++result.sequences;
    std::size_t fail_at = 0;
    const std::optional<std::string> divergence = replay_once(seq, &fail_at);
    if (!divergence.has_value()) {
      result.ops_applied += seq.size();
      return true;
    }
    result.ops_applied += fail_at + 1;
    result.counterexample.assign(seq.begin(),
                                 seq.begin() +
                                     static_cast<std::ptrdiff_t>(fail_at + 1));
    result.divergence = *divergence;
    return false;
  }

  /// Greedy delta shrink: repeatedly drop any single op whose removal
  /// (a) keeps the sequence protocol-legal and (b) still reproduces a
  /// divergence.  Iterative deepening already gives length-minimality
  /// within the enumeration order; this removes incidental prefix ops
  /// (e.g. probes that matched nothing) that deepening cannot.
  void shrink(CheckResult& result) const {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < result.counterexample.size(); ++i) {
        std::vector<Op> candidate = result.counterexample;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
        if (candidate.empty() || !sequence_legal(candidate, protocol_)) {
          continue;
        }
        std::size_t fail_at = 0;
        const std::optional<std::string> divergence =
            replay_once(candidate, &fail_at);
        if (divergence.has_value()) {
          candidate.resize(fail_at + 1);
          result.counterexample = std::move(candidate);
          result.divergence = *divergence;
          changed = true;
          break;
        }
      }
    }
  }

  ImplKind impl_;
  AlpuFlavor flavor_;
  CheckOptions opt_;
  Alphabet alphabet_;
  bool protocol_;
};

}  // namespace

const char* to_string(ImplKind impl) {
  switch (impl) {
    case ImplKind::kArray:
      return "array";
    case ImplKind::kTransaction:
      return "alpu";
    case ImplKind::kPipelined:
      return "pipelined";
  }
  return "?";
}

const char* to_string(AlpuFlavor flavor) {
  return flavor == AlpuFlavor::kPostedReceive ? "posted" : "unexpected";
}

CheckResult check_impl(ImplKind impl, AlpuFlavor flavor,
                       const CheckOptions& options) {
  ALPU_ASSERT(options.depth > 0, "check depth must be at least 1");
  ALPU_ASSERT(options.cells > 0 && options.block > 0 &&
                  options.cells % options.block == 0,
              "cells must be a positive multiple of block");
  return Checker(impl, flavor, options).run();
}

std::string format_counterexample(const CheckResult& result) {
  std::string out;
  out += strf("counterexample (%s, %s flavour, %zu ops):\n",
              to_string(result.impl), to_string(result.flavor),
              result.counterexample.size());
  for (std::size_t i = 0; i < result.counterexample.size(); ++i) {
    out += strf("  step %zu: %s\n", i + 1,
                to_string(result.counterexample[i]).c_str());
  }
  out += strf("  divergence at step %zu: %s\n", result.counterexample.size(),
              result.divergence.c_str());
  return out;
}

}  // namespace alpu::check
