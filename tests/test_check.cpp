// Tests for the bounded model checker (src/check/): the spec's own
// semantics, known-good exhaustive runs over every implementation, and
// the checker's teeth — a seeded compaction bug must be caught with a
// minimal counterexample.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "alpu/alpu.hpp"
#include "alpu/array.hpp"
#include "check/checker.hpp"
#include "check/flow.hpp"
#include "check/spec.hpp"
#include "match/match.hpp"
#include "net/network.hpp"
#include "nic/reliability.hpp"
#include "sim/engine.hpp"

namespace alpu::check {
namespace {

using hw::AlpuFlavor;

// ---- ListSpec self-consistency --------------------------------------------

TEST(ListSpec, OldestMatchWinsAndDeletes) {
  ListSpec spec(AlpuFlavor::kPostedReceive, 4, match::kFullMask);
  const MatchWord h = match::pack({1, 2, 3});
  EXPECT_TRUE(spec.insert(h, 0, 11));
  EXPECT_TRUE(spec.insert(h, 0, 22));

  const SpecMatch first = spec.match_and_delete(h, 0);
  ASSERT_TRUE(first.hit);
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(first.cookie, 11u);  // FIFO among equal entries

  const SpecMatch second = spec.match_and_delete(h, 0);
  ASSERT_TRUE(second.hit);
  EXPECT_EQ(second.cookie, 22u);
  EXPECT_FALSE(spec.match(h, 0).hit);
}

TEST(ListSpec, PostedFlavourUsesStoredMask) {
  ListSpec spec(AlpuFlavor::kPostedReceive, 4, match::kFullMask);
  const match::Pattern wild = match::make_recv_pattern(1, std::nullopt, 5);
  EXPECT_TRUE(spec.insert(wild.bits, wild.mask, 7));
  // Any source matches; a different tag does not.
  EXPECT_TRUE(spec.match(match::pack({1, 9, 5}), 0).hit);
  EXPECT_FALSE(spec.match(match::pack({1, 9, 6}), 0).hit);
}

TEST(ListSpec, UnexpectedFlavourUsesProbeMask) {
  ListSpec spec(AlpuFlavor::kUnexpected, 4, match::kFullMask);
  EXPECT_TRUE(spec.insert(match::pack({1, 2, 3}), 0, 7));
  const match::Pattern wild = match::make_recv_pattern(1, std::nullopt, 3);
  EXPECT_TRUE(spec.match(wild.bits, wild.mask).hit);
  EXPECT_FALSE(spec.match(match::pack({1, 9, 3}), 0).hit);  // exact probe
}

TEST(ListSpec, SweepRemovesSelectorMatchesOnly) {
  ListSpec spec(AlpuFlavor::kUnexpected, 4, match::kFullMask);
  EXPECT_TRUE(spec.insert(match::pack({1, 1, 0}), 0, 1));
  EXPECT_TRUE(spec.insert(match::pack({1, 2, 0}), 0, 2));
  EXPECT_TRUE(spec.insert(match::pack({1, 1, 9}), 0, 3));
  const match::Pattern sel = match::make_recv_pattern(1, 1, std::nullopt);
  EXPECT_EQ(spec.sweep(sel.bits, sel.mask), 2u);
  ASSERT_EQ(spec.size(), 1u);
  EXPECT_EQ(spec.entries()[0].cookie, 2u);
}

TEST(ListSpec, InsertRespectsCapacity) {
  ListSpec spec(AlpuFlavor::kPostedReceive, 2, match::kFullMask);
  EXPECT_TRUE(spec.insert(1, 0, 1));
  EXPECT_TRUE(spec.insert(2, 0, 2));
  EXPECT_FALSE(spec.insert(3, 0, 3));
  EXPECT_EQ(spec.size(), 2u);
}

// ---- ProtocolSpec: the Figure-3 held-failure rule -------------------------

TEST(ProtocolSpec, HeldFailureResolvesAtStopInsert) {
  ProtocolSpec spec(AlpuFlavor::kPostedReceive, 4, match::kFullMask);
  std::vector<SpecResponse> out;

  spec.apply(Op{OpKind::kBegin, 0, 0, 0, 0}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, hw::ResponseKind::kStartAck);
  EXPECT_EQ(out[0].free_slots, 4u);

  // A probe that misses inside insert mode is held, not answered.
  out.clear();
  spec.apply(Op{OpKind::kProbe, match::pack({1, 0, 0}), 0, 0, 1}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(spec.has_held_probe());

  // STOP INSERT releases it as a failure.
  out.clear();
  spec.apply(Op{OpKind::kEnd, 0, 0, 0, 0}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, hw::ResponseKind::kMatchFailure);
  EXPECT_EQ(out[0].probe_seq, 1u);
  EXPECT_FALSE(spec.has_held_probe());
}

TEST(ProtocolSpec, HeldFailureRetriesAfterInsert) {
  ProtocolSpec spec(AlpuFlavor::kPostedReceive, 4, match::kFullMask);
  std::vector<SpecResponse> out;
  const MatchWord h = match::pack({1, 0, 0});

  spec.apply(Op{OpKind::kBegin, 0, 0, 0, 0}, out);
  out.clear();
  spec.apply(Op{OpKind::kProbe, h, 0, 0, 1}, out);
  EXPECT_TRUE(out.empty());

  // The matching insert triggers the retry; the held probe succeeds
  // (and deletes the entry) without waiting for STOP INSERT.
  spec.apply(Op{OpKind::kInsert, h, 0, 5, 0}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, hw::ResponseKind::kMatchSuccess);
  EXPECT_EQ(out[0].cookie, 5u);
  EXPECT_EQ(out[0].probe_seq, 1u);
  EXPECT_FALSE(spec.has_held_probe());
  EXPECT_EQ(spec.list().size(), 0u);
}

TEST(ProtocolSpec, QueuedProbesDrainBehindHeldInOrder) {
  ProtocolSpec spec(AlpuFlavor::kPostedReceive, 4, match::kFullMask);
  std::vector<SpecResponse> out;
  const MatchWord h = match::pack({1, 0, 0});

  spec.apply(Op{OpKind::kBegin, 0, 0, 0, 0}, out);
  out.clear();
  spec.apply(Op{OpKind::kProbe, h, 0, 0, 1}, out);  // misses -> held
  spec.apply(Op{OpKind::kProbe, h, 0, 0, 2}, out);  // queued behind it
  EXPECT_TRUE(out.empty());

  // Two matching entries: the retry answers probe 1, then the queue
  // drains probe 2 — responses in probe order.
  spec.apply(Op{OpKind::kInsert, h, 0, 5, 0}, out);
  spec.apply(Op{OpKind::kInsert, h, 0, 6, 0}, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].probe_seq, 1u);
  EXPECT_EQ(out[0].cookie, 5u);
  EXPECT_EQ(out[1].probe_seq, 2u);
  EXPECT_EQ(out[1].cookie, 6u);
}

// ---- probe rejection composes with held failures and retries --------------

TEST(ProtocolSpec, ProbeRejectedIsAPureNoOp) {
  ProtocolSpec spec(AlpuFlavor::kPostedReceive, 4, match::kFullMask);
  std::vector<SpecResponse> out;
  spec.apply(Op{OpKind::kBegin, 0, 0, 0, 0}, out);
  out.clear();
  spec.apply(Op{OpKind::kProbe, match::pack({1, 0, 0}), 0, 0, 1}, out);
  ASSERT_TRUE(out.empty());  // held

  // The refusal leaves no trace: no response, no state change, and the
  // held probe stays held (settle must make no progress).
  spec.apply(Op{OpKind::kProbeRejected, 0, 0, 0, 0}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(spec.has_held_probe());
  EXPECT_TRUE(spec.in_insert_mode());
  EXPECT_EQ(spec.list().size(), 0u);
}

TEST(ProtocolSpec, ProbeRejectionComposesWithHeldFailureRetry) {
  // Drive a REAL transaction-level unit with a depth-1 header FIFO into
  // a deterministic rejection, then prove the rejected-then-retried
  // sequence is response-equivalent to the spec with kProbeRejected
  // spliced in:
  //
  //   probe 1 misses and is held -> header consumption pauses
  //   probe 2 accepted, parked in the (now full) FIFO
  //   probe 3 REJECTED by the full FIFO        <- Op kProbeRejected
  //   insert A retries the held probe 1 -> success; probe 2 becomes held
  //   probe 3 re-offered -> accepted this time <- the firmware's retry
  //   insert B retries probe 2 -> success; probe 3 becomes held
  //   STOP INSERT resolves probe 3 as the failure it is
  sim::Engine engine;
  hw::AlpuConfig cfg;
  cfg.flavor = AlpuFlavor::kPostedReceive;
  cfg.total_cells = 4;
  cfg.block_size = 2;
  cfg.header_fifo_depth = 1;
  hw::Alpu unit(engine, "dut", cfg);
  ProtocolSpec spec(AlpuFlavor::kPostedReceive, 4, match::kFullMask);
  const MatchWord h = match::pack({1, 0, 0});

  // Run device and spec in lock-step; both must agree after every op.
  auto step = [&](const Op& op, bool push_to_device = true) {
    if (push_to_device) {
      bool ok = true;
      switch (op.kind) {
        case OpKind::kBegin:
          ok = unit.push_command({hw::CommandKind::kStartInsert, 0, 0, 0});
          break;
        case OpKind::kEnd:
          ok = unit.push_command({hw::CommandKind::kStopInsert, 0, 0, 0});
          break;
        case OpKind::kInsert:
          ok = unit.push_command(
              {hw::CommandKind::kInsert, op.bits, op.mask, op.cookie});
          break;
        case OpKind::kProbe:
          ok = unit.push_probe({op.bits, op.mask, op.seq});
          break;
        default:
          break;
      }
      EXPECT_TRUE(ok) << to_string(op);
    }
    while (!unit.idle()) engine.run_until(engine.now() + cfg.clock.period());
    std::vector<SpecResponse> got;
    while (std::optional<hw::Response> r = unit.pop_result()) {
      got.push_back(
          SpecResponse{r->kind, r->cookie, r->free_slots, r->probe_seq});
    }
    std::vector<SpecResponse> want;
    spec.apply(op, want);
    EXPECT_EQ(got, want) << "diverged at " << to_string(op);
    EXPECT_EQ(unit.occupancy(), spec.list().size());
  };

  step(Op{OpKind::kBegin, 0, 0, 0, 0});
  step(Op{OpKind::kProbe, h, 0, 0, 1});  // misses -> held
  step(Op{OpKind::kProbe, h, 0, 0, 2});  // parked in the depth-1 FIFO

  // The third probe is refused by the full FIFO: the device never sees
  // it, and the spec records the refusal as an explicit no-op.
  EXPECT_FALSE(unit.push_probe({h, 0, 3}));
  step(Op{OpKind::kProbeRejected, 0, 0, 0, 0}, /*push_to_device=*/false);

  step(Op{OpKind::kInsert, h, 0, 11, 0});  // retry answers probe 1
  step(Op{OpKind::kProbe, h, 0, 0, 3});    // the firmware re-offers probe 3
  step(Op{OpKind::kInsert, h, 0, 22, 0});  // retry answers probe 2
  step(Op{OpKind::kEnd, 0, 0, 0, 0});      // probe 3 resolves as failure
  EXPECT_EQ(unit.occupancy(), 0u);
}

// ---- known-good exhaustive runs -------------------------------------------

class ExhaustiveCheck
    : public ::testing::TestWithParam<std::tuple<ImplKind, AlpuFlavor>> {};

// Depth 5 on a 4-cell array keeps the whole matrix (3 impls x 2
// flavours) under a second; the `golden_check` ctest runs depth 6 via
// `alpusim check` and pins its sequence counts.
TEST_P(ExhaustiveCheck, MatchesSpec) {
  const auto [impl, flavor] = GetParam();
  CheckOptions opt;
  opt.depth = 5;
  opt.cells = 4;
  opt.block = 2;
  const CheckResult result = check_impl(impl, flavor, opt);
  EXPECT_TRUE(result.ok) << format_counterexample(result);
  EXPECT_GT(result.sequences, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllImpls, ExhaustiveCheck,
    ::testing::Combine(::testing::Values(ImplKind::kArray,
                                         ImplKind::kTransaction,
                                         ImplKind::kPipelined),
                       ::testing::Values(AlpuFlavor::kPostedReceive,
                                         AlpuFlavor::kUnexpected)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param));
    });

// ---- the checker has teeth ------------------------------------------------

class InjectedBug : public ::testing::Test {
 protected:
  void TearDown() override {
    hw::testing::inject_compaction_off_by_one = false;
  }
};

TEST_F(InjectedBug, CompactionOffByOneIsCaughtWithCounterexample) {
  hw::testing::inject_compaction_off_by_one = true;
  CheckOptions opt;
  opt.depth = 5;
  opt.cells = 4;
  opt.block = 2;
  const CheckResult result =
      check_impl(ImplKind::kArray, AlpuFlavor::kPostedReceive, opt);
  ASSERT_FALSE(result.ok);
  EXPECT_FALSE(result.divergence.empty());

  // The minimal trace: two inserts and the probe that deletes the
  // older one (deleting with no younger survivors cannot misplace
  // anything, so nothing shorter can expose a compaction bug).
  ASSERT_EQ(result.counterexample.size(), 3u);
  EXPECT_EQ(result.counterexample[0].kind, OpKind::kInsert);
  EXPECT_EQ(result.counterexample[1].kind, OpKind::kInsert);
  EXPECT_EQ(result.counterexample[2].kind, OpKind::kProbe);
}

TEST_F(InjectedBug, TransactionUnitInheritsTheBug) {
  // The transaction-level Alpu wraps AlpuArray, so the protocol tier
  // must catch the same datapath bug through the FIFO interface.
  hw::testing::inject_compaction_off_by_one = true;
  CheckOptions opt;
  opt.depth = 5;
  opt.cells = 4;
  opt.block = 2;
  const CheckResult result =
      check_impl(ImplKind::kTransaction, AlpuFlavor::kPostedReceive, opt);
  ASSERT_FALSE(result.ok);
  EXPECT_FALSE(result.counterexample.empty());
}

TEST_F(InjectedBug, PipelinedModelIsUnaffected) {
  // The injection hook lives in the SoA engine only; the stage-level
  // unit stores its cells in RtlAlpu, not AlpuArray, so it must keep
  // passing — the checker blames the buggy engine, not every model.
  hw::testing::inject_compaction_off_by_one = true;
  CheckOptions opt;
  opt.depth = 4;
  opt.cells = 4;
  opt.block = 2;
  const CheckResult result =
      check_impl(ImplKind::kPipelined, AlpuFlavor::kPostedReceive, opt);
  EXPECT_TRUE(result.ok) << format_counterexample(result);
}

// ---- transient faults: kCorrupt in the alphabet ---------------------------

TEST(ProtocolSpec, CorruptQuarantinesUntilRecoveringReset) {
  ProtocolSpec spec(AlpuFlavor::kPostedReceive, 4, match::kFullMask);
  std::vector<SpecResponse> out;
  const MatchWord h = match::pack({1, 0, 0});

  // Stage one live entry so the quarantine demonstrably hides it.
  spec.apply(Op{OpKind::kBegin, 0, 0, 0, 0}, out);
  spec.apply(Op{OpKind::kInsert, h, 0, 5, 0}, out);
  spec.apply(Op{OpKind::kEnd, 0, 0, 0, 0}, out);
  out.clear();

  spec.apply(Op{OpKind::kCorrupt, /*plane=*/0, /*cell=*/0, /*bit=*/14, 0},
             out);
  EXPECT_TRUE(spec.quarantined());
  EXPECT_TRUE(out.empty());  // a flip has no observable of its own

  // Every probe answers PARITY FAULT in probe order; the entry that
  // would have matched (cookie 5) must not be trusted.
  spec.apply(Op{OpKind::kProbe, h, 0, 0, 1}, out);
  spec.apply(Op{OpKind::kProbe, h, 0, 0, 2}, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, hw::ResponseKind::kParityFault);
  EXPECT_EQ(out[0].probe_seq, 1u);
  EXPECT_EQ(out[1].kind, hw::ResponseKind::kParityFault);
  EXPECT_EQ(out[1].probe_seq, 2u);
  out.clear();

  // RESET is the recovery command: quarantine lifted, storage cleared,
  // normal responses resume.
  spec.apply(Op{OpKind::kReset, 0, 0, 0, 0}, out);
  EXPECT_FALSE(spec.quarantined());
  EXPECT_EQ(spec.list().size(), 0u);
  spec.apply(Op{OpKind::kProbe, h, 0, 0, 3}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, hw::ResponseKind::kMatchFailure);
}

class FaultCheck
    : public ::testing::TestWithParam<std::tuple<ImplKind, AlpuFlavor>> {};

// With faults enabled the enumerator interleaves deterministic bit
// flips with the protocol ops; the implementations must detect each
// one (PARITY FAULT per probe) and recover fully at RESET, at every
// point of every legal sequence.
TEST_P(FaultCheck, CorruptionIsDetectedAndRecoveredEverywhere) {
  const auto [impl, flavor] = GetParam();
  CheckOptions opt;
  opt.depth = 5;
  opt.cells = 4;
  opt.block = 2;
  opt.faults = true;
  const CheckResult result = check_impl(impl, flavor, opt);
  EXPECT_TRUE(result.ok) << format_counterexample(result);

  // The corrupt ops widened the alphabet: strictly more sequences than
  // the fault-free run of the same depth.
  CheckOptions plain = opt;
  plain.faults = false;
  EXPECT_GT(result.sequences, check_impl(impl, flavor, plain).sequences);
}

INSTANTIATE_TEST_SUITE_P(
    FaultModelImpls, FaultCheck,
    ::testing::Combine(::testing::Values(ImplKind::kArray,
                                         ImplKind::kTransaction),
                       ::testing::Values(AlpuFlavor::kPostedReceive,
                                         AlpuFlavor::kUnexpected)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param));
    });

TEST(FaultCheckOptions, IgnoredByImplsWithoutAFaultModel) {
  // The pipelined RTL carries no fault model: faults=true must not
  // change its alphabet (or its verdict).
  CheckOptions opt;
  opt.depth = 4;
  opt.cells = 4;
  opt.block = 2;
  opt.faults = true;
  const CheckResult with =
      check_impl(ImplKind::kPipelined, AlpuFlavor::kPostedReceive, opt);
  opt.faults = false;
  const CheckResult without =
      check_impl(ImplKind::kPipelined, AlpuFlavor::kPostedReceive, opt);
  EXPECT_TRUE(with.ok) << format_counterexample(with);
  EXPECT_EQ(with.sequences, without.sequences);
}

class SilentFlip : public ::testing::Test {
 protected:
  void TearDown() override {
    hw::testing::inject_silent_flip.store(false, std::memory_order_relaxed);
  }
};

TEST_F(SilentFlip, CheckerCatchesCorruptionBehindTheParityLayer) {
  // The flip bypasses the parity-maintaining accessors, so the fault
  // model itself cannot see it — but the checker's post-step state
  // compare must, proving detection is backed by an independent oracle
  // rather than by the machinery under test.
  hw::testing::inject_silent_flip.store(true, std::memory_order_relaxed);
  CheckOptions opt;
  opt.depth = 4;
  opt.cells = 4;
  opt.block = 2;
  const CheckResult result =
      check_impl(ImplKind::kArray, AlpuFlavor::kPostedReceive, opt);
  ASSERT_FALSE(result.ok);
  EXPECT_FALSE(result.counterexample.empty());
  EXPECT_FALSE(result.divergence.empty());
}

// ---- FlowSpec: the eager flow-control protocol ----------------------------

TEST(FlowSpec, AdmitsUntilBudgetThenNacksAndWakesOnCredit) {
  FlowConfig cfg;
  cfg.pool_bytes = 4096;
  cfg.slots = 2;
  FlowSpec spec(cfg);

  EXPECT_TRUE(spec.apply({FlowOpKind::kSendEager, 1024}).admitted);
  EXPECT_TRUE(spec.apply({FlowOpKind::kSendEager, 1024}).admitted);
  // Both slots pinned: the third offer bounces regardless of bytes.
  const FlowEffect refused = spec.apply({FlowOpKind::kSendEager, 512});
  EXPECT_TRUE(refused.nacked);
  EXPECT_TRUE(spec.held());
  EXPECT_EQ(spec.streak(), 1u);

  // Matching the oldest staged message frees its slot; the credit push
  // wakes the held offer, which now fits and is admitted.
  const FlowEffect match = spec.apply({FlowOpKind::kMatch, 0});
  EXPECT_TRUE(match.credit_push);
  EXPECT_TRUE(match.admitted);
  EXPECT_FALSE(spec.held());
  EXPECT_EQ(spec.streak(), 0u);
  EXPECT_EQ(spec.invariant_violation(), "");
}

TEST(FlowSpec, PoolBudgetRefusesOversizedAndPeakTracksHighWater) {
  FlowConfig cfg;
  cfg.pool_bytes = 4096;
  cfg.slots = 0;  // unlimited slots: bytes are the binding constraint
  FlowSpec spec(cfg);
  EXPECT_TRUE(spec.apply({FlowOpKind::kSendEager, 4096}).admitted);
  EXPECT_TRUE(spec.apply({FlowOpKind::kSendEager, 1}).nacked);
  EXPECT_EQ(spec.peak_pool(), 4096u);
  // Match alone frees no bytes (they stay pinned until the drain DMA) —
  // and with unlimited slots the held 1-byte offer still cannot fit.
  EXPECT_FALSE(spec.apply({FlowOpKind::kMatch, 0}).admitted);
  EXPECT_TRUE(spec.apply({FlowOpKind::kDrain, 0}).admitted);
  EXPECT_EQ(spec.pool_used(), 1u);
  EXPECT_EQ(spec.invariant_violation(), "");
}

TEST(FlowSpec, RepeatedRefusalsDemoteThenFailTheLink) {
  FlowConfig cfg;
  cfg.slots = 1;
  cfg.demote_after = 2;
  cfg.max_streak = 4;
  FlowSpec spec(cfg);
  EXPECT_TRUE(spec.apply({FlowOpKind::kSendEager, 64}).admitted);
  EXPECT_TRUE(spec.apply({FlowOpKind::kSendEager, 64}).nacked);
  const FlowEffect second = spec.apply({FlowOpKind::kRetry, 0});
  EXPECT_TRUE(second.nacked);
  EXPECT_TRUE(second.demoted_now);  // streak hit demote_after
  EXPECT_TRUE(spec.demoted());
  // Backoff retries without a credit exhaust the bounded streak.
  EXPECT_FALSE(spec.apply({FlowOpKind::kRetry, 0}).link_failed);
  EXPECT_FALSE(spec.apply({FlowOpKind::kRetry, 0}).link_failed);
  EXPECT_TRUE(spec.apply({FlowOpKind::kRetry, 0}).link_failed);
  EXPECT_TRUE(spec.failed());
  EXPECT_EQ(spec.invariant_violation(), "");
}

TEST(FlowCheck, BoundedExhaustiveEnumerationHoldsEveryInvariant) {
  FlowCheckOptions options;  // depth 7, 1 KB / 4 KB eager sizes
  const FlowCheckResult result = check_flow(options);
  EXPECT_TRUE(result.ok) << result.counterexample;
  EXPECT_GT(result.sequences, 1000u);
  EXPECT_GT(result.ops, result.sequences);
}

TEST(FlowCheck, UnlimitedBudgetNeverRefuses) {
  FlowCheckOptions options;
  options.config.pool_bytes = 0;
  options.config.slots = 0;
  const FlowCheckResult result = check_flow(options);
  // The "refusal despite unlimited budget" invariant arms on this
  // config: any NACK on an unlimited receiver would be caught here.
  EXPECT_TRUE(result.ok) << result.counterexample;
}

// ---- FlowSpec vs the real ReliabilityLayer pair (differential) ------------

/// Slot-only admission mirroring the spec's `slots` budget (pool
/// unlimited): the binding resource is envelope slots, so a freed slot
/// always fits the held offer — the one regime where the spec's
/// conditional credit wake and the implementation's unconditional one
/// provably coincide (see the kMatch-while-held note below).
struct LockstepAdmission final : nic::EagerAdmission {
  std::uint32_t slots;
  std::uint32_t used = 0;
  explicit LockstepAdmission(std::uint32_t s) : slots(s) {}
  bool try_admit(const net::Packet&) override {
    if (used >= slots) return false;
    ++used;
    return true;
  }
  std::uint64_t credit_bytes() const override { return ~std::uint64_t{0}; }
  std::uint32_t credit_slots() const override { return slots - used; }
};

/// One sender→receiver reliability pair driven transition-by-transition
/// against FlowSpec.  Simulated time advances in 2 us windows — long
/// enough for a send/NACK/credit round trip, far below the 20 us RNR
/// backoff, so the only retries are credit wakes, exactly the
/// transitions the spec models without a kRetry op.
struct FlowLockstep {
  static constexpr std::uint32_t kBytes = 1024;

  check::FlowConfig cfg;
  check::FlowSpec spec;
  sim::Engine engine;
  net::Network net;
  std::vector<std::uint64_t> delivered;
  nic::ReliabilityLayer tx;
  nic::ReliabilityLayer rx;
  LockstepAdmission admission;
  std::uint64_t next_token = 1;
  std::uint64_t expected_delivered = 0;
  std::uint64_t expected_nacks = 0;

  static check::FlowConfig make_cfg(std::uint32_t slots) {
    check::FlowConfig c;
    c.pool_bytes = 0;  // slots are the binding constraint
    c.slots = slots;
    c.demote_after = 99;  // demotion needs backoff retries; out of scope
    return c;
  }
  static nic::ReliabilityConfig make_rel() {
    nic::ReliabilityConfig rel;
    rel.enabled = true;
    rel.base_timeout_ps = 2'000'000'000;  // never fires in these windows
    rel.rnr_demote_after = 99;
    return rel;
  }

  explicit FlowLockstep(std::uint32_t slots)
      : cfg(make_cfg(slots)),
        spec(cfg),
        net(engine, net::NetworkConfig{.wire_latency = 200'000,
                                       .ps_per_byte = 500,
                                       .header_bytes = 32}),
        tx(engine, "n0.rel", make_rel(), net, 0, [](const net::Packet&) {}),
        rx(engine, "n1.rel", make_rel(), net, 1,
           [this](const net::Packet& p) { delivered.push_back(p.token); }),
        admission(slots) {
    net.attach(0, [this](const net::Packet& p) { tx.on_network_delivery(p); });
    net.attach(1, [this](const net::Packet& p) { rx.on_network_delivery(p); });
    rx.set_admission(&admission);
  }

  void window() { engine.run_window(engine.now() + 2'000'000); }

  void step(const FlowOp& op) {
    const FlowEffect effect = spec.apply(op);
    switch (op.kind) {
      case FlowOpKind::kSendEager: {
        net::Packet p;
        p.src = 0;
        p.dst = 1;
        p.kind = net::PacketKind::kEager;
        p.payload_bytes = kBytes;
        p.token = next_token++;
        engine.schedule_at(engine.now(), [this, p] { tx.send(p); });
        break;
      }
      case FlowOpKind::kMatch:
        engine.schedule_at(engine.now(), [this] {
          --admission.used;
          rx.notify_credit_released();
        });
        break;
      case FlowOpKind::kDrain:
        // Pool bytes are unlimited here; the drain's credit release
        // still happens (a stale push at most — the credit queue is
        // empty unless an offer is held).
        engine.schedule_at(engine.now(),
                           [this] { rx.notify_credit_released(); });
        break;
      default:
        FAIL() << "op not modelled in lockstep";
    }
    if (effect.admitted) ++expected_delivered;
    if (effect.nacked) ++expected_nacks;
    window();
    compare();
  }

  void compare() {
    ASSERT_EQ(spec.invariant_violation(), "");
    EXPECT_EQ(admission.used, spec.slots_used());
    EXPECT_EQ(delivered.size(), expected_delivered);
    EXPECT_EQ(rx.stats().rnr_nacks_tx, expected_nacks);
    EXPECT_EQ(tx.rnr_paused_windows(), spec.held() ? 1u : 0u);
    EXPECT_FALSE(tx.any_link_failed());
    EXPECT_EQ(spec.failed(), false);
    // Exactly-once, in order: tokens up the stack are 1..N.
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      ASSERT_EQ(delivered[i], i + 1);
    }
  }
};

TEST(FlowLockstepTest, RandomWalksMatchTheRealReliabilityPair) {
  for (const std::uint32_t slots : {1u, 2u, 3u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("slots=" + std::to_string(slots) +
                   " seed=" + std::to_string(seed));
      FlowLockstep sim(slots);
      std::uint64_t state = seed * 0x9E3779B97F4A7C15ull;
      auto rng = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
      };
      std::deque<std::uint32_t> draining_mirror;
      std::uint32_t staged_mirror = 0;
      for (int i = 0; i < 120 && !::testing::Test::HasFatalFailure(); ++i) {
        FlowOp op;
        if (sim.spec.held()) {
          // While an offer is held, only kMatch keeps the spec's
          // conditional wake and the implementation's unconditional
          // wake equivalent (a drain-credit would re-offer into a
          // still-full receiver: a NACK the spec does not model).
          op = {FlowOpKind::kMatch, 0};
        } else {
          std::vector<FlowOp> legal;
          // Bias toward sends so refusals actually happen.
          if (sim.spec.legal({FlowOpKind::kSendEager, FlowLockstep::kBytes})) {
            legal.push_back({FlowOpKind::kSendEager, FlowLockstep::kBytes});
            legal.push_back({FlowOpKind::kSendEager, FlowLockstep::kBytes});
          }
          if (staged_mirror > 0) legal.push_back({FlowOpKind::kMatch, 0});
          if (!draining_mirror.empty()) legal.push_back({FlowOpKind::kDrain, 0});
          op = legal[rng() % legal.size()];
        }
        if (op.kind == FlowOpKind::kMatch) {
          --staged_mirror;
          draining_mirror.push_back(FlowLockstep::kBytes);
        } else if (op.kind == FlowOpKind::kDrain) {
          draining_mirror.pop_front();
        }
        sim.step(op);
        // A match while held wakes the held offer straight into the
        // freed slot, so staged stays in sync with spec.slots_used().
        staged_mirror = sim.spec.slots_used();
      }
      EXPECT_GT(sim.expected_nacks, 0u);
      EXPECT_GT(sim.expected_delivered, 0u);
    }
  }
}

}  // namespace
}  // namespace alpu::check
