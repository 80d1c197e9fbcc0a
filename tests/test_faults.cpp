// Unit tests for deterministic network fault injection and the NIC
// reliability sublayer driven over a faulty raw network.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "net/faults.hpp"
#include "net/network.hpp"
#include "nic/reliability.hpp"
#include "workload/chaos.hpp"

namespace alpu::net {
namespace {

using common::TimePs;

constexpr TimePs kHeaderSerialise = 32u * 500u;
constexpr TimePs kWire = 200'000;

NetworkConfig net_cfg() {
  return NetworkConfig{
      .wire_latency = kWire, .ps_per_byte = 500, .header_bytes = 32};
}

/// One delivery as the receiver saw it.
struct Seen {
  std::uint64_t token = 0;
  TimePs at = 0;
  bool crc_ok = true;

  friend bool operator==(const Seen&, const Seen&) = default;
};

/// Send `count` back-to-back header-only packets 0->1 at t=0 and return
/// the delivery log under `faults`.
std::vector<Seen> run_stream(const FaultConfig& faults, int count,
                             FaultStats* stats_out = nullptr) {
  sim::Engine engine;
  Network net(engine, net_cfg());
  net.install_faults(faults);
  std::vector<Seen> seen;
  net.attach(0, [](const Packet&) {});
  net.attach(1, [&](const Packet& p) {
    seen.push_back(Seen{p.token, engine.now(), p.crc_ok});
  });
  engine.schedule_at(0, [&] {
    for (int i = 1; i <= count; ++i) {
      Packet p;
      p.src = 0;
      p.dst = 1;
      p.token = static_cast<std::uint64_t>(i);
      net.send(p);
    }
  });
  engine.run();
  if (stats_out != nullptr) *stats_out = net.faults()->stats();
  return seen;
}

TEST(FaultInjector, ScriptedDropRemovesExactlyTheNthPacket) {
  FaultConfig cfg;
  cfg.script.push_back(ScriptedFault{FaultKind::kDrop, 0, 1,
                                     std::nullopt, 3});
  FaultStats stats;
  const auto seen = run_stream(cfg, 5, &stats);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].token, 1u);
  EXPECT_EQ(seen[1].token, 2u);
  EXPECT_EQ(seen[2].token, 4u);  // the 3rd never arrives
  EXPECT_EQ(seen[3].token, 5u);
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.scripted_fired, 1u);
}

TEST(FaultInjector, ScriptedKindFilterCountsOnlyMatchingPackets) {
  // "Drop the 2nd CTS on link 0->1": eager traffic interleaved with CTS
  // packets must not advance the occurrence count.
  FaultConfig cfg;
  cfg.script.push_back(ScriptedFault{FaultKind::kDrop, 0, 1,
                                     PacketKind::kCtsRendezvous, 2});
  sim::Engine engine;
  Network net(engine, net_cfg());
  net.install_faults(cfg);
  std::vector<Packet> seen;
  net.attach(0, [](const Packet&) {});
  net.attach(1, [&](const Packet& p) { seen.push_back(p); });
  engine.schedule_at(0, [&] {
    for (int i = 1; i <= 6; ++i) {
      Packet p;
      p.src = 0;
      p.dst = 1;
      p.kind = (i % 2 == 0) ? PacketKind::kCtsRendezvous
                            : PacketKind::kEager;
      p.token = static_cast<std::uint64_t>(i);
      net.send(p);
    }
  });
  engine.run();
  // Token 4 is the second CTS; everything else arrives.
  ASSERT_EQ(seen.size(), 5u);
  for (const Packet& p : seen) EXPECT_NE(p.token, 4u);
  EXPECT_EQ(net.faults()->stats().drops, 1u);
}

TEST(FaultInjector, ScriptedDuplicateTailgatesTheOriginal) {
  FaultConfig cfg;
  cfg.script.push_back(ScriptedFault{FaultKind::kDuplicate, 0, 1,
                                     std::nullopt, 1});
  const auto seen = run_stream(cfg, 1);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].token, 1u);
  EXPECT_EQ(seen[1].token, 1u);
  // The link-layer replay arrives one header serialisation behind.
  EXPECT_EQ(seen[1].at - seen[0].at, kHeaderSerialise);
}

TEST(FaultInjector, ScriptedCorruptionClearsCrcOnly) {
  FaultConfig cfg;
  cfg.script.push_back(ScriptedFault{FaultKind::kCorrupt, 0, 1,
                                     std::nullopt, 2});
  const auto seen = run_stream(cfg, 3);
  ASSERT_EQ(seen.size(), 3u);  // corruption is flagged, not dropped
  EXPECT_TRUE(seen[0].crc_ok);
  EXPECT_FALSE(seen[1].crc_ok);
  EXPECT_TRUE(seen[2].crc_ok);
}

TEST(FaultInjector, ScriptedReorderLetsLaterTrafficOvertake) {
  FaultConfig cfg;
  cfg.reorder_window_ps = 1'000'000;
  cfg.script.push_back(ScriptedFault{FaultKind::kReorder, 0, 1,
                                     std::nullopt, 1});
  const auto seen = run_stream(cfg, 2);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].token, 2u);  // the held packet was overtaken
  EXPECT_EQ(seen[1].token, 1u);
}

TEST(FaultInjector, SameSeedIsByteIdentical) {
  FaultConfig cfg;
  cfg.drop_rate = 0.2;
  cfg.dup_rate = 0.1;
  cfg.reorder_rate = 0.1;
  cfg.corrupt_rate = 0.1;
  cfg.seed = 42;
  FaultStats a_stats;
  FaultStats b_stats;
  const auto a = run_stream(cfg, 200, &a_stats);
  const auto b = run_stream(cfg, 200, &b_stats);
  EXPECT_EQ(a, b);  // tokens, times, and CRC flags all identical
  EXPECT_EQ(a_stats.drops, b_stats.drops);
  EXPECT_EQ(a_stats.duplicates, b_stats.duplicates);
  EXPECT_EQ(a_stats.reorders, b_stats.reorders);
  EXPECT_EQ(a_stats.corruptions, b_stats.corruptions);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultConfig cfg;
  cfg.drop_rate = 0.2;
  cfg.seed = 1;
  const auto a = run_stream(cfg, 200);
  cfg.seed = 2;
  const auto b = run_stream(cfg, 200);
  EXPECT_NE(a, b);
}

TEST(FaultInjector, ScriptedOverlayDoesNotShiftRandomDraws) {
  // The fixed five-draw schedule means adding a scripted fault cannot
  // displace any random decision: the corruption pattern over the
  // surviving packets must be identical with and without the script.
  FaultConfig cfg;
  cfg.corrupt_rate = 0.3;
  cfg.seed = 7;
  const auto plain = run_stream(cfg, 100);
  cfg.script.push_back(ScriptedFault{FaultKind::kDrop, 0, 1,
                                     std::nullopt, 10});
  const auto scripted = run_stream(cfg, 100);
  ASSERT_EQ(plain.size(), 100u);
  ASSERT_EQ(scripted.size(), 99u);
  for (const Seen& s : scripted) {
    ASSERT_NE(s.token, 10u);
    // Same token, same CRC verdict as the un-scripted run.
    EXPECT_EQ(s.crc_ok, plain[s.token - 1].crc_ok) << s.token;
  }
}

// ---------------------------------------------------------------------------
// Reliability sublayer over a faulty raw network (no NIC, no MPI).
// ---------------------------------------------------------------------------

nic::ReliabilityConfig rel_cfg() {
  nic::ReliabilityConfig cfg;
  cfg.enabled = true;
  cfg.base_timeout_ps = 2'000'000;  // short: unit tests retry fast
  cfg.max_timeout_ps = 50'000'000;
  cfg.max_retries = 8;
  return cfg;
}

/// Two reliability endpoints over one faulty network; returns what node
/// 1's stack received, in order, plus both endpoints' stats.
struct Endpoints {
  sim::Engine engine;
  Network net{engine, net_cfg()};
  std::vector<std::uint64_t> delivered;  // tokens up node 1's stack
  nic::ReliabilityLayer tx;
  nic::ReliabilityLayer rx;

  explicit Endpoints(const FaultConfig& faults,
                     const nic::ReliabilityConfig& rel = rel_cfg())
      : tx(engine, "n0.rel", rel, net, 0, [](const Packet&) {}),
        rx(engine, "n1.rel", rel, net, 1, [this](const Packet& p) {
          delivered.push_back(p.token);
        }) {
    net.install_faults(faults);
    net.attach(0, [this](const Packet& p) { tx.on_network_delivery(p); });
    net.attach(1, [this](const Packet& p) { rx.on_network_delivery(p); });
  }

  void send_burst(int count, common::TimePs at = 0) {
    engine.schedule_at(at, [this, count] {
      for (int i = 1; i <= count; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 1;
        p.token = static_cast<std::uint64_t>(i);
        tx.send(p);
      }
    });
  }
};

std::vector<std::uint64_t> in_order(int count) {
  std::vector<std::uint64_t> v;
  for (int i = 1; i <= count; ++i) v.push_back(static_cast<std::uint64_t>(i));
  return v;
}

TEST(Reliability, RecoversAScriptedDropByRetransmission) {
  FaultConfig faults;
  faults.script.push_back(ScriptedFault{FaultKind::kDrop, 0, 1,
                                        std::nullopt, 2});
  Endpoints ep(faults);
  ep.send_burst(4);
  ep.engine.run();
  EXPECT_EQ(ep.delivered, in_order(4));
  EXPECT_GE(ep.tx.stats().retransmits, 1u);
  EXPECT_GE(ep.tx.stats().timeouts, 1u);
  EXPECT_EQ(ep.tx.stats().link_failures, 0u);
  // The go-back-N resend re-covers packets 3 and 4, which the receiver
  // already holds or has delivered: they are discarded as duplicates.
  EXPECT_GE(ep.rx.stats().dup_drops + ep.rx.stats().ooo_buffered, 1u);
}

TEST(Reliability, DiscardsDuplicatesExactlyOnceInOrder) {
  FaultConfig faults;
  faults.script.push_back(ScriptedFault{FaultKind::kDuplicate, 0, 1,
                                        std::nullopt, 3});
  Endpoints ep(faults);
  ep.send_burst(5);
  ep.engine.run();
  EXPECT_EQ(ep.delivered, in_order(5));
  EXPECT_EQ(ep.rx.stats().dup_drops, 1u);
}

TEST(Reliability, DropsCorruptedPacketsAndRecovers) {
  FaultConfig faults;
  faults.script.push_back(ScriptedFault{FaultKind::kCorrupt, 0, 1,
                                        std::nullopt, 1});
  Endpoints ep(faults);
  ep.send_burst(3);
  ep.engine.run();
  EXPECT_EQ(ep.delivered, in_order(3));
  EXPECT_EQ(ep.rx.stats().crc_drops, 1u);
  EXPECT_GE(ep.tx.stats().retransmits, 1u);
}

TEST(Reliability, ReleasesReorderedPacketsInSequence) {
  FaultConfig faults;
  faults.reorder_window_ps = 1'000'000;
  faults.script.push_back(ScriptedFault{FaultKind::kReorder, 0, 1,
                                        std::nullopt, 1});
  Endpoints ep(faults);
  ep.send_burst(3);
  ep.engine.run();
  EXPECT_EQ(ep.delivered, in_order(3));
  EXPECT_GE(ep.rx.stats().ooo_buffered, 1u);
}

TEST(Reliability, BoundedRetriesDeclareLinkFailureAndDrain) {
  FaultConfig faults;
  faults.drop_rate = 1.0;  // nothing ever gets through
  Endpoints ep(faults);
  ep.send_burst(2);
  ep.engine.run();  // must terminate: no infinite retransmission
  EXPECT_TRUE(ep.delivered.empty());
  EXPECT_EQ(ep.tx.stats().link_failures, 1u);
  EXPECT_TRUE(ep.tx.any_link_failed());
  EXPECT_EQ(ep.tx.stats().timeouts, rel_cfg().max_retries);
  EXPECT_EQ(ep.tx.window_size(1), 0u);  // window discarded, not leaked
}

TEST(Reliability, SurvivesACompoundFaultStorm) {
  FaultConfig faults;
  faults.drop_rate = 0.10;
  faults.dup_rate = 0.05;
  faults.reorder_rate = 0.05;
  faults.corrupt_rate = 0.05;
  faults.reorder_window_ps = 500'000;
  faults.seed = 99;
  Endpoints ep(faults);
  ep.send_burst(100);
  ep.engine.run();
  EXPECT_EQ(ep.delivered, in_order(100));
  EXPECT_EQ(ep.tx.stats().link_failures, 0u);
}

// ---------------------------------------------------------------------------
// RNR-NACK flow control: a slot-limited receiver over a faulty link.
// ---------------------------------------------------------------------------

/// Minimal receiver-side admission control: a fixed number of envelope
/// slots, each held until the test's drain pump releases it.
struct SlotAdmission final : nic::EagerAdmission {
  std::uint32_t slots;
  std::uint32_t used = 0;
  std::uint32_t peak = 0;
  std::uint64_t refusals = 0;

  explicit SlotAdmission(std::uint32_t s) : slots(s) {}

  bool try_admit(const Packet&) override {
    if (used >= slots) {
      ++refusals;
      return false;
    }
    ++used;
    peak = std::max(peak, used);
    return true;
  }
  std::uint64_t credit_bytes() const override { return ~std::uint64_t{0}; }
  std::uint32_t credit_slots() const override { return slots - used; }
};

/// Endpoints plus a slot-limited receiver.  `pump` models the host
/// draining one admitted message every `hold_ps` (releasing its slot
/// and pushing a credit) until `expect` messages came up the stack.
struct RnrEndpoints : Endpoints {
  SlotAdmission admission;
  common::TimePs hold_ps;

  RnrEndpoints(const FaultConfig& faults, std::uint32_t slots,
               common::TimePs hold = 500'000,
               const nic::ReliabilityConfig& rel = rel_cfg())
      : Endpoints(faults, rel), admission(slots), hold_ps(hold) {
    rx.set_admission(&admission);
  }

  void pump(std::size_t expect) {
    engine.schedule_at(engine.now() + hold_ps, [this, expect] {
      if (admission.used > 0) {
        --admission.used;
        rx.notify_credit_released();
      }
      if (delivered.size() < expect || admission.used > 0) pump(expect);
    });
  }
};

TEST(RnrFlowControl, RefusalNacksHoldAndCreditWakeDeliverEverything) {
  FaultConfig clean;
  RnrEndpoints ep(clean, /*slots=*/2);
  ep.send_burst(16);
  ep.pump(16);
  ep.engine.run();
  EXPECT_EQ(ep.delivered, in_order(16));
  // The burst far exceeds two slots, so refusals and NACKs are certain…
  EXPECT_GT(ep.admission.refusals, 0u);
  EXPECT_GT(ep.rx.stats().rnr_nacks_tx, 0u);
  EXPECT_EQ(ep.rx.stats().rnr_nacks_tx, ep.tx.stats().rnr_nacks_rx);
  EXPECT_GT(ep.tx.stats().rnr_retries, 0u);
  // …and the drain pump's credit pushes wake the paused window.
  EXPECT_GT(ep.rx.stats().credit_acks_tx, 0u);
  // The budget held: never more slots in use than the receiver owns.
  EXPECT_LE(ep.admission.peak, 2u);
  EXPECT_EQ(ep.tx.stats().link_failures, 0u);
}

TEST(RnrFlowControl, NackDoesNotAdvanceExpectedSequence) {
  // One slot, never drained until after the first refusal round: the
  // refused packet must be re-offered by go-back-N and delivered
  // exactly once, in order — a NACK that advanced the cumulative ack
  // would lose it silently.
  FaultConfig clean;
  RnrEndpoints ep(clean, /*slots=*/1);
  ep.send_burst(4);
  ep.pump(4);
  ep.engine.run();
  EXPECT_EQ(ep.delivered, in_order(4));
  EXPECT_GT(ep.rx.stats().rnr_nacks_tx, 0u);
  EXPECT_EQ(ep.tx.stats().link_failures, 0u);
}

TEST(RnrFlowControl, CompoundFaultMatrixStaysExactlyOnce) {
  // RNR refusals crossed with every drop/dup/reorder combination: the
  // flow-control NACKs ride the same lossy wire as the data, so lost
  // NACKs, duplicated retries and reordered credits all occur.  Every
  // combination must still deliver exactly once, in order, within the
  // budget, with no link declared dead.
  for (const double drop : {0.0, 0.08}) {
    for (const double dup : {0.0, 0.05}) {
      for (const double reorder : {0.0, 0.05}) {
        FaultConfig faults;
        faults.drop_rate = drop;
        faults.dup_rate = dup;
        faults.reorder_rate = reorder;
        faults.reorder_window_ps = 500'000;
        faults.seed = 17;
        SCOPED_TRACE("drop=" + std::to_string(drop) +
                     " dup=" + std::to_string(dup) +
                     " reorder=" + std::to_string(reorder));
        RnrEndpoints ep(faults, /*slots=*/2);
        ep.send_burst(40);
        ep.pump(40);
        ep.engine.run();
        EXPECT_EQ(ep.delivered, in_order(40));
        EXPECT_GT(ep.rx.stats().rnr_nacks_tx, 0u);
        EXPECT_LE(ep.admission.peak, 2u);
        EXPECT_EQ(ep.tx.stats().link_failures, 0u);
      }
    }
  }
}

TEST(RnrFlowControl, WedgedReceiverFailsTheLinkAndDrains) {
  // No slots and no drain: the refusal streak must exhaust the bounded
  // retry budget and declare the link failed — the simulation drains
  // instead of NACK-ping-ponging forever.
  FaultConfig clean;
  RnrEndpoints ep(clean, /*slots=*/0);
  ep.send_burst(2);
  ep.engine.run();  // must terminate
  EXPECT_TRUE(ep.delivered.empty());
  EXPECT_EQ(ep.tx.stats().link_failures, 1u);
  EXPECT_EQ(ep.tx.window_size(1), 0u);  // window discarded, not leaked
  EXPECT_GT(ep.rx.stats().rnr_nacks_tx, 0u);
}

// ---------------------------------------------------------------------------
// Pooled buffers (retransmit window ring / reserved reorder hold).
// ---------------------------------------------------------------------------

TEST(Reliability, PooledBuffersStopAllocatingAtSteadyState) {
  FaultConfig faults;
  faults.drop_rate = 0.08;
  faults.dup_rate = 0.04;
  faults.reorder_rate = 0.04;
  faults.corrupt_rate = 0.04;
  faults.seed = 7;
  Endpoints ep(faults);
  // Warm-up: the first burst grows the tx window ring to the burst size
  // and reserves the rx reorder buffer.
  ep.send_burst(64);
  ep.engine.run();
  ASSERT_EQ(ep.delivered, in_order(64));
  const std::uint64_t warm_tx = ep.tx.stats().buffer_allocs;
  const std::uint64_t warm_rx = ep.rx.stats().buffer_allocs;
  EXPECT_GT(warm_tx, 0u);   // the warm-up did allocate (ring growth)
  EXPECT_LE(warm_tx, 5u);   // ...but only log2-many times, not per packet
  EXPECT_LE(warm_rx, 1u);   // one reorder-buffer reservation

  // Steady state: ten more identical bursts through the same (faulty)
  // link, complete with retransmission storms — not one further buffer
  // allocation is allowed.
  for (int burst = 1; burst <= 10; ++burst) {
    ep.send_burst(64, ep.engine.now() + 1'000'000);
    ep.engine.run();
  }
  EXPECT_EQ(ep.delivered.size(), 64u * 11u);
  EXPECT_GT(ep.tx.stats().retransmits, 0u);
  EXPECT_EQ(ep.tx.stats().buffer_allocs, warm_tx);
  EXPECT_EQ(ep.rx.stats().buffer_allocs, warm_rx);
  EXPECT_EQ(ep.tx.stats().link_failures, 0u);
}

// ---------------------------------------------------------------------------
// Compound faults: SEU bit flips inside the ALPU crossed with network
// drop/dup/reorder.  The machine must stay exactly-once, in-order, and
// fully drained while parity detection, quarantine, and the firmware's
// scrub-and-rebuild recovery absorb the flips underneath the MPI
// traffic — and the verdict must not depend on the shard count.
// ---------------------------------------------------------------------------

workload::ChaosResult run_seu_chaos(double drop, double dup, double reorder,
                                    int shards) {
  workload::ChaosParams p;
  p.mode = workload::NicMode::kAlpu256;
  p.ranks = 4;
  p.per_pair = 6;
  p.seed = 3;
  p.faults.drop_rate = drop;
  p.faults.dup_rate = dup;
  p.faults.reorder_rate = reorder;
  p.faults.seed = 0x5eed;
  p.seu.rate = 5e-3;
  p.seu.seed = 0xFA17;
  p.seu.scrub_interval_ps = 50'000'000;  // 50 us
  p.shards = shards;
  return workload::run_chaos(p);
}

TEST(SeuChaos, CompoundFaultMatrixSurvivesBitFlips) {
  std::uint64_t injected = 0, detected = 0, rebuilt = 0;
  for (const double drop : {0.0, 0.05}) {
    for (const double dup : {0.0, 0.03}) {
      for (const double reorder : {0.0, 0.03}) {
        SCOPED_TRACE("drop=" + std::to_string(drop) +
                     " dup=" + std::to_string(dup) +
                     " reorder=" + std::to_string(reorder));
        const workload::ChaosResult r =
            run_seu_chaos(drop, dup, reorder, /*shards=*/1);
        EXPECT_TRUE(r.ok())
            << "completed=" << r.completed << " conserved=" << r.conserved
            << " ordered=" << r.ordered << " drained=" << r.drained
            << " link_failures=" << r.reliability.link_failures;
        injected += r.seu_injected;
        detected += r.parity_faults;
        rebuilt += r.rebuilds;
      }
    }
  }
  // The matrix as a whole must actually have exercised the machinery.
  EXPECT_GT(injected, 0u);
  EXPECT_GT(detected, 0u);
  EXPECT_GT(rebuilt, 0u);
}

TEST(SeuChaos, VerdictAndCountersAreShardInvariant) {
  const workload::ChaosResult base = run_seu_chaos(0.05, 0.02, 0.02, 1);
  ASSERT_TRUE(base.ok());
  EXPECT_GT(base.seu_injected, 0u);
  for (const int shards : {2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const workload::ChaosResult r = run_seu_chaos(0.05, 0.02, 0.02, shards);
    EXPECT_EQ(r.ok(), base.ok());
    EXPECT_EQ(r.sim_time, base.sim_time);
    EXPECT_EQ(r.messages, base.messages);
    EXPECT_EQ(r.seu_injected, base.seu_injected);
    EXPECT_EQ(r.parity_faults, base.parity_faults);
    EXPECT_EQ(r.scrub_sweeps, base.scrub_sweeps);
    EXPECT_EQ(r.rebuilds, base.rebuilds);
    EXPECT_EQ(r.seu_detect_latency_ps, base.seu_detect_latency_ps);
    EXPECT_EQ(r.fallback_resets, base.fallback_resets);
    EXPECT_EQ(r.reliability.retransmits, base.reliability.retransmits);
  }
}

TEST(SeuChaos, ShorterScrubIntervalTightensDetectionLatency) {
  // The scrub sweep is what bounds detection latency for corruption in
  // entries no probe happens to touch: sweeping 10x more often must
  // not worsen the mean injection-to-detection latency.
  const auto run_with_scrub = [](common::TimePs interval) {
    workload::ChaosParams p;
    p.mode = workload::NicMode::kAlpu256;
    p.ranks = 4;
    p.per_pair = 6;
    p.seed = 3;
    p.faults.drop_rate = 0.02;
    p.faults.seed = 0x5eed;
    p.seu.rate = 5e-3;
    p.seu.seed = 0xFA17;
    p.seu.scrub_interval_ps = interval;
    return workload::run_chaos(p);
  };
  const workload::ChaosResult fast = run_with_scrub(10'000'000);   // 10 us
  const workload::ChaosResult slow = run_with_scrub(100'000'000);  // 100 us
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  ASSERT_GT(fast.parity_faults, 0u);
  ASSERT_GT(slow.parity_faults, 0u);
  const double fast_mean =
      static_cast<double>(fast.seu_detect_latency_ps) /
      static_cast<double>(fast.parity_faults);
  const double slow_mean =
      static_cast<double>(slow.seu_detect_latency_ps) /
      static_cast<double>(slow.parity_faults);
  EXPECT_LE(fast_mean, slow_mean);
  // (Sweep counts are not comparable across the two runs: detection
  // changes the run length, and the idle-parking heuristic changes how
  // many sweeps an idle stretch costs.)
  EXPECT_GT(fast.scrub_sweeps, 0u);
  EXPECT_GT(slow.scrub_sweeps, 0u);
}

}  // namespace
}  // namespace alpu::net
