// NIC-level integration tests: firmware accounting, queue management,
// ALPU offload bookkeeping, DMA, policies.
#include <gtest/gtest.h>

#include "mpi/mpi.hpp"
#include "workload/scenarios.hpp"

namespace alpu::nic {
namespace {

using mpi::Machine;
using mpi::Request;
using mpi::SystemConfig;
using workload::make_system_config;
using workload::NicMode;

/// Post `n` receives on rank 0 (never matched) and run to quiescence.
void post_n_receives(Machine& machine, sim::Engine& engine, int n) {
  sim::ProcessPool pool(engine);
  auto program = [n](Machine& m) -> sim::Process {
    for (int i = 0; i < n; ++i) {
      (void)m.rank(0).irecv(1, 1000, 0);
    }
    co_await sim::delay(m.engine(), 1'000'000);  // let firmware drain
  };
  pool.spawn(program(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());
}

TEST(Nic, PostedQueueLengthTracksReceives) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  post_n_receives(machine, engine, 37);
  EXPECT_EQ(machine.nic(0).posted_queue_length(), 37u);
  EXPECT_EQ(machine.nic(0).stats().posted_appends, 37u);
}

TEST(Nic, AlpuMirrorsPostedQueuePrefix) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kAlpu128));
  post_n_receives(machine, engine, 50);
  ASSERT_NE(machine.nic(0).posted_alpu(), nullptr);
  // Everything fits: the ALPU holds the whole queue.
  EXPECT_EQ(machine.nic(0).posted_alpu()->array().occupancy(), 50u);
  EXPECT_EQ(machine.nic(0).stats().alpu_entries_inserted, 50u);
}

TEST(Nic, AlpuStopsAtCapacityAndQueueOverflowsInSoftware) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kAlpu128));
  post_n_receives(machine, engine, 200);
  EXPECT_EQ(machine.nic(0).posted_queue_length(), 200u);
  EXPECT_EQ(machine.nic(0).posted_alpu()->array().occupancy(), 128u);
  EXPECT_EQ(machine.nic(0).posted_alpu()->stats().inserts_dropped, 0u);
}

TEST(Nic, InsertThresholdDefersOffload) {
  SystemConfig cfg = make_system_config(NicMode::kAlpu128);
  cfg.nic.alpu_policy.insert_threshold = 10;
  sim::Engine engine;
  Machine machine(engine, cfg);
  post_n_receives(machine, engine, 5);
  // Below threshold: nothing moves into the ALPU.
  EXPECT_EQ(machine.nic(0).posted_alpu()->array().occupancy(), 0u);
  EXPECT_EQ(machine.nic(0).stats().alpu_insert_sessions, 0u);
}

TEST(Nic, InsertThresholdCrossedLoadsWholeQueue) {
  SystemConfig cfg = make_system_config(NicMode::kAlpu128);
  cfg.nic.alpu_policy.insert_threshold = 10;
  sim::Engine engine;
  Machine machine(engine, cfg);
  post_n_receives(machine, engine, 12);
  EXPECT_EQ(machine.nic(0).posted_alpu()->array().occupancy(), 12u);
}

TEST(Nic, FirmwareBusyTimeAccrues) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  post_n_receives(machine, engine, 10);
  EXPECT_GT(machine.nic(0).stats().firmware_busy, 0u);
}

TEST(Nic, EveryRequestGetsExactlyOneCompletion) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  sim::ProcessPool pool(engine);
  auto sender = [](Machine& m) -> sim::Process {
    for (int i = 0; i < 10; ++i) {
      co_await m.rank(1).send(0, 1, 16);
    }
  };
  auto receiver = [](Machine& m) -> sim::Process {
    for (int i = 0; i < 10; ++i) {
      co_await m.rank(0).recv(1, 1, 16);
    }
  };
  pool.spawn(receiver(machine));
  pool.spawn(sender(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());
  EXPECT_EQ(machine.host(0).completions_seen(), 10u);  // 10 recvs
  EXPECT_EQ(machine.host(1).completions_seen(), 10u);  // 10 sends
}

TEST(Nic, DmaMovesTheBytes) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  sim::ProcessPool pool(engine);
  auto sender = [](Machine& m) -> sim::Process {
    co_await m.rank(1).send(0, 1, 4096);
  };
  auto receiver = [](Machine& m) -> sim::Process {
    co_await m.rank(0).recv(1, 1, 4096);
  };
  pool.spawn(receiver(machine));
  pool.spawn(sender(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());
  // Tx side pulled 4096 from host memory; Rx side pushed 4096 up.
  EXPECT_EQ(machine.nic(1).stats().packets_tx, 1u);
  EXPECT_EQ(machine.nic(0).stats().eager_rx, 1u);
}

TEST(Nic, UnexpectedQueueDrainsOnMatch) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kAlpu128));
  sim::ProcessPool pool(engine);
  auto sender = [](Machine& m) -> sim::Process {
    for (int i = 0; i < 30; ++i) {
      co_await m.rank(1).send(0, i, 8);
    }
  };
  auto receiver = [](Machine& m) -> sim::Process {
    co_await sim::delay(m.engine(), 100'000'000);  // all land unexpected
    EXPECT_EQ(m.nic(0).unexpected_queue_length(), 30u);
    // The unexpected ALPU mirrors them.
    EXPECT_EQ(m.nic(0).unexpected_alpu()->array().occupancy(), 30u);
    for (int i = 0; i < 30; ++i) {
      Request r;
      co_await m.rank(0).recv(1, i, 8, mpi::kWorldContext, &r);
      EXPECT_EQ(r.matched().tag, static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(m.nic(0).unexpected_queue_length(), 0u);
    EXPECT_EQ(m.nic(0).unexpected_alpu()->array().occupancy(), 0u);
  };
  pool.spawn(receiver(machine));
  pool.spawn(sender(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());
}

TEST(Nic, AlpuRefillsAfterMatchesFreeSlots) {
  // Fill the 128-entry ALPU from a 150-entry queue, match 30 via the
  // ALPU, and verify the firmware tops the unit back up from the
  // software overflow portion.
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kAlpu128));
  sim::ProcessPool pool(engine);
  auto receiver = [](Machine& m) -> sim::Process {
    std::vector<Request> head;
    for (int i = 0; i < 30; ++i) {
      head.push_back(m.rank(0).irecv(1, i, 8));  // will be matched
    }
    for (int i = 0; i < 120; ++i) {
      (void)m.rank(0).irecv(1, 5000, 0);  // never matched
    }
    co_await m.rank(0).send(1, 99, 0);
    co_await m.rank(0).waitall(std::move(head));
    co_await sim::delay(m.engine(), 10'000'000);  // let refill happen
    EXPECT_EQ(m.nic(0).posted_queue_length(), 120u);
    EXPECT_EQ(m.nic(0).posted_alpu()->array().occupancy(), 120u);
  };
  auto sender = [](Machine& m) -> sim::Process {
    co_await m.rank(1).recv(0, 99, 0);
    for (int i = 0; i < 30; ++i) {
      co_await m.rank(1).send(0, i, 8);
    }
  };
  pool.spawn(receiver(machine));
  pool.spawn(sender(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());
}

TEST(Nic, MinBatchDefersSessionsUnderLoadButSyncsWhenIdle) {
  SystemConfig cfg = make_system_config(NicMode::kAlpu128);
  cfg.nic.alpu_policy.min_batch = 16;
  sim::Engine engine;
  Machine machine(engine, cfg);
  post_n_receives(machine, engine, 40);
  // Everything ends up in the unit (idle sync covers the tail)...
  EXPECT_EQ(machine.nic(0).posted_alpu()->array().occupancy(), 40u);
  // ...but in far fewer sessions than the eager default's one-per-post.
  EXPECT_LE(machine.nic(0).stats().alpu_insert_sessions, 8u);
}

TEST(Nic, EagerSyncRunsManySmallSessions) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kAlpu128));
  post_n_receives(machine, engine, 40);
  EXPECT_EQ(machine.nic(0).posted_alpu()->array().occupancy(), 40u);
  // min_batch=1 (the paper's behaviour): roughly one session per post.
  EXPECT_GE(machine.nic(0).stats().alpu_insert_sessions, 20u);
}

TEST(Nic, BaselineHasNoAlpu) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  EXPECT_EQ(machine.nic(0).posted_alpu(), nullptr);
  EXPECT_EQ(machine.nic(0).unexpected_alpu(), nullptr);
}

TEST(Nic, WalkStatsCountSoftwareTraversal) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  sim::ProcessPool pool(engine);
  auto receiver = [](Machine& m) -> sim::Process {
    for (int i = 0; i < 20; ++i) {
      (void)m.rank(0).irecv(1, 1000 + i, 0);  // 20 non-matching entries
    }
    Request r = m.rank(0).irecv(1, 7, 8);
    co_await m.rank(0).send(1, 99, 0);
    co_await m.rank(0).wait(r);
    // The match walked all 20 decoys plus the hit.
    EXPECT_EQ(m.nic(0).stats().posted_entries_walked, 21u);
  };
  auto sender = [](Machine& m) -> sim::Process {
    co_await m.rank(1).recv(0, 99, 0);
    co_await m.rank(1).send(0, 7, 8);
  };
  pool.spawn(receiver(machine));
  pool.spawn(sender(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());
}

// ---------------------------------------------------------------------------
// Reliability: rendezvous leg-loss matrix
// ---------------------------------------------------------------------------

/// One 32 KB rendezvous transfer 1 -> 0 under a fault script; returns
/// the receiver-observed outcome.
struct RdvzOutcome {
  std::uint32_t bytes = 0;
  common::TimePs finished = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t link_failures = 0;
  bool completed = false;
};

RdvzOutcome run_rendezvous_under(const net::FaultConfig& faults) {
  SystemConfig cfg = make_system_config(NicMode::kAlpu128);
  cfg.nic.reliability.enabled = true;
  cfg.faults = faults;
  sim::Engine engine;
  Machine machine(engine, cfg);
  sim::ProcessPool pool(engine);
  RdvzOutcome out;
  auto receiver = [&out](Machine& m) -> sim::Process {
    Request r = m.rank(0).irecv(1, 7, 32 * 1024);
    co_await m.rank(0).send(1, 99, 0);  // handshake: receive is posted
    co_await m.rank(0).wait(r);
    out.bytes = r.bytes();
    out.finished = m.engine().now();
  };
  auto sender = [](Machine& m) -> sim::Process {
    co_await m.rank(1).recv(0, 99, 0);
    co_await m.rank(1).send(0, 7, 32 * 1024);  // > eager_threshold
  };
  pool.spawn(receiver(machine));
  pool.spawn(sender(machine));
  engine.run();
  out.completed = pool.all_done();
  for (int n = 0; n < 2; ++n) {
    out.retransmits += machine.nic(n).reliability().stats().retransmits;
    out.link_failures += machine.nic(n).reliability().stats().link_failures;
  }
  return out;
}

/// Losing any single leg of the RTS/CTS/DATA handshake must be invisible
/// at the MPI level: same bytes delivered, merely later.
TEST(NicReliability, RendezvousSurvivesLossOfAnyLeg) {
  const RdvzOutcome clean = run_rendezvous_under(net::FaultConfig{});
  ASSERT_TRUE(clean.completed);
  ASSERT_EQ(clean.bytes, 32u * 1024u);
  EXPECT_EQ(clean.retransmits, 0u);

  struct Leg {
    const char* name;
    net::NodeId src, dst;
    net::PacketKind kind;
  };
  const Leg legs[] = {
      {"RTS", 1, 0, net::PacketKind::kRtsRendezvous},
      {"CTS", 0, 1, net::PacketKind::kCtsRendezvous},
      {"DATA", 1, 0, net::PacketKind::kRendezvousData},
  };
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.name);
    net::FaultConfig faults;
    faults.script.push_back(
        net::ScriptedFault{net::FaultKind::kDrop, leg.src, leg.dst,
                           leg.kind, 1});
    const RdvzOutcome lossy = run_rendezvous_under(faults);
    EXPECT_TRUE(lossy.completed);
    EXPECT_EQ(lossy.bytes, clean.bytes);
    EXPECT_GE(lossy.retransmits, 1u);
    EXPECT_EQ(lossy.link_failures, 0u);
    // Recovery costs at least one retransmit timeout.
    EXPECT_GT(lossy.finished, clean.finished);
  }
}

TEST(NicReliability, CleanRunWithLayerEnabledStillDeliversEverything) {
  // Reliability on, zero faults: pure sequencing/ACK overhead must not
  // perturb MPI outcomes.
  const RdvzOutcome out = run_rendezvous_under(net::FaultConfig{});
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.bytes, 32u * 1024u);
  EXPECT_EQ(out.retransmits, 0u);
  EXPECT_EQ(out.link_failures, 0u);
}

// ---------------------------------------------------------------------------
// Graceful ALPU degradation under header-FIFO back-pressure
// ---------------------------------------------------------------------------

TEST(NicDegradation, HeaderFifoRejectionFallsBackAndRecovers) {
  // A hostile unit: ~200x slower than ASIC speed with a 2-deep header
  // FIFO, so a burst of back-to-back arrivals (~20 ns apart on the
  // Table-III link) must overflow it.  The NIC is required to reject the
  // probe, reset the unit, run the software path, deliver every message
  // anyway — and re-shadow the queue once the storm passes.
  SystemConfig cfg = make_system_config(NicMode::kAlpu128);
  cfg.nic.posted_alpu->clock = common::ClockPeriod::from_mhz(2);
  cfg.nic.posted_alpu->header_fifo_depth = 2;
  sim::Engine engine;
  Machine machine(engine, cfg);
  sim::ProcessPool pool(engine);
  constexpr int kBurst = 12;
  auto receiver = [](Machine& m) -> sim::Process {
    std::vector<Request> rs;
    for (int i = 0; i < kBurst; ++i) {
      rs.push_back(m.rank(0).irecv(1, i, 8));
    }
    // Wait until the unit actually holds entries (probes enabled), then
    // release the burst.
    while (m.nic(0).posted_alpu()->array().occupancy() == 0) {
      co_await sim::delay(m.engine(), 1'000'000'000);
    }
    co_await m.rank(0).send(1, 99, 0);
    for (Request& r : rs) {
      co_await m.rank(0).wait(r);
      EXPECT_EQ(r.bytes(), 8u);
    }
  };
  auto sender = [](Machine& m) -> sim::Process {
    co_await m.rank(1).recv(0, 99, 0);
    std::vector<Request> sends;
    for (int i = 0; i < kBurst; ++i) {
      sends.push_back(m.rank(1).isend(0, i, 8));  // back-to-back wire burst
    }
    co_await m.rank(1).waitall(std::move(sends));
  };
  pool.spawn(receiver(machine));
  pool.spawn(sender(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());

  const NicStats& s = machine.nic(0).stats();
  EXPECT_GE(s.alpu_probe_rejections, 1u);  // the FIFO did overflow
  EXPECT_GE(s.alpu_fallback_resets, 1u);   // the unit was reset, not trusted
  EXPECT_GE(s.alpu_fallback_searches, 1u); // software answered instead
  // Every message was still matched and delivered (the waits above), and
  // the queue fully drained.
  EXPECT_EQ(machine.nic(0).posted_queue_length(), 0u);
  EXPECT_EQ(machine.nic(0).posted_alpu()->array().occupancy(), 0u);

  // Recovery: new postings re-shadow into the (reset) unit.
  sim::ProcessPool pool2(engine);
  auto repost = [](Machine& m) -> sim::Process {
    for (int i = 0; i < 5; ++i) {
      (void)m.rank(0).irecv(1, 1000 + i, 0);
    }
    co_await sim::delay(m.engine(), 50'000'000'000);  // slow clock: be generous
  };
  pool2.spawn(repost(machine));
  engine.run();
  ASSERT_TRUE(pool2.all_done());
  EXPECT_EQ(machine.nic(0).posted_alpu()->array().occupancy(), 5u);
}

TEST(Nic, AlpuHitSkipsSoftwareWalk) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kAlpu128));
  sim::ProcessPool pool(engine);
  auto receiver = [](Machine& m) -> sim::Process {
    for (int i = 0; i < 20; ++i) {
      (void)m.rank(0).irecv(1, 1000 + i, 0);
    }
    Request r = m.rank(0).irecv(1, 7, 8);
    co_await m.rank(0).send(1, 99, 0);
    co_await m.rank(0).wait(r);
    EXPECT_EQ(m.nic(0).stats().alpu_posted_hits, 1u);  // the ping
    EXPECT_EQ(m.nic(0).stats().posted_entries_walked, 0u);
  };
  auto sender = [](Machine& m) -> sim::Process {
    co_await m.rank(1).recv(0, 99, 0);
    co_await m.rank(1).send(0, 7, 8);
  };
  pool.spawn(receiver(machine));
  pool.spawn(sender(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());
}

TEST(Nic, MatchCountersSumTheListsAndTheUnits) {
  // An ALPU-256 pre-posted point whose message matches the 151st of 301
  // receives: the unit answers it, and the software list erases the
  // entry.  Only the transaction model counts its array's probe work;
  // both count dropped inserts.  The values are measured, not derived:
  // a change to them is a change to what the NIC counts.
  struct Want {
    AlpuModelKind model;
    common::MatchCounters counters;
  };
  for (const Want& want :
       {Want{AlpuModelKind::kTransaction, {302, 192, 255, 0}},
        Want{AlpuModelKind::kPipelined, {301, 0, 150, 0}}}) {
    SCOPED_TRACE(want.model == AlpuModelKind::kTransaction ? "transaction"
                                                           : "pipelined");
    workload::PrepostedParams p;
    p.mode = NicMode::kAlpu256;
    p.queue_length = 300;
    p.fraction_traversed = 0.5;
    p.system = make_system_config(NicMode::kAlpu256);
    p.system->nic.alpu_model = want.model;
    const common::MatchCounters got = workload::run_preposted(p).match_counters;
    EXPECT_EQ(got.probes, want.counters.probes);
    EXPECT_EQ(got.cells_scanned, want.counters.cells_scanned);
    EXPECT_EQ(got.compaction_moves, want.counters.compaction_moves);
    EXPECT_EQ(got.inserts_dropped, want.counters.inserts_dropped);
  }
}

}  // namespace
}  // namespace alpu::nic
