// Unit tests for the host processor model.
#include <gtest/gtest.h>

#include <utility>

#include "common/rng.hpp"
#include "mem/memory_system.hpp"
#include "mpi/mpi.hpp"
#include "throwing_checks.hpp"
#include "workload/scenarios.hpp"

namespace alpu::host {
namespace {

using mpi::Machine;
using testutil::CheckFailure;
using testutil::ThrowingChecks;
using workload::make_system_config;
using workload::NicMode;

TEST(Host, SubmitAssignsDistinctRequestIds) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  Host& host = machine.host(0);
  nic::HostRequest req;
  req.kind = nic::RequestKind::kPostRecv;
  req.pattern = match::make_recv_pattern(0, 1, 1);
  auto a = host.submit(req);
  auto b = host.submit(req);
  EXPECT_NE(a, b);
  EXPECT_FALSE(a->done);
  EXPECT_FALSE(b->done);
  engine.run();
}

TEST(Host, DoorbellDelaysDescriptorArrival) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  Host& host = machine.host(0);
  nic::HostRequest req;
  req.kind = nic::RequestKind::kPostRecv;
  req.pattern = match::make_recv_pattern(0, 1, 1);
  (void)host.submit(req);
  // Immediately after submit, nothing has reached the NIC.
  EXPECT_EQ(machine.nic(0).posted_queue_length(), 0u);
  // After dispatch + doorbell + firmware processing, it has.
  engine.run_until(2'000'000);  // 2 us
  EXPECT_EQ(machine.nic(0).posted_queue_length(), 1u);
}

TEST(Host, WaitBlocksUntilCompletion) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  sim::ProcessPool pool(engine);
  bool finished = false;
  auto program = [&](Machine& m) -> sim::Process {
    mpi::Request r = m.rank(0).irecv(1, 5, 64);
    co_await m.rank(0).wait(r);
    finished = true;
  };
  auto sender = [](Machine& m) -> sim::Process {
    co_await sim::delay(m.engine(), 10'000'000);
    co_await m.rank(1).send(0, 5, 64);
  };
  pool.spawn(program(machine));
  pool.spawn(sender(machine));
  engine.run_until(5'000'000);
  EXPECT_FALSE(finished);  // nothing sent yet
  engine.run();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(pool.all_done());
}

TEST(Host, CompletionCountsMatchRequests) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  sim::ProcessPool pool(engine);
  auto program = [](Machine& m) -> sim::Process {
    std::vector<mpi::Request> reqs;
    for (int i = 0; i < 7; ++i) reqs.push_back(m.rank(0).isend(1, i, 32));
    co_await m.rank(0).waitall(std::move(reqs));
  };
  auto sink = [](Machine& m) -> sim::Process {
    for (int i = 0; i < 7; ++i) {
      co_await m.rank(1).recv(0, i, 32);
    }
  };
  pool.spawn(program(machine));
  pool.spawn(sink(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());
  EXPECT_EQ(machine.host(0).completions_seen(), 7u);
}

TEST(Host, BufferAllocationsDoNotOverlap) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  Host& host = machine.host(0);
  const mem::Addr a = host.alloc_buffer(1000);
  const mem::Addr b = host.alloc_buffer(1000);
  EXPECT_GE(b, a + 1000);
}

TEST(Host, SteadyStateSubmitCostIsDeterministic) {
  // Ring-record accesses cost a constant L1 hit: the same program
  // started twice in fresh machines takes exactly the same simulated
  // time (the basis for every calibration claim).
  auto run_once = [] {
    sim::Engine engine;
    Machine machine(engine, make_system_config(NicMode::kBaseline));
    sim::ProcessPool pool(engine);
    auto rx = [](Machine& m) -> sim::Process {
      for (int i = 0; i < 5; ++i) co_await m.rank(0).recv(1, 1, 64);
    };
    auto tx = [](Machine& m) -> sim::Process {
      for (int i = 0; i < 5; ++i) co_await m.rank(1).send(0, 1, 64);
    };
    pool.spawn(rx(machine));
    pool.spawn(tx(machine));
    return engine.run();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Host, RingRecordsAreL1HitsInTheTableIIIHierarchy) {
  // The host charges `l1_hit_ps` per ring record.  Pin that constant to
  // a cache model of Table III's L1: pre-touched as the rings once were,
  // it hits on every request-record store and completion-record load of
  // a seeded stream.
  const HostConfig config;
  mem::MemorySystem memory({.l1 = config.l1, .l1_hit_ps = config.l1_hit_ps});
  for (mem::Addr k = 0; k < 64; ++k) {
    (void)memory.store(0xF000'0000 + k * 64);
    (void)memory.store(0xF800'0000 + k * 64);
  }
  common::Xoshiro256 rng(26);
  for (int i = 0; i < 10'000; ++i) {
    const mem::Addr k = rng.below(64);
    ASSERT_EQ(memory.store(0xF000'0000 + k * 64), config.l1_hit_ps);
    ASSERT_EQ(memory.load(0xF800'0000 + k * 64), config.l1_hit_ps);
  }
  EXPECT_EQ(memory.l1_stats().misses, 128u);  // the pre-touch's fills
}

TEST(Host, RejectsAnL1ThatCannotHoldBothRings) {
  sim::Engine engine;
  Machine machine(engine, make_system_config(NicMode::kBaseline));
  const ThrowingChecks checks;
  // 4 KB direct-mapped gives each of 64 sets a line of each ring; with
  // 32-byte lines and 2 ways, each even set gets two lines of each.
  using Shape = std::pair<std::size_t, std::size_t>;  // line bytes, ways
  for (const auto& [line_bytes, ways] : {Shape{64, 1}, Shape{32, 2}}) {
    HostConfig config;
    config.l1 = {
        .size_bytes = 4 * 1024, .line_bytes = line_bytes, .ways = ways};
    EXPECT_THROW(Host(engine, "host", machine.nic(0), config), CheckFailure);
  }
  // Exactly enough: 8 KB 2-way gives each ring line one of two ways,
  // whether records use every other line, each line or half of one.
  for (const std::size_t line_bytes : {32, 64, 128}) {
    mpi::SystemConfig fits = make_system_config(NicMode::kBaseline);
    fits.host.l1 = {
        .size_bytes = 8 * 1024, .line_bytes = line_bytes, .ways = 2};
    sim::Engine other;
    EXPECT_NO_THROW(Machine(other, fits));
  }
}

TEST(Host, MemoryHierarchyMatchesTableIII) {
  const HostConfig config;
  EXPECT_EQ(config.l1.size_bytes, 64u * 1024u);
  EXPECT_EQ(config.l1.line_bytes, 64u);
  EXPECT_EQ(config.l1.ways, 2u);
  EXPECT_EQ(config.clock.period(), 500u);  // 2 GHz
}

}  // namespace
}  // namespace alpu::host
