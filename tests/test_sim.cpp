// Unit tests for the DES kernel: engine, clock, coroutine processes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/watchdog.hpp"

namespace alpu::sim {
namespace {

using common::TimePs;

// ---- Engine ----------------------------------------------------------------

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 30u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeEventsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  TimePs seen = 0;
  e.schedule_at(100, [&] {
    e.schedule_in(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(10, [&] { ran = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelUnknownIdIsNoop) {
  Engine e;
  e.cancel(999);
  bool ran = false;
  e.schedule_at(1, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, CancelAfterFireIsNoop) {
  // Regression: cancelling an id that already fired used to insert it
  // into a lazy-cancel set that was never drained, so idle() stayed
  // false forever and the set grew without bound.  With the slot pool
  // the stale id no longer matches any live slot and the cancel is a
  // pure no-op.
  Engine e;
  int ran = 0;
  const EventId id = e.schedule_at(10, [&] { ++ran; });
  e.run();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(e.idle());
  e.cancel(id);  // stale: event already executed
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.pending_events(), 0u);
  // The engine keeps working normally afterwards.
  e.schedule_at(20, [&] { ++ran; });
  e.run();
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(e.idle());
}

TEST(Engine, StaleIdAfterSlotReuseIsNoop) {
  // A stale id whose slot has been recycled by a newer event must not
  // cancel that newer event (the sequence half of the packed id
  // protects against ABA).
  Engine e;
  bool first = false;
  const EventId id = e.schedule_at(1, [&] { first = true; });
  e.run();
  EXPECT_TRUE(first);
  bool second = false;
  e.schedule_at(2, [&] { second = true; });  // reuses the freed slot
  e.cancel(id);                              // stale id, recycled slot
  e.run();
  EXPECT_TRUE(second);
}

TEST(Engine, DoubleCancelIsNoop) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(10, [&] { ran = true; });
  bool other = false;
  e.schedule_at(11, [&] { other = true; });
  e.cancel(id);
  e.cancel(id);  // second cancel must not free the slot twice
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(other);
  EXPECT_TRUE(e.idle());
}

TEST(Engine, PendingEventsCountsLiveOnly) {
  Engine e;
  const EventId a = e.schedule_at(10, [] {});
  e.schedule_at(20, [] {});
  e.schedule_at(30, [] {});
  EXPECT_EQ(e.pending_events(), 3u);
  e.cancel(a);
  EXPECT_EQ(e.pending_events(), 2u);  // cancelled leaves no residue
  e.run();
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.events_executed(), 2u);  // cancelled events never execute
}

TEST(Engine, CancelledEventsDoNotExecute) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(e.schedule_at(static_cast<TimePs>(i), [] {}));
  }
  for (size_t i = 0; i < ids.size(); i += 2) e.cancel(ids[i]);
  e.run();
  EXPECT_EQ(e.events_executed(), 50u);
  EXPECT_TRUE(e.idle());
}

TEST(Engine, FifoOrderSurvivesCancelChurn) {
  // Cancelling interleaved same-time events must not disturb the FIFO
  // order of the survivors (determinism contract).
  Engine e;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(e.schedule_at(5, [&order, i] { order.push_back(i); }));
  }
  for (size_t i = 0; i < ids.size(); i += 3) e.cancel(ids[i]);
  e.run();
  std::vector<int> expect;
  for (int i = 0; i < 20; ++i) {
    if (i % 3 != 0) expect.push_back(i);
  }
  EXPECT_EQ(order, expect);
}

TEST(Engine, LargeCaptureCallbacksWork) {
  // Captures beyond the inline buffer take the heap fallback; both
  // paths must run and destroy correctly.
  Engine e;
  struct Big {
    std::uint64_t vals[16] = {};
  };
  Big big;
  big.vals[15] = 42;
  std::uint64_t seen = 0;
  e.schedule_at(1, [big, &seen] { seen = big.vals[15]; });
  e.run();
  EXPECT_EQ(seen, 42u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  std::vector<TimePs> fired;
  e.schedule_at(10, [&] { fired.push_back(10); });
  e.schedule_at(20, [&] { fired.push_back(20); });
  e.schedule_at(30, [&] { fired.push_back(30); });
  e.run_until(20);
  EXPECT_EQ(fired, (std::vector<TimePs>{10, 20}));  // deadline inclusive
  e.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Engine, StopReturnsEarly) {
  Engine e;
  int count = 0;
  e.schedule_at(1, [&] {
    ++count;
    e.stop();
  });
  e.schedule_at(2, [&] { ++count; });
  e.run();
  EXPECT_EQ(count, 1);
  e.run();  // resumes where it left off
  EXPECT_EQ(count, 2);
}

TEST(Engine, EventsExecutedCounts) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 5u);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.schedule_in(1, chain);
  };
  e.schedule_at(0, chain);
  EXPECT_EQ(e.run(), 99u);
  EXPECT_EQ(depth, 100);
}

TEST(Engine, CallbackCancellingItsOwnIdIsNoop) {
  // The callback runs in its slot: cancelling its own id from inside must
  // neither destroy the running callable nor free the slot under it.
  Engine e;
  const std::vector<int> payload(32, 3);
  EventId self = 0;
  int sum = 0;
  std::vector<int> order;
  self = e.schedule_at(10, [&, payload] {
    e.cancel(self);
    for (int v : payload) sum += v;  // the captures are still alive
    e.schedule_in(1, [&] { order.push_back(2); });
    e.schedule_in(1, [&] { order.push_back(3); });
  });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(sum, 96);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.events_executed(), 4u);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, CallbackGrowingThePoolPastABlockKeepsItsSlot) {
  // Slots come in blocks of 512.  A callback that schedules past a block
  // boundary grows the pool while its own slot is live: it must go on
  // running in place, with its captures intact.
  Engine e;
  const std::vector<int> payload(64, 7);
  int sum = 0;
  int fired = 0;
  e.schedule_at(1, [&, payload] {
    for (int i = 0; i < 1'500; ++i) {
      e.schedule_in(static_cast<TimePs>(1 + i), [&fired] { ++fired; });
    }
    for (int v : payload) sum += v;
  });
  e.run();
  EXPECT_EQ(sum, 64 * 7);
  EXPECT_EQ(fired, 1'500);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, DestroyingTheEngineReleasesPendingCaptures) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  {
    Engine engine;
    engine.schedule_at(10, [first] {});
    // Slots come in blocks of 512: 600 more events reach a second block.
    for (int i = 0; i < 600; ++i) engine.schedule_at(20, [] {});
    engine.schedule_at(30, [second] {});
    EXPECT_EQ(first.use_count(), 2);
    EXPECT_EQ(second.use_count(), 2);
  }
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 1);
}

TEST(Engine, RunUntilAdvancesTimeToTheDeadline) {
  Engine e;
  e.run_until(500);  // nothing queued: time passes anyway
  EXPECT_EQ(e.now(), 500u);
  e.schedule_at(700, [] {});
  e.run_until(600);
  EXPECT_EQ(e.now(), 600u);
  EXPECT_EQ(e.run(), 700u);  // run() stops at the last event
  EXPECT_EQ(e.run(), 700u);  // and an empty run() leaves time alone
}

// ---- Component lifecycle ---------------------------------------------------

class Probe : public Component {
 public:
  Probe(Engine& e, int* inits, int* finishes)
      : Component(e, "probe"), inits_(inits), finishes_(finishes) {}
  void init() override { ++*inits_; }
  void finish() override { ++*finishes_; }

 private:
  int* inits_;
  int* finishes_;
};

TEST(Component, InitAndFinishCalledOnce) {
  Engine e;
  int inits = 0, finishes = 0;
  Probe p(e, &inits, &finishes);
  e.schedule_at(1, [] {});
  e.run();
  EXPECT_EQ(inits, 1);
  EXPECT_EQ(finishes, 1);
}

// ---- Clock -----------------------------------------------------------------

TEST(Clock, TicksOnEdgesUntilIdle) {
  Engine e;
  std::vector<TimePs> ticks;
  int remaining = 3;
  Clock clk(e, common::ClockPeriod{2'000}, [&] {
    ticks.push_back(e.now());
    return --remaining > 0;
  });
  e.schedule_at(500, [&] { clk.wake(); });
  e.run();
  // Woken at 500 -> first edge at 2000, then 4000, 6000.
  EXPECT_EQ(ticks, (std::vector<TimePs>{2'000, 4'000, 6'000}));
  EXPECT_FALSE(clk.running());
  EXPECT_EQ(clk.cycles(), 3u);
}

TEST(Clock, WakeWhileRunningIsIdempotent) {
  Engine e;
  int ticks = 0;
  Clock clk(e, common::ClockPeriod{1'000}, [&] { return ++ticks < 2; });
  clk.wake();
  clk.wake();  // must not double-schedule
  e.run();
  EXPECT_EQ(ticks, 2);
}

TEST(Clock, ReWakeAfterSleep) {
  Engine e;
  int ticks = 0;
  Clock clk(e, common::ClockPeriod{1'000}, [&] {
    ++ticks;
    return false;  // sleep immediately
  });
  clk.wake();
  e.schedule_at(10'000, [&] { clk.wake(); });
  e.run();
  EXPECT_EQ(ticks, 2);
}

// ---- Processes -------------------------------------------------------------

Process simple_delays(Engine& e, std::vector<TimePs>& log) {
  log.push_back(e.now());
  co_await delay(e, 100);
  log.push_back(e.now());
  co_await delay(e, 50);
  log.push_back(e.now());
}

TEST(Process, DelaysAdvanceTime) {
  Engine e;
  ProcessPool pool(e);
  std::vector<TimePs> log;
  pool.spawn(simple_delays(e, log));
  e.run();
  EXPECT_TRUE(pool.all_done());
  EXPECT_EQ(log, (std::vector<TimePs>{0, 100, 150}));
}

Process child(Engine& e, int& state) {
  state = 1;
  co_await delay(e, 10);
  state = 2;
}

Process parent(Engine& e, int& state, int& after) {
  co_await child(e, state);
  after = state;  // child fully completed before we resume
  co_await delay(e, 1);
}

TEST(Process, NestedAwaitRunsChildToCompletion) {
  Engine e;
  ProcessPool pool(e);
  int state = 0, after = -1;
  pool.spawn(parent(e, state, after));
  e.run();
  EXPECT_TRUE(pool.all_done());
  EXPECT_EQ(state, 2);
  EXPECT_EQ(after, 2);
}

Process waiter(Engine& e, Trigger& t, int& wakes) {
  co_await t.wait(e);
  ++wakes;
  co_await t.wait(e);
  ++wakes;
}

TEST(Trigger, FireWakesAllCurrentWaitersOnly) {
  Engine e;
  ProcessPool pool(e);
  Trigger t;
  int wakes = 0;
  pool.spawn(waiter(e, t, wakes));
  e.schedule_at(10, [&] { t.fire(); });
  e.run();
  // Only the first wait was satisfied; the re-wait needs a second fire.
  EXPECT_EQ(wakes, 1);
  EXPECT_FALSE(pool.all_done());
  t.fire();
  e.run();
  EXPECT_EQ(wakes, 2);
  EXPECT_TRUE(pool.all_done());
}

TEST(Trigger, MultipleWaitersAllWake) {
  Engine e;
  ProcessPool pool(e);
  Trigger t;
  int wakes = 0;
  auto one_shot = [](Engine& eng, Trigger& trig, int& w) -> Process {
    co_await trig.wait(eng);
    ++w;
  };
  pool.spawn(one_shot(e, t, wakes));
  pool.spawn(one_shot(e, t, wakes));
  pool.spawn(one_shot(e, t, wakes));
  e.schedule_at(5, [&] { t.fire(); });
  e.run();
  EXPECT_EQ(wakes, 3);
  EXPECT_TRUE(pool.all_done());
}

TEST(ProcessPool, TracksPerProcessCompletion) {
  Engine e;
  ProcessPool pool(e);
  auto quick = [](Engine& eng) -> Process { co_await delay(eng, 1); };
  auto slow = [](Engine& eng) -> Process { co_await delay(eng, 100); };
  const std::size_t a = pool.spawn(quick(e));
  const std::size_t b = pool.spawn(slow(e));
  e.run_until(10);
  EXPECT_TRUE(pool.done(a));
  EXPECT_FALSE(pool.done(b));
  e.run();
  EXPECT_TRUE(pool.done(b));
  EXPECT_TRUE(pool.all_done());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ProcessPool, DestroyingSuspendedProcessesIsSafe) {
  Engine e;
  {
    ProcessPool pool(e);
    auto forever = [](Engine& eng) -> Process {
      Trigger never;
      co_await never.wait(eng);
    };
    pool.spawn(forever(e));
    e.run();
    EXPECT_FALSE(pool.all_done());
  }  // pool destroys the still-suspended coroutine here
  SUCCEED();
}

TEST(Process, ZeroDelayYieldsThroughQueue) {
  Engine e;
  ProcessPool pool(e);
  std::vector<int> order;
  auto proc = [](Engine& eng, std::vector<int>& log) -> Process {
    log.push_back(1);
    co_await delay(eng, 0);
    log.push_back(3);
  };
  pool.spawn(proc(e, order));
  e.schedule_at(0, [&] { order.push_back(2); });
  e.run();
  // The spawn kick-off was enqueued first, so the process starts first;
  // its zero-delay then yields behind the already-queued event before
  // the continuation runs — a zero delay is not a no-op.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---- parameterized clock properties -----------------------------------------

class ClockPeriods : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClockPeriods, EdgesAlignToMultiplesOfThePeriod) {
  const common::TimePs period = GetParam();
  Engine e;
  std::vector<TimePs> ticks;
  Clock clk(e, common::ClockPeriod{period}, [&] {
    ticks.push_back(e.now());
    return ticks.size() < 5;
  });
  // Wake at an off-edge instant.
  e.schedule_at(period / 2 + 1, [&] { clk.wake(); });
  e.run();
  ASSERT_EQ(ticks.size(), 5u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i] % period, 0u) << "tick " << i << " off-edge";
    if (i > 0) {
      EXPECT_EQ(ticks[i] - ticks[i - 1], period);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Periods, ClockPeriods,
                         ::testing::Values(500,      // 2 GHz host
                                           2'000,    // 500 MHz NIC/ASIC
                                           8'929,    // ~112 MHz FPGA
                                           10'000)); // 100 MHz

// ---- determinism -------------------------------------------------------------

TEST(Engine, IdenticalProgramsProduceIdenticalSchedules) {
  // The reproducibility guarantee every experiment relies on: two
  // engines fed the same (randomized) event program execute the same
  // number of events and end at the same time.
  auto run_once = [](std::uint64_t seed) {
    common::Xoshiro256 rng(seed);
    Engine e;
    std::uint64_t checksum = 0;
    std::function<void(int)> cascade = [&](int depth) {
      checksum = checksum * 31 + e.now();
      if (depth < 3) {
        const auto fan = 1 + rng.below(3);
        for (std::uint64_t i = 0; i < fan; ++i) {
          e.schedule_in(rng.below(1'000), [&cascade, depth] {
            cascade(depth + 1);
          });
        }
      }
    };
    for (int i = 0; i < 50; ++i) {
      e.schedule_at(rng.below(10'000), [&cascade] { cascade(0); });
    }
    e.run();
    return std::make_pair(e.events_executed(), checksum);
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

// ---- Stall watchdog --------------------------------------------------------

TEST(StallWatchdogTest, CleanDrainReportsNothing) {
  Engine e;
  StallWatchdog dog;
  bool work_pending = true;
  std::size_t snapshots = 0;
  dog.add_check({"nic0", [&] { return work_pending; },
                 [&] { ++snapshots; return std::string("nic0: idle"); }});
  dog.set_sink([](const std::string&) {});
  e.set_watchdog(&dog);
  e.schedule_at(100, [&] { work_pending = false; });  // work drains in-run
  e.run();
  EXPECT_EQ(dog.stalls_detected(), 0u);
  EXPECT_EQ(snapshots, 0u);  // no stall, no dump
}

TEST(StallWatchdogTest, QuiescenceWithUndrainedWorkDumpsEverySnapshot) {
  Engine e;
  StallWatchdog dog;
  std::vector<std::string> dumped;
  dog.add_check({"nic0", [] { return true; },  // wedged forever
                 [] { return std::string("nic0: rnr_paused=1"); }});
  dog.add_check({"nic1", [] { return false; },  // this one is clean
                 [] { return std::string("nic1: idle"); }});
  dog.set_sink([&](const std::string& line) { dumped.push_back(line); });
  e.set_watchdog(&dog);
  e.schedule_at(100, [] {});
  e.run();
  EXPECT_EQ(dog.stalls_detected(), 1u);
  // The dump names the stalled check and includes every registered
  // snapshot — the clean NIC's state is context for triage.
  bool saw_stalled = false;
  bool saw_clean = false;
  for (const std::string& line : dumped) {
    if (line.find("rnr_paused=1") != std::string::npos) saw_stalled = true;
    if (line.find("nic1") != std::string::npos) saw_clean = true;
  }
  EXPECT_TRUE(saw_stalled);
  EXPECT_TRUE(saw_clean);
}

TEST(StallWatchdogTest, ObservationOnlyNeverPerturbsTheRun) {
  // Identical schedules with and without a (stalling) watchdog must
  // execute identical event counts at identical times: the watchdog
  // fires no events and mutates nothing.
  auto run_once = [](bool with_dog) {
    Engine e;
    StallWatchdog dog;
    dog.add_check({"x", [] { return true; }, [] { return std::string("x"); }});
    dog.set_sink([](const std::string&) {});
    if (with_dog) e.set_watchdog(&dog);
    common::TimePs end = 0;
    e.schedule_at(10, [] {});
    e.schedule_at(250, [] {});
    end = e.run();
    return std::make_pair(end, e.events_executed());
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

}  // namespace
}  // namespace alpu::sim
