// Layer drivers: each times one module's public hot function on inputs
// shaped like the workload, from outside the module.  They give host time
// per call for a single layer, which the end-to-end run cannot separate.
#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "alpu/alpu.hpp"
#include "alpu/array.hpp"
#include "common/rng.hpp"
#include "match/list.hpp"
#include "mem/memory_system.hpp"
#include "nic/config.hpp"
#include "sim/engine.hpp"
#include "trace.hpp"
#include "workload/scenarios.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

namespace hw = alpu::hw;
namespace match = alpu::match;
using alpu::common::TimePs;
using alpu::common::Xoshiro256;

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

match::MatchWord entry_word(std::size_t tag) {
  return match::pack(match::Envelope{0, 1, static_cast<std::uint32_t>(tag)});
}

/// Engine schedule + dispatch churn: 64 self-rescheduling events with
/// seeded delays, the steady pending depth of a two-node stream.
double engine_event_ns(std::uint64_t seed, std::uint64_t events) {
  const ScopedSpan span("layer.sim.event");
  alpu::sim::Engine engine;
  Xoshiro256 rng(seed);
  std::vector<TimePs> delays(1024);
  for (TimePs& d : delays) d = rng.range(1, 1'000) * 1'000;
  struct Churn {
    alpu::sim::Engine& engine;
    const std::vector<TimePs>& delays;
    std::uint64_t remaining;
    std::size_t next = 0;
    void step() {
      if (remaining == 0) return;
      --remaining;
      engine.schedule_in(delays[next++ & 1023], [this] { step(); });
    }
  } churn{engine, delays, events};
  for (int i = 0; i < 64; ++i) churn.step();
  const auto t0 = Clock::now();
  engine.run();
  const double ns = elapsed_ns(t0);
  if (engine.events_executed() != events) {
    throw std::logic_error("engine driver lost events");
  }
  return ns / static_cast<double>(events);
}

/// AlpuArray::match at `occupancy` valid cells, hitting uniformly.
double alpu_match_ns(std::size_t occupancy, std::uint64_t seed,
                     std::uint64_t probes) {
  const ScopedSpan span("layer.alpu.match");
  hw::AlpuArray array(hw::AlpuFlavor::kPostedReceive, 256, 16);
  occupancy = std::clamp<std::size_t>(occupancy, 1, array.capacity());
  for (std::size_t i = 0; i < occupancy; ++i) {
    if (!array.insert(entry_word(i), 0, static_cast<match::Cookie>(i + 1))) {
      throw std::logic_error("ALPU driver insert refused");
    }
  }
  Xoshiro256 rng(seed);
  std::vector<match::MatchWord> words(4096);
  for (match::MatchWord& w : words) w = entry_word(rng.below(occupancy));
  std::uint64_t hits = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t p = 0; p < probes; ++p) {
    hits += array.match(hw::Probe{words[p & 4095], 0, p}).hit ? 1 : 0;
  }
  const double ns = elapsed_ns(t0);
  if (hits != probes) throw std::logic_error("ALPU driver probe missed");
  return ns / static_cast<double>(probes);
}

/// hw::Alpu construction with the simulator's 256-cell configuration
/// (median of `count`, microseconds).
double alpu_construct_us(int count) {
  const ScopedSpan span("layer.alpu.construct");
  alpu::sim::Engine engine;
  const hw::AlpuConfig cfg = alpu::workload::make_alpu_config(256);
  std::vector<double> us;
  std::optional<hw::Alpu> unit;
  for (int i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    unit.emplace(engine, "alpu", cfg);
    us.push_back(elapsed_ns(t0) / 1e3);
    unit.reset();
  }
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  return us[us.size() / 2];
}

/// PostedList search that walks all `queue` entries before its hit.
double list_walk_ns_per_entry(std::size_t queue, std::uint64_t searches) {
  const ScopedSpan span("layer.match.walk");
  queue = std::max<std::size_t>(queue, 1);
  match::PostedList list;
  for (std::size_t i = 0; i < queue; ++i) {
    list.append(match::PostedEntry{match::Pattern{entry_word(i), 0},
                                   static_cast<match::Cookie>(i + 1),
                                   0x1000 + 64 * i});
  }
  const match::MatchWord last = entry_word(queue - 1);
  std::uint64_t visited = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t s = 0; s < searches; ++s) {
    visited += list.search(last).visited;
  }
  const double ns = elapsed_ns(t0);
  if (visited != searches * queue) {
    throw std::logic_error("list driver walked the wrong entries");
  }
  return ns / static_cast<double>(visited);
}

/// MemorySystem::load cycling over the match lines a `queue`-entry list
/// walk touches (one 64 B line per entry), in the NIC's memory system.
double memory_load_ns(std::size_t queue, std::uint64_t loads) {
  const ScopedSpan span("layer.mem.load");
  alpu::mem::MemorySystem memory(alpu::nic::NicConfig{}.memory);
  const std::uint64_t lines = std::max<std::uint64_t>(queue, 1);
  std::uint64_t line = 0;
  TimePs charged = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < loads; ++i) {
    charged += memory.load(0x1000'0000 + 64 * line, charged);
    if (++line == lines) line = 0;
  }
  const double ns = elapsed_ns(t0);
  if (charged == 0) throw std::logic_error("memory driver charged nothing");
  return ns / static_cast<double>(loads);
}

}  // namespace

Values run_layer_drivers(std::size_t queue, std::uint64_t seed, bool quick) {
  const std::uint64_t n = quick ? 20'000 : 1'000'000;
  return {
      {"sim.event_ns", engine_event_ns(seed, n)},
      {"alpu.match_ns", alpu_match_ns(queue, seed, n)},
      {"alpu.construct_us", alpu_construct_us(quick ? 10 : 200)},
      {"match.walk_ns_per_entry",
       list_walk_ns_per_entry(queue, n / std::max<std::size_t>(queue, 1))},
      {"mem.load_ns", memory_load_ns(queue, n)},
  };
}

}  // namespace bench
