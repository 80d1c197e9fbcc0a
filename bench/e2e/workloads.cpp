#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "mpi/mpi.hpp"
#include "sim/parallel.hpp"
#include "trace.hpp"
#include "workload/chaos.hpp"
#include "workload/scenarios.hpp"
#include "workload/sweep.hpp"

namespace bench {

namespace {

namespace mpi = alpu::mpi;
namespace sim = alpu::sim;
namespace wl = alpu::workload;
using alpu::common::TimePs;
using alpu::common::Xoshiro256;

// ---- shared by every workload ----------------------------------------------

/// FNV-1a over the bytes of the simulated outputs of a repetition.
class Digest {
 public:
  void add(double v) { mix(&v, sizeof v); }
  void add(std::uint64_t v) { mix(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  void mix(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ULL;
    }
  }
  std::uint64_t h_ = 1469598103934665603ULL;
};

void finish_digest(Repetition& rep) {
  Digest d;
  d.add(rep.makespan_us);
  d.add(rep.messages);
  for (double v : rep.latencies_ns) d.add(v);
  for (const auto& [name, v] : rep.counts) d.add(v);
  rep.digest = d.value();
}

mpi::Request traced_isend(mpi::Rank& rank, int dest, int tag,
                          std::uint32_t bytes) {
  const ScopedSpan span("mpi.isend");
  return rank.isend(dest, tag, bytes);
}

mpi::Request traced_irecv(mpi::Rank& rank, int source, int tag,
                          std::uint32_t max_bytes) {
  const ScopedSpan span("mpi.irecv");
  return rank.irecv(source, tag, max_bytes);
}

/// Check a completed receive against the message its sender sent.  A
/// message counts one failure at most, under its first wrong property.
void check_receive(const mpi::Request& r, int source, int tag,
                   std::uint32_t bytes, Failures& f) {
  const alpu::match::Envelope env = r.matched();
  if (env.source != static_cast<std::uint32_t>(source) ||
      env.context != mpi::kWorldContext) {
    ++f.envelope;
  } else if (env.tag != static_cast<std::uint32_t>(tag)) {
    ++f.order;
  } else if (r.bytes() != bytes) {
    ++f.bytes;
  }
}

/// Machine-wide totals behind the per-layer count metrics.  Workloads
/// that cannot see a layer leave its fields at zero.
struct Totals {
  double events = 0, nic_packets = 0, sw_walked = 0, unexpected_appends = 0;
  double control_allocs = 0;
  double firmware_util = 0;  ///< busiest NIC: firmware busy / makespan
  double alpu_probes = 0, alpu_hit_ratio = 0, alpu_insert_sessions = 0;
  double alpu_entries_inserted = 0, alpu_probe_rejections = 0;
  double alpu_util = 0;  ///< busiest unit: pipeline busy / makespan
  double match_probes = 0, match_cells = 0, match_moves = 0;
  double l1_accesses = 0, l1_hit_ratio = 0;
  double net_packets = 0, net_payload = 0, net_busiest_link_util = 0;
  double net_faults = 0;
  double rel_retransmit_ratio = 0, rel_acks = 0, rel_timeouts = 0;
};

Values per_message(const Totals& t, std::uint64_t messages) {
  const double m = static_cast<double>(messages);
  return {
      {"sim.events_per_msg", t.events / m},
      {"nic.packets_per_msg", t.nic_packets / m},
      {"nic.sw_entries_walked_per_msg", t.sw_walked / m},
      {"nic.unexpected_appends_per_msg", t.unexpected_appends / m},
      {"nic.control_allocs_per_msg", t.control_allocs / m},
      {"nic.firmware_util", t.firmware_util},
      {"alpu.probes_per_msg", t.alpu_probes / m},
      {"alpu.hit_ratio", t.alpu_hit_ratio},
      {"alpu.insert_sessions_per_msg", t.alpu_insert_sessions / m},
      {"alpu.entries_inserted_per_msg", t.alpu_entries_inserted / m},
      {"alpu.probe_rejections", t.alpu_probe_rejections},
      {"alpu.util", t.alpu_util},
      {"match.probes_per_msg", t.match_probes / m},
      {"match.cells_scanned_per_msg", t.match_cells / m},
      {"match.compaction_moves_per_msg", t.match_moves / m},
      {"mem.l1_accesses_per_msg", t.l1_accesses / m},
      {"mem.l1_hit_ratio", t.l1_hit_ratio},
      {"net.packets_per_msg", t.net_packets / m},
      {"net.payload_bytes_per_msg", t.net_payload / m},
      {"net.busiest_link_util", t.net_busiest_link_util},
      {"net.faults_per_msg", t.net_faults / m},
      {"nic.rel.retransmit_ratio", t.rel_retransmit_ratio},
      {"nic.rel.acks_per_msg", t.rel_acks / m},
      {"nic.rel.timeouts_per_msg", t.rel_timeouts / m},
  };
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Read every layer's public stats struct after a run.
Totals machine_totals(mpi::Machine& m, TimePs makespan,
                      std::uint64_t events) {
  Totals t;
  const auto span = static_cast<double>(makespan);
  t.events = static_cast<double>(events);
  double alpu_hits = 0, alpu_answers = 0, l1_hits = 0;
  double data_tx = 0, retransmits = 0;
  for (int r = 0; r < m.size(); ++r) {
    alpu::nic::Nic& nic = m.nic(r);
    const alpu::nic::NicStats& s = nic.stats();
    t.nic_packets += static_cast<double>(s.packets_tx);
    t.sw_walked += static_cast<double>(s.posted_entries_walked +
                                       s.unexpected_entries_walked);
    t.unexpected_appends += static_cast<double>(s.unexpected_appends);
    t.control_allocs += static_cast<double>(s.control_allocs);
    t.firmware_util = std::max(
        t.firmware_util, static_cast<double>(s.firmware_busy) / span);
    t.alpu_insert_sessions += static_cast<double>(s.alpu_insert_sessions);
    t.alpu_entries_inserted += static_cast<double>(s.alpu_entries_inserted);
    t.alpu_probe_rejections += static_cast<double>(s.alpu_probe_rejections);
    for (const alpu::hw::Alpu* unit :
         {nic.posted_alpu(), nic.unexpected_alpu()}) {
      if (unit == nullptr) continue;
      const alpu::hw::AlpuStats& a = unit->stats();
      t.alpu_probes += static_cast<double>(a.probes_accepted);
      alpu_hits += static_cast<double>(a.match_successes);
      alpu_answers += static_cast<double>(a.match_successes + a.match_failures);
      const double busy = static_cast<double>(
          unit->config().clock.cycles(a.busy_cycles));
      t.alpu_util = std::max(t.alpu_util, busy / span);
    }
    const alpu::common::MatchCounters mc = nic.match_counters();
    t.match_probes += static_cast<double>(mc.probes);
    t.match_cells += static_cast<double>(mc.cells_scanned);
    t.match_moves += static_cast<double>(mc.compaction_moves);
    const alpu::mem::CacheStats& l1 = nic.memory().l1_stats();
    t.l1_accesses += static_cast<double>(l1.accesses);
    l1_hits += static_cast<double>(l1.hits);
    const alpu::nic::ReliabilityStats& rel = nic.reliability().stats();
    data_tx += static_cast<double>(rel.data_tx);
    retransmits += static_cast<double>(rel.retransmits);
    t.rel_acks += static_cast<double>(rel.acks_tx);
    t.rel_timeouts += static_cast<double>(rel.timeouts);
  }
  t.alpu_hit_ratio = ratio(alpu_hits, alpu_answers);
  t.l1_hit_ratio = ratio(l1_hits, t.l1_accesses);
  t.rel_retransmit_ratio = ratio(retransmits, data_tx);
  const alpu::net::NetworkStats& net = m.network().stats();
  t.net_packets = static_cast<double>(net.packets);
  t.net_payload = static_cast<double>(net.payload_bytes);
  t.net_busiest_link_util = static_cast<double>(net.busiest_link_busy) / span;
  t.net_faults = static_cast<double>(net.faults_dropped + net.faults_duplicated +
                                     net.faults_reordered + net.faults_corrupted);
  return t;
}

/// End-of-run checks every machine must pass: queues drained, no stall,
/// no link given up on.
void check_machine(mpi::Machine& machine, Failures& f) {
  for (int r = 0; r < machine.size(); ++r) {
    const alpu::nic::Nic& nic = machine.nic(r);
    if (nic.posted_queue_length() != 0 || nic.unexpected_queue_length() != 0) {
      ++f.undrained;
    }
    f.link_failures += nic.reliability().stats().link_failures;
  }
  f.stalls += machine.watchdog().stalls_detected();
}

/// A machine and the engine group it runs on.
struct Built {
  std::unique_ptr<sim::ShardGroup> shards;
  std::unique_ptr<mpi::Machine> machine;
};

/// The set-up phase users pay per machine: ShardGroup + Machine ctors.
Built build_machine(const mpi::SystemConfig& cfg) {
  const ScopedSpan span("setup");
  Built b;
  b.shards = std::make_unique<sim::ShardGroup>(1);
  b.machine = std::make_unique<mpi::Machine>(*b.shards, cfg);
  return b;
}

void teardown(Built& b, std::unique_ptr<sim::ProcessPool>& pool) {
  const ScopedSpan span("teardown");
  pool.reset();
  b.machine.reset();
  b.shards.reset();
}

/// Run one machine through its phases, timing each.  `spawn` starts the
/// rank programs; `finish` fills the workload's messages, latencies and
/// checks once the run has drained (untimed, inside the "check" span).
template <typename Spawn, typename Finish>
Repetition run_machine(const mpi::SystemConfig& cfg, Spawn&& spawn,
                       Finish&& finish) {
  Repetition rep;
  const auto t0 = Clock::now();
  Built b = build_machine(cfg);
  const auto t1 = Clock::now();
  auto pool = std::make_unique<sim::ProcessPool>(b.machine->engine());
  spawn(*b.machine, *pool);
  TimePs end = 0;
  {
    const ScopedSpan span("run");
    end = b.shards->run_all(b.machine->network().min_lookahead());
  }
  const auto t2 = Clock::now();
  {
    const ScopedSpan span("check");
    if (!pool->all_done()) ++rep.failures.incomplete;
    check_machine(*b.machine, rep.failures);
    rep.makespan_us = alpu::common::to_us(end);
    finish(rep);
    rep.counts = per_message(
        machine_totals(*b.machine, end, b.shards->events_executed()),
        rep.messages);
  }
  const auto t3 = Clock::now();
  teardown(b, pool);
  rep.setup_s = std::chrono::duration<double>(t1 - t0).count();
  rep.run_s = std::chrono::duration<double>(t2 - t1).count();
  rep.pass_s = std::chrono::duration<double>(t2 - t0).count() +
               seconds_since(t3);
  finish_digest(rep);
  return rep;
}

// ---- stream_alpu / stream_deep ---------------------------------------------
//
// Rank 0 keeps `standing` non-matching receives posted ahead of everything
// else, then repeatedly posts a window of ANY_TAG receives and sends "go";
// rank 1 answers each go with a window of eager sends.  Every message of
// a window therefore passes the standing entries before it matches, and
// the tag it matched exposes delivery order.  At the end rank 1 sends one
// message per standing receive so every queue drains.

constexpr int kWindow = 64;
constexpr int kStandingTag = 16000;
constexpr int kGoTag = 16001;
constexpr std::size_t kDataTags = 8192;
constexpr std::uint32_t kStreamSizes[] = {0, 64, 256, 1024};
constexpr std::uint32_t kStreamMaxBytes = 1024;

struct StreamPlan {
  wl::NicMode mode = wl::NicMode::kBaseline;
  std::size_t standing = 0;
  std::vector<std::uint32_t> sizes;  ///< one per data message
};

StreamPlan make_stream_plan(wl::NicMode mode, std::size_t q_lo,
                            std::size_t q_hi, std::size_t messages,
                            std::uint64_t seed) {
  Xoshiro256 rng(seed);
  StreamPlan plan;
  plan.mode = mode;
  plan.standing = rng.range(q_lo, q_hi);
  plan.sizes.resize(messages);
  for (std::uint32_t& s : plan.sizes) s = kStreamSizes[rng.below(4)];
  return plan;
}

int data_tag(std::size_t i) { return static_cast<int>(i % kDataTags); }

struct StreamState {
  const StreamPlan& plan;
  std::vector<TimePs> issued;
  std::vector<TimePs> done;
  Failures failures;
};

sim::Process stream_receiver(mpi::Rank& rank, StreamState& st) {
  const StreamPlan& plan = st.plan;
  std::vector<mpi::Request> standing;
  standing.reserve(plan.standing);
  for (std::size_t i = 0; i < plan.standing; ++i) {
    standing.push_back(traced_irecv(rank, 1, kStandingTag, 0));
  }
  std::vector<mpi::Request> window(kWindow);
  for (std::size_t base = 0; base < plan.sizes.size(); base += kWindow) {
    for (mpi::Request& r : window) {
      r = traced_irecv(rank, 1, mpi::kAnyTag, kStreamMaxBytes);
    }
    const mpi::Request go = traced_isend(rank, 1, kGoTag, 0);
    for (std::size_t k = 0; k < kWindow; ++k) {
      co_await rank.wait(window[k]);
      const std::size_t i = base + k;
      st.done[i] = rank.engine().now();
      check_receive(window[k], 1, data_tag(i), plan.sizes[i], st.failures);
    }
    co_await rank.wait(go);
  }
  for (const mpi::Request& r : standing) {
    co_await rank.wait(r);
    check_receive(r, 1, kStandingTag, 0, st.failures);
  }
}

sim::Process stream_sender(mpi::Rank& rank, StreamState& st) {
  const StreamPlan& plan = st.plan;
  // The next window's go receive is posted before the current window is
  // sent, so go messages always meet a posted receive.
  mpi::Request go = traced_irecv(rank, 0, kGoTag, 0);
  std::vector<mpi::Request> sends;
  for (std::size_t base = 0; base < plan.sizes.size(); base += kWindow) {
    co_await rank.wait(go);
    if (base + kWindow < plan.sizes.size()) {
      go = traced_irecv(rank, 0, kGoTag, 0);
    }
    sends.clear();
    for (std::size_t i = base; i < base + kWindow; ++i) {
      st.issued[i] = rank.engine().now();
      sends.push_back(traced_isend(rank, 0, data_tag(i), plan.sizes[i]));
    }
    co_await rank.waitall(sends);
  }
  sends.clear();
  for (std::size_t i = 0; i < plan.standing; ++i) {
    sends.push_back(traced_isend(rank, 0, kStandingTag, 0));
  }
  co_await rank.waitall(sends);
}

Repetition run_stream(const StreamPlan& plan) {
  StreamState st{plan, std::vector<TimePs>(plan.sizes.size()),
                 std::vector<TimePs>(plan.sizes.size()), Failures{}};
  return run_machine(
      wl::make_system_config(plan.mode),
      [&](mpi::Machine& m, sim::ProcessPool& pool) {
        pool.spawn_on(m.engine(0), stream_receiver(m.rank(0), st));
        pool.spawn_on(m.engine(1), stream_sender(m.rank(1), st));
      },
      [&](Repetition& rep) {
        const std::size_t n = plan.sizes.size();
        // Data messages, one go per window, one drain per standing entry.
        rep.messages = n + n / kWindow + plan.standing;
        rep.attempted = n + plan.standing;
        rep.latencies_ns.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          rep.latencies_ns[i] =
              alpu::common::to_ns(st.done[i] - st.issued[i]);
        }
        rep.failures += st.failures;
      });
}

// ---- alltoall_faulty -------------------------------------------------------
//
// Every rank sends `per_pair` messages to every other rank, one round at a
// time with a seeded think time between rounds, following run_chaos's
// traffic plan (85% eager at 1-2000 B, 15% rendezvous at 20-60 KB).  For
// each peer a separate receive program starts after a seeded lag and
// posts ANY_TAG receives in batches, so most messages arrive before their
// receive.  The network drops, duplicates and reorders 1% of
// packets each; the reliability sublayer must hide all of it.

constexpr int kRecvBatch = 8;
constexpr std::uint32_t kAlltoallMaxBytes = 64 * 1024;

struct AlltoallPlan {
  int ranks = 16;
  int per_pair = 64;
  std::vector<std::uint32_t> sizes;  ///< [(src * ranks + dst) * per_pair + k]
  std::vector<TimePs> think;         ///< [src * per_pair + k], after round k
  std::vector<TimePs> lag;           ///< [dst * ranks + src]
  alpu::net::FaultConfig faults;

  std::size_t index(int src, int dst, int k) const {
    return (static_cast<std::size_t>(src) * static_cast<std::size_t>(ranks) +
            static_cast<std::size_t>(dst)) *
               static_cast<std::size_t>(per_pair) +
           static_cast<std::size_t>(k);
  }
};

AlltoallPlan make_alltoall_plan(int per_pair, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  AlltoallPlan plan;
  plan.per_pair = per_pair;
  const auto n = static_cast<std::size_t>(plan.ranks);
  plan.sizes.resize(n * n * static_cast<std::size_t>(per_pair));
  for (std::uint32_t& s : plan.sizes) {
    s = rng.chance(0.15)
            ? static_cast<std::uint32_t>(20'000 + rng.below(40'000))
            : static_cast<std::uint32_t>(1 + rng.below(2'000));
  }
  plan.think.resize(n * static_cast<std::size_t>(per_pair));
  for (TimePs& t : plan.think) t = rng.below(4'000) * 1'000;  // < 4 us
  plan.lag.resize(n * n);
  for (TimePs& t : plan.lag) t = rng.below(40'000) * 1'000;  // < 40 us
  plan.faults.drop_rate = 0.01;
  plan.faults.dup_rate = 0.01;
  plan.faults.reorder_rate = 0.01;
  plan.faults.seed = rng();
  return plan;
}

struct AlltoallState {
  const AlltoallPlan& plan;
  std::vector<TimePs> issued;
  std::vector<TimePs> done;
  Failures failures;
};

sim::Process alltoall_sender(mpi::Rank& rank, AlltoallState& st) {
  const AlltoallPlan& plan = st.plan;
  const int src = rank.rank();
  std::vector<mpi::Request> sends;
  sends.reserve(static_cast<std::size_t>((plan.ranks - 1) * plan.per_pair));
  for (int k = 0; k < plan.per_pair; ++k) {
    for (int j = 1; j < plan.ranks; ++j) {
      const int dst = (src + j) % plan.ranks;
      const std::size_t i = plan.index(src, dst, k);
      st.issued[i] = rank.engine().now();
      sends.push_back(traced_isend(rank, dst, k, plan.sizes[i]));
    }
    co_await sim::delay(
        rank.engine(),
        plan.think[static_cast<std::size_t>(src * plan.per_pair + k)]);
  }
  co_await rank.waitall(std::move(sends));
}

sim::Process alltoall_receiver(mpi::Rank& rank, int src, AlltoallState& st) {
  const AlltoallPlan& plan = st.plan;
  const int dst = rank.rank();
  co_await sim::delay(
      rank.engine(), plan.lag[static_cast<std::size_t>(dst * plan.ranks + src)]);
  std::vector<mpi::Request> batch(kRecvBatch);
  for (int base = 0; base < plan.per_pair; base += kRecvBatch) {
    for (mpi::Request& r : batch) {
      r = traced_irecv(rank, src, mpi::kAnyTag, kAlltoallMaxBytes);
    }
    for (int b = 0; b < kRecvBatch; ++b) {
      co_await rank.wait(batch[static_cast<std::size_t>(b)]);
      const std::size_t i = plan.index(src, dst, base + b);
      st.done[i] = rank.engine().now();
      check_receive(batch[static_cast<std::size_t>(b)], src, base + b,
                    plan.sizes[i], st.failures);
    }
  }
}

Repetition run_alltoall(const AlltoallPlan& plan) {
  wl::ChaosParams params;
  params.mode = wl::NicMode::kAlpu256;
  params.ranks = plan.ranks;
  params.faults = plan.faults;
  AlltoallState st{plan, std::vector<TimePs>(plan.sizes.size()),
                   std::vector<TimePs>(plan.sizes.size()), Failures{}};
  return run_machine(
      wl::make_chaos_system_config(params),
      [&](mpi::Machine& m, sim::ProcessPool& pool) {
        for (int r = 0; r < plan.ranks; ++r) {
          pool.spawn_on(m.engine(r), alltoall_sender(m.rank(r), st));
          for (int src = 0; src < plan.ranks; ++src) {
            if (src == r) continue;
            pool.spawn_on(m.engine(r), alltoall_receiver(m.rank(r), src, st));
          }
        }
      },
      [&](Repetition& rep) {
        const auto n = static_cast<std::size_t>(plan.ranks);
        rep.messages = n * (n - 1) * static_cast<std::size_t>(plan.per_pair);
        rep.attempted = rep.messages;
        rep.latencies_ns.reserve(rep.messages);
        for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
          const std::size_t src = i / (n * static_cast<std::size_t>(plan.per_pair));
          const std::size_t dst = (i / static_cast<std::size_t>(plan.per_pair)) % n;
          if (src == dst) continue;
          rep.latencies_ns.push_back(
              alpu::common::to_ns(st.done[i] - st.issued[i]));
        }
        rep.failures += st.failures;
      });
}

// ---- fig_sweep -------------------------------------------------------------
//
// The Figure 5 surface and the Figure 6 grid, one fresh machine per point
// through run_preposted / run_unexpected (what `alpusim sweep` runs), in a
// seeded order.  Each point's latency is rendered the way `alpusim sweep`
// prints it and compared with the golden CSVs.  Set-up is timed apart:
// one ShardGroup + Machine construction per point with the point's
// SystemConfig, since the runners build their machines internally.

struct SweepPoint {
  bool fig6 = false;
  wl::NicMode mode = wl::NicMode::kBaseline;
  std::size_t queue = 0;
  double fraction = 1.0;  ///< Figure 5 only
  std::string key;        ///< golden lookup key
};

struct SweepPlan {
  std::vector<SweepPoint> points;  ///< grid order
  std::vector<std::size_t> order;  ///< execution order (seeded shuffle)
  std::map<std::string, std::string> golden;  ///< key -> latency_ns text
};

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(cell);
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.size() < 2) throw std::runtime_error("empty golden file " + path);
  return lines;
}

std::string fig5_key(const char* mode, std::size_t queue, double fraction) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "fig5,%s,%zu,%.2f", mode, queue, fraction);
  return buf;
}

std::string fig6_key(const std::string& mode, std::size_t queue) {
  return "fig6," + mode + "," + std::to_string(queue);
}

SweepPlan make_sweep_plan(const Options& options) {
  SweepPlan plan;
  // Figure 5: `mode,queue_length,fraction_traversed,latency_ns`.
  const std::vector<std::string> fig5 =
      read_lines(options.golden_dir + "/fig5.csv");
  for (std::size_t i = 1; i < fig5.size(); ++i) {
    const std::vector<std::string> c = split_csv(fig5[i]);
    if (c.size() != 4) throw std::runtime_error("malformed fig5 golden row");
    plan.golden["fig5," + c[0] + "," + c[1] + "," + c[2]] = c[3];
  }
  for (const wl::SurfacePoint& p : wl::fig5_surface_points(options.quick)) {
    plan.points.push_back(SweepPoint{
        false, p.mode, p.queue_length, p.fraction_traversed,
        fig5_key(wl::nic_mode_name(p.mode), p.queue_length,
                 p.fraction_traversed)});
  }
  // Figure 6: `queue_length,baseline_ns,alpu128_ns,alpu256_ns`.  The
  // golden file's rows are the grid; --quick keeps every other length.
  const std::vector<std::string> fig6 =
      read_lines(options.golden_dir + "/fig6.csv");
  const wl::NicMode modes[] = {wl::NicMode::kBaseline, wl::NicMode::kAlpu128,
                               wl::NicMode::kAlpu256};
  for (std::size_t i = 1; i < fig6.size(); ++i) {
    const std::vector<std::string> c = split_csv(fig6[i]);
    if (c.size() != 4) throw std::runtime_error("malformed fig6 golden row");
    const std::size_t queue = std::stoul(c[0]);
    for (std::size_t m = 0; m < 3; ++m) {
      const std::string key = fig6_key(wl::nic_mode_name(modes[m]), queue);
      plan.golden[key] = c[m + 1];
      if (!options.quick || i % 2 == 1) {
        plan.points.push_back(SweepPoint{true, modes[m], queue, 1.0, key});
      }
    }
  }
  plan.order.resize(plan.points.size());
  for (std::size_t i = 0; i < plan.order.size(); ++i) plan.order[i] = i;
  Xoshiro256 rng(options.seed);
  for (std::size_t i = plan.order.size(); i > 1; --i) {
    std::swap(plan.order[i - 1], plan.order[rng.below(i)]);
  }
  return plan;
}

Repetition run_sweep(const SweepPlan& plan) {
  Repetition rep;
  std::vector<wl::LatencyResult> results(plan.points.size());
  const auto t0 = Clock::now();
  for (std::size_t idx : plan.order) {
    const SweepPoint& p = plan.points[idx];
    const ScopedSpan span("run");
    if (p.fig6) {
      wl::UnexpectedParams params;
      params.mode = p.mode;
      params.queue_length = p.queue;
      results[idx] = wl::run_unexpected(params);
    } else {
      wl::PrepostedParams params;
      params.mode = p.mode;
      params.queue_length = p.queue;
      params.fraction_traversed = p.fraction;
      results[idx] = wl::run_preposted(params);
    }
  }
  rep.pass_s = rep.run_s = seconds_since(t0);

  for (std::size_t idx : plan.order) {
    const auto t = Clock::now();
    Built b = build_machine(wl::make_system_config(plan.points[idx].mode));
    rep.setup_s += seconds_since(t);
    std::unique_ptr<sim::ProcessPool> no_pool;
    teardown(b, no_pool);
  }

  const ScopedSpan span("check");
  Totals t;
  double l1_rate_sum = 0, alpu_hits = 0, alpu_answers = 0;
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    const SweepPoint& p = plan.points[i];
    const wl::LatencyResult& r = results[i];
    // Messages: ready + ping for a pre-posted point; ready, the flood,
    // ctrl, go and ping for an unexpected point.
    rep.messages += p.fig6 ? p.queue + 4 : 2;
    ++rep.attempted;
    const double ns = alpu::common::to_ns(r.latency);
    rep.latencies_ns.push_back(ns);
    rep.makespan_us += alpu::common::to_us(r.total_sim_time);
    char text[32];
    std::snprintf(text, sizeof text, "%.1f", ns);
    const auto golden = plan.golden.find(p.key);
    if (golden == plan.golden.end() || golden->second != text) {
      ++rep.failures.golden;
      std::fprintf(stderr, "fig_sweep: %s = %s, golden %s\n", p.key.c_str(),
                   text,
                   golden == plan.golden.end() ? "missing"
                                               : golden->second.c_str());
    }
    // LatencyResult exposes the receiver NIC's counters plus machine-wide
    // fault totals; layers it does not report stay zero.
    t.events += static_cast<double>(r.events_executed);
    t.sw_walked += static_cast<double>(r.sw_entries_walked);
    t.alpu_probes += static_cast<double>(r.alpu_hits + r.alpu_misses);
    alpu_hits += static_cast<double>(r.alpu_hits);
    alpu_answers += static_cast<double>(r.alpu_hits + r.alpu_misses);
    t.alpu_probe_rejections += static_cast<double>(r.alpu_probe_rejections);
    t.match_probes += static_cast<double>(r.match_counters.probes);
    t.match_cells += static_cast<double>(r.match_counters.cells_scanned);
    t.match_moves += static_cast<double>(r.match_counters.compaction_moves);
    l1_rate_sum += r.l1_hit_rate;
    t.net_faults += static_cast<double>(r.net_faults_injected);
    rep.failures.link_failures += r.link_failures;
  }
  t.alpu_hit_ratio = ratio(alpu_hits, alpu_answers);
  t.l1_hit_ratio = l1_rate_sum / static_cast<double>(plan.points.size());
  rep.counts = per_message(t, rep.messages);
  finish_digest(rep);
  return rep;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      const Options& options) {
  // Streams: Q + 64 <= 256 keeps every posted receive inside the ALPU;
  // past ~300 entries the baseline's list spills the NIC's 32 KB L1.
  if (name == "stream_alpu") {
    auto plan = std::make_shared<StreamPlan>(make_stream_plan(
        wl::NicMode::kAlpu256, 120, 136, options.quick ? 2048 : 65'536,
        options.seed));
    return Workload{[plan] { return run_stream(*plan); },
                    plan->standing + kWindow / 2};
  }
  if (name == "stream_deep") {
    auto plan = std::make_shared<StreamPlan>(make_stream_plan(
        wl::NicMode::kBaseline, 392, 408, options.quick ? 1024 : 16'384,
        options.seed));
    return Workload{[plan] { return run_stream(*plan); }, plan->standing};
  }
  if (name == "fig_sweep") {
    auto plan = std::make_shared<SweepPlan>(make_sweep_plan(options));
    return Workload{[plan] { return run_sweep(*plan); }, 256};
  }
  if (name == "alltoall_faulty") {
    auto plan = std::make_shared<AlltoallPlan>(
        make_alltoall_plan(options.quick ? 8 : 64, options.seed));
    return Workload{[plan] { return run_alltoall(*plan); }, 64};
  }
  return std::nullopt;
}

}  // namespace bench
