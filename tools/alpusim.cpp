// alpusim — command-line driver for the simulated machine.
//
// One binary to run any of the calibrated scenarios with explicit
// parameters, for exploration beyond the canned benchmark sweeps:
//
//   alpusim preposted  --mode alpu128 --length 300 --fraction 0.5
//   alpusim unexpected --mode baseline --length 200 --bytes 1024
//   alpusim pingpong   --mode alpu256 --bytes 4096 --iterations 16
//   alpusim msgrate    --mode alpu128 --length 100 --burst 64
//   alpusim fpga       --cells 256 --block 16 --flavor posted
//   alpusim preposted  --length 300 --report      # dump machine state
//   alpusim sweep      --figure 5 --jobs 8        # parallel figure CSV
//   alpusim conform    --jobs 8                   # the paper's claims
//
// Output is a small key=value block (machine-parsable) plus optional
// full component tables with --report.  `sweep` regenerates a whole
// figure surface on a thread pool (--jobs N, default
// hardware_concurrency); its CSV is byte-identical at every job count.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "alpu/array.hpp"
#include "check/checker.hpp"
#include "check/flow.hpp"
#if ALPU_AUDIT
#include "check/audit.hpp"
#endif
#include "common/flags.hpp"
#include "common/log.hpp"
#include "fpga/area_model.hpp"
#include "workload/chaos.hpp"
#include "workload/report.hpp"
#include "workload/scenarios.hpp"
#include "workload/sweep.hpp"

namespace alpu::tools {
int run_conform(const common::Flags& flags);  // conform.cpp
}  // namespace alpu::tools

namespace {

using namespace alpu;
using workload::NicMode;

int usage() {
  std::fprintf(stderr,
               "usage: alpusim <preposted|unexpected|pingpong|msgrate|fpga"
               "|sweep|conform|check|chaos|audit>\n"
               "               [--mode baseline|alpu128|alpu256] [--length N]\n"
               "               [--fraction F] [--bytes N] [--iterations N]"
               " [--burst N] [--threshold N]\n"
               "               [--minbatch N] [--alpu-model"
               " transaction|pipelined]\n"
               "               [--cells N] [--block N] [--width N]"
               " [--flavor posted|unexpected] [--report]\n"
               "               [--figure 5|6] [--jobs N] [--quick]"
               " [--verbose]   (sweep mode)\n"
               "               [--jobs N]   (conform: the paper's claims;"
               " exit 1 if any fails)\n"
               "               [--shards N]   (conservative-parallel engine"
               " shards per simulation;\n"
               "                               results byte-identical at"
               " any count)\n"
               "               [--depth N] [--impl array|alpu|pipelined|all]\n"
               "               [--inject-compaction-bug] [--flow]"
               "   (check mode; --flow model-checks\n"
               "                               the eager flow-control"
               " spec)\n"
               "               [--faults]   (check mode: add deterministic"
               " bit corruption to the\n"
               "                               alphabet; the spec demands"
               " parity detection + recovery)\n"
               "               [--seu-rate R] [--seu-seed S]"
               " [--scrub-interval-us N]\n"
               "                               (sweep/chaos: ALPU SEU"
               " injection, parity planes,\n"
               "                               background scrub)\n"
               "               [--inject-silent-flip]   (check/chaos"
               " must-fail hook: one flip\n"
               "                               behind the parity layer's"
               " back)\n"
               "               [--drop R] [--dup R] [--reorder R]"
               " [--corrupt R] [--ranks N]\n"
               "               [--per-pair N] [--seeds N] [--fault-seed S]\n"
               "               [--inject-lookahead-violation]"
               "   (chaos mode)\n"
               "               [--overload] [--pool-bytes N] [--slots N]"
               "   (chaos incast overload\n"
               "                               against a finite per-NIC"
               " eager budget; extended CSV)\n"
               "               [--rel-max-retries N] [--rel-base-timeout-us"
               " N] [--rel-max-timeout-us N]\n"
               "               [--rel-reorder-window N] [--rel-rnr-hint-us"
               " N] [--rel-demote-after N]\n"
               "               [--shards A,B]"
               "   (audit mode: divergence triage between two\n"
               "                               shard counts;"
               " needs -DALPU_AUDIT=ON)\n");
  return 2;
}

/// Flags a scenario cannot run with: a one-line reason, then the usage
/// text and exit code 2.
int reject(const std::string& scenario, const char* why) {
  std::fprintf(stderr, "%s: %s\n", scenario.c_str(), why);
  return usage();
}

/// Why the latency or fpga scenario cannot run with these flags, or
/// nullptr.  Negative sizes would wrap to huge ones, and the runners
/// abort on the rest.
const char* bad_scenario_flag(const std::string& scenario,
                              const common::Flags& flags) {
  const double fraction = flags.get_double("fraction", 1.0);
  const std::int64_t iterations = flags.get_int("iterations", 1);
  const auto cells = static_cast<std::uint64_t>(flags.get_int("cells", 256));
  const auto block = static_cast<std::uint64_t>(flags.get_int("block", 16));
  if (flags.get_int("length", 0) < 0 || flags.get_int("bytes", 0) < 0) {
    return "--length and --bytes must be at least 0";
  }
  if (iterations < 1 || flags.get_int("burst", 1) < 1) {
    return "--iterations and --burst must be at least 1";
  }
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    return "--fraction must lie in [0, 1]";
  }
  if (scenario == "preposted" && iterations > 1 && fraction != 1.0) {
    return "--iterations above 1 always walks the whole queue (--fraction 1)";
  }
  if (scenario == "fpga" && !(std::has_single_bit(cells) &&
                              std::has_single_bit(block) && block <= cells)) {
    return "--cells and --block must be powers of two, --block at most "
           "--cells";
  }
  return nullptr;
}

/// Reliability-sublayer knobs shared by the chaos and scenario paths.
/// Returns true when any flag was given (the scenario path uses that to
/// enable the sublayer the knobs configure).
bool apply_reliability_flags(const common::Flags& flags,
                             nic::ReliabilityConfig* rel) {
  bool any = false;
  if (flags.has("rel-max-retries")) {
    rel->max_retries =
        static_cast<unsigned>(flags.get_int("rel-max-retries", 12));
    any = true;
  }
  if (flags.has("rel-base-timeout-us")) {
    rel->base_timeout_ps = static_cast<common::TimePs>(
        flags.get_int("rel-base-timeout-us", 60) * 1'000'000);
    any = true;
  }
  if (flags.has("rel-max-timeout-us")) {
    rel->max_timeout_ps = static_cast<common::TimePs>(
        flags.get_int("rel-max-timeout-us", 2'000) * 1'000'000);
    any = true;
  }
  if (flags.has("rel-reorder-window")) {
    rel->reorder_window =
        static_cast<std::size_t>(flags.get_int("rel-reorder-window", 64));
    any = true;
  }
  if (flags.has("rel-rnr-hint-us")) {
    rel->rnr_hint_us =
        static_cast<std::uint32_t>(flags.get_int("rel-rnr-hint-us", 20));
    any = true;
  }
  if (flags.has("rel-demote-after")) {
    rel->rnr_demote_after =
        static_cast<unsigned>(flags.get_int("rel-demote-after", 2));
    any = true;
  }
  return any;
}

/// ALPU transient-fault knobs shared by the sweep and chaos paths.
/// Returns true when the resulting config actually installs the model
/// (rate or scrub nonzero) — zero-rate runs must stay byte-identical to
/// flag-free ones, so callers gate all SEU output on this.
bool apply_seu_flags(const common::Flags& flags, hw::SeuConfig* seu) {
  if (flags.has("seu-rate")) {
    seu->rate = flags.get_double("seu-rate", 0.0);
  }
  if (flags.has("seu-seed")) {
    seu->seed =
        static_cast<std::uint64_t>(flags.get_int("seu-seed", 0x5eed));
  }
  if (flags.has("scrub-interval-us")) {
    seu->scrub_interval_ps = static_cast<common::TimePs>(
        flags.get_int("scrub-interval-us", 0) * 1'000'000);
  }
  return seu->any();
}

/// `alpusim check --flow`: bounded-exhaustive check of the eager
/// flow-control spec (budgets, RNR NACKs, credits, demotion).
int run_flow_check(const common::Flags& flags) {
  check::FlowCheckOptions opt;
  opt.depth = static_cast<std::size_t>(flags.get_int("depth", 7));
  if (flags.has("pool-bytes")) {
    opt.config.pool_bytes =
        static_cast<std::uint32_t>(flags.get_int("pool-bytes", 4096));
  }
  if (flags.has("slots")) {
    opt.config.slots =
        static_cast<std::uint32_t>(flags.get_int("slots", 2));
  }
  const check::FlowCheckResult r = check::check_flow(opt);
  std::printf("check flow depth=%zu pool=%u slots=%u sequences=%llu "
              "ops=%llu %s\n",
              opt.depth, opt.config.pool_bytes, opt.config.slots,
              static_cast<unsigned long long>(r.sequences),
              static_cast<unsigned long long>(r.ops),
              r.ok ? "PASS" : "FAIL");
  if (!r.ok) std::printf("%s\n", r.counterexample.c_str());
  return r.ok ? 0 : 1;
}

/// `alpusim check`: bounded model check of the ALPU implementations
/// against the executable protocol spec (src/check/).  Exits non-zero
/// on the first divergence, printing the minimal counterexample, and
/// with 2 on flags the checker cannot run with.
int run_check(const common::Flags& flags) {
  if (flags.get_int("depth", 1) < 1) {
    return reject("check", "--depth must be at least 1");
  }
  if (flags.get_bool("flow")) {
    return run_flow_check(flags);
  }
  const std::int64_t cells = flags.get_int("cells", 4);
  const std::int64_t block = flags.get_int("block", 2);
  if (cells < 1 || !std::has_single_bit(static_cast<std::uint64_t>(block)) ||
      cells % block != 0) {
    return reject("check", "--cells must be at least 1 and --block a power "
                           "of two dividing it");
  }
  check::CheckOptions opt;
  opt.depth = static_cast<std::size_t>(flags.get_int("depth", 6));
  opt.cells = static_cast<std::size_t>(cells);
  opt.block = static_cast<std::size_t>(block);
  opt.faults = flags.get_bool("faults");

  std::vector<check::ImplKind> impls;
  const std::string impl = flags.get("impl", "all");
  if (impl == "array" || impl == "all") {
    impls.push_back(check::ImplKind::kArray);
  }
  if (impl == "alpu" || impl == "all") {
    impls.push_back(check::ImplKind::kTransaction);
  }
  if (impl == "pipelined" || impl == "all") {
    impls.push_back(check::ImplKind::kPipelined);
  }
  if (impls.empty()) {
    std::fprintf(stderr, "unknown --impl\n");
    return usage();
  }

  std::vector<hw::AlpuFlavor> flavors;
  const std::string flavor = flags.get("flavor", "both");
  if (flavor == "posted" || flavor == "both") {
    flavors.push_back(hw::AlpuFlavor::kPostedReceive);
  }
  if (flavor == "unexpected" || flavor == "both") {
    flavors.push_back(hw::AlpuFlavor::kUnexpected);
  }
  if (flavors.empty()) {
    std::fprintf(stderr, "unknown --flavor\n");
    return usage();
  }

  // Demonstration/self-test hook: plant the classic compaction
  // off-by-one in AlpuArray and watch the checker pin it down.
  hw::testing::inject_compaction_off_by_one =
      flags.get_bool("inject-compaction-bug");
  // Must-fail teeth for the fault model: one bit flip behind the parity
  // layer's back on the next insert.  The checker must produce a
  // counterexample — a clean PASS here means the detection is toothless.
  if (flags.get_bool("inject-silent-flip")) {
    hw::testing::inject_silent_flip.store(true, std::memory_order_relaxed);
  }

  bool all_ok = true;
  for (check::ImplKind kind : impls) {
    for (hw::AlpuFlavor f : flavors) {
      const check::CheckResult r = check::check_impl(kind, f, opt);
      std::printf("check impl=%s flavor=%s depth=%zu cells=%zu "
                  "sequences=%llu ops=%llu %s\n",
                  check::to_string(kind), check::to_string(f), opt.depth,
                  opt.cells, static_cast<unsigned long long>(r.sequences),
                  static_cast<unsigned long long>(r.ops_applied),
                  r.ok ? "PASS" : "FAIL");
      if (!r.ok) {
        std::printf("%s", check::format_counterexample(r).c_str());
        all_ok = false;
      }
    }
  }
  hw::testing::inject_compaction_off_by_one = false;
  hw::testing::inject_silent_flip.store(false, std::memory_order_relaxed);
  return all_ok ? 0 : 1;
}

NicMode mode_of(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "baseline") return NicMode::kBaseline;
  if (name == "alpu128") return NicMode::kAlpu128;
  if (name == "alpu256") return NicMode::kAlpu256;
  *ok = false;
  return NicMode::kBaseline;
}

/// `--verbose` companion output: aggregate probe-level engine counters
/// over every data point of the sweep.  Printed to stderr so the CSV on
/// stdout stays byte-identical with and without the flag.
void print_counters(const std::vector<workload::LatencyResult>& results) {
  common::MatchCounters c;
  for (const auto& r : results) c += r.match_counters;
  std::fprintf(stderr, "points=%zu\n", results.size());
  std::fprintf(stderr, "match_probes=%llu\n",
               static_cast<unsigned long long>(c.probes));
  std::fprintf(stderr, "match_cells_scanned=%llu\n",
               static_cast<unsigned long long>(c.cells_scanned));
  std::fprintf(stderr, "match_compaction_moves=%llu\n",
               static_cast<unsigned long long>(c.compaction_moves));
  std::fprintf(stderr, "match_inserts_dropped=%llu\n",
               static_cast<unsigned long long>(c.inserts_dropped));
}

/// Robustness-path totals for `sweep --verbose` (all zero on a clean
/// fault-free sweep — anything else means the figures were produced on
/// a degraded machine and should not be trusted as calibration data).
void print_robustness_counters(
    const std::vector<workload::LatencyResult>& results) {
  std::uint64_t faults = 0, retx = 0, rejects = 0, resets = 0, dead = 0;
  std::uint64_t peak_depth = 0, peak_pool = 0, peak_slots = 0;
  std::uint64_t seu = 0, parity = 0, scrubs = 0, rebuilds = 0;
  for (const auto& r : results) {
    faults += r.net_faults_injected;
    retx += r.retransmits;
    rejects += r.alpu_probe_rejections;
    resets += r.alpu_fallback_resets;
    dead += r.link_failures;
    seu += r.seu_injected;
    parity += r.parity_faults;
    scrubs += r.scrub_sweeps;
    rebuilds += r.rebuilds;
    peak_depth = std::max(peak_depth, r.peak_unexpected_depth);
    peak_pool = std::max(peak_pool, r.peak_eager_pool_bytes);
    peak_slots = std::max(peak_slots, r.peak_unexpected_slots);
  }
  std::fprintf(stderr, "net_faults_injected=%llu\n",
               static_cast<unsigned long long>(faults));
  std::fprintf(stderr, "reliability_retransmits=%llu\n",
               static_cast<unsigned long long>(retx));
  std::fprintf(stderr, "alpu_probe_rejections=%llu\n",
               static_cast<unsigned long long>(rejects));
  std::fprintf(stderr, "alpu_fallback_resets=%llu\n",
               static_cast<unsigned long long>(resets));
  std::fprintf(stderr, "link_failures=%llu\n",
               static_cast<unsigned long long>(dead));
  // ALPU transient-fault totals (all zero unless --seu-rate or
  // --scrub-interval-us configured a fault model for the sweep).
  std::fprintf(stderr, "seu_injected=%llu\n",
               static_cast<unsigned long long>(seu));
  std::fprintf(stderr, "parity_faults=%llu\n",
               static_cast<unsigned long long>(parity));
  std::fprintf(stderr, "scrub_sweeps=%llu\n",
               static_cast<unsigned long long>(scrubs));
  std::fprintf(stderr, "rebuilds=%llu\n",
               static_cast<unsigned long long>(rebuilds));
  // Eager-resource high-water marks across the sweep (stats-only
  // tracking: these figures run with an unlimited budget).
  std::fprintf(stderr, "peak_unexpected_depth=%llu\n",
               static_cast<unsigned long long>(peak_depth));
  std::fprintf(stderr, "peak_eager_pool_bytes=%llu\n",
               static_cast<unsigned long long>(peak_pool));
  std::fprintf(stderr, "peak_unexpected_slots=%llu\n",
               static_cast<unsigned long long>(peak_slots));
}

/// `alpusim sweep`: regenerate a figure surface on the parallel sweep
/// pool and print it as CSV.
int run_sweep(const common::Flags& flags) {
  workload::SweepOptions sweep;
  sweep.jobs = static_cast<int>(flags.get_int("jobs", 0));
  sweep.shards = static_cast<int>(flags.get_int("shards", 1));
  apply_seu_flags(flags, &sweep.seu);
  const bool quick = flags.get_bool("quick");
  const bool verbose = flags.get_bool("verbose");
  const std::int64_t figure = flags.get_int("figure", 5);

  if (figure != 5 && figure != 6) {
    std::fprintf(stderr, "unknown --figure (5 or 6)\n");
    return 2;
  }
  std::vector<workload::LatencyResult> results;
  if (figure == 5) {
    const auto rows = workload::run_preposted_surface(
        workload::fig5_surface_points(quick), sweep);
    std::printf("%s", workload::surface_csv(rows).c_str());
    for (const auto& row : rows) results.push_back(row.result);
  } else {
    std::printf("queue_length,baseline_ns,alpu128_ns,alpu256_ns\n");
    for (const workload::UnexpectedRow& row : workload::run_unexpected_grid(
             workload::fig6_queue_lengths(quick), sweep)) {
      std::printf("%zu,%.1f,%.1f,%.1f\n", row.queue_length,
                  common::to_ns(row.by_mode[0].latency),
                  common::to_ns(row.by_mode[1].latency),
                  common::to_ns(row.by_mode[2].latency));
      results.insert(results.end(), row.by_mode.begin(), row.by_mode.end());
    }
  }
  if (verbose) {
    print_counters(results);
    print_robustness_counters(results);
  }
  return 0;
}

/// `alpusim chaos`: the fault-rate soak.  Sweeps drop rates (default
/// {0, 1e-3, 1e-2}; override with --drop) across --seeds traffic plans
/// on the parallel sweep pool, runs the all-to-all chaos workload at
/// each point, and FAILs unless every point delivers every MPI message
/// exactly once, in per-pair order, with all queues drained and no link
/// declared dead.  Duplication/reorder/corruption rates ride along at
/// half the drop rate each unless given explicitly.
int run_chaos(const common::Flags& flags) {
  if (flags.get_bool("debug")) {
    common::set_log_level(common::LogLevel::kDebug);
  }
  workload::SweepOptions sweep;
  sweep.jobs = static_cast<int>(flags.get_int("jobs", 0));
  sweep.shards = static_cast<int>(flags.get_int("shards", 1));

  bool mode_ok = true;
  const NicMode mode = mode_of(flags.get("mode", "alpu256"), &mode_ok);
  if (!mode_ok) {
    std::fprintf(stderr, "unknown --mode\n");
    return 2;
  }
  // Incast overload: every rank floods rank 0 with eager traffic while
  // rank 0 drains slowly, against a finite per-NIC eager budget.  The
  // defaults pick a budget far below the offered load so the run leans
  // on the full RNR-NACK / backoff / credit / demotion machinery.
  const bool overload = flags.get_bool("overload");
  const int ranks =
      static_cast<int>(flags.get_int("ranks", overload ? 9 : 4));
  const int per_pair = static_cast<int>(flags.get_int("per-pair", 8));
  const int nseeds = static_cast<int>(flags.get_int("seeds", 2));
  const auto fault_seed =
      static_cast<std::uint64_t>(flags.get_int("fault-seed", 0x5eed));
  const auto pool_bytes = static_cast<std::uint64_t>(
      flags.get_int("pool-bytes", overload ? 32'768 : 0));
  const auto slots = static_cast<std::uint32_t>(
      flags.get_int("slots", overload ? 16 : 0));
  // ALPU transient faults compound with the network faults: the same
  // soak must stay exactly-once / in-order / drained while the parity +
  // scrub + rebuild machinery absorbs bit flips underneath it.
  hw::SeuConfig seu;
  const bool seu_on = apply_seu_flags(flags, &seu);

  const double drop = flags.get_double("drop", 0.0);
  if (ranks < 2 || per_pair < 1 || nseeds < 1) {
    return reject("chaos", "--ranks must be at least 2, --per-pair and "
                           "--seeds at least 1");
  }
  if (!(drop >= 0.0 && drop < 1.0)) {
    return reject("chaos", "--drop must lie in [0, 1)");
  }

  std::vector<double> rates;
  if (flags.has("drop")) {
    rates.push_back(drop);
  } else if (overload) {
    rates = {0.0, 1e-2};
  } else {
    rates = {0.0, 1e-3, 1e-2};
  }

  struct Point {
    double rate;
    std::uint64_t seed;
  };
  std::vector<Point> points;
  for (double rate : rates) {
    for (int s = 0; s < nseeds; ++s) {
      points.push_back({rate, static_cast<std::uint64_t>(s + 1)});
    }
  }

  // Must-fail hook: back-date one cross-shard delivery past the
  // conservative lookahead bound.  The determinism auditor (ALPU_AUDIT
  // builds) must abort with a provenance chain.
  if (flags.get_bool("inject-lookahead-violation")) {
    hw::testing::inject_lookahead_violation.store(true,
                                                  std::memory_order_relaxed);
  }
  // Must-fail hook (ctest chaos_silent_flip_fails): one flip behind the
  // parity layer's back.  Run with --jobs 1 --shards 1 and no --seu
  // flags; the corrupted entry mismatches a receive, so the soak must
  // FAIL — a PASS means silent corruption got through undetected.
  if (flags.get_bool("inject-silent-flip")) {
    hw::testing::inject_silent_flip.store(true, std::memory_order_relaxed);
  }

  const std::vector<workload::ChaosResult> results = workload::sweep_map(
      points,
      [&](const Point& pt) {
        workload::ChaosParams p;
        p.mode = mode;
        p.ranks = ranks;
        p.per_pair = per_pair;
        p.seed = pt.seed;
        p.faults.drop_rate = pt.rate;
        p.faults.dup_rate = flags.get_double("dup", pt.rate / 2.0);
        p.faults.reorder_rate = flags.get_double("reorder", pt.rate / 2.0);
        p.faults.corrupt_rate = flags.get_double("corrupt", pt.rate / 2.0);
        p.faults.seed = fault_seed + pt.seed;
        p.seu = seu;
        p.shards = sweep.shards;
        p.overload = overload;
        p.eager_pool_bytes = pool_bytes;
        p.unexpected_slots = slots;
        apply_reliability_flags(flags, &p.reliability);
        return workload::run_chaos(p);
      },
      sweep);

  // The default CSV is a pinned interface (CI diffs it across --jobs);
  // the flow-control columns only appear when a budget is in play, and
  // the SEU columns only when a fault model is actually installed — a
  // zero-rate run must be byte-identical to a flag-free one.
  const bool extended = overload || pool_bytes > 0 || slots > 0;
  std::printf(
      "drop_rate,seed,messages,sim_ms,drops,dups,reorders,corruptions,"
      "retransmits,timeouts,crc_drops,dup_drops,fallback_resets,%s%sok\n",
      extended ? "rnr_nacks,rnr_retries,credit_acks,demotions,"
                 "demoted_sends,peak_pool,peak_slots,peak_depth,stalls,"
               : "",
      seu_on ? "seu_injected,parity_faults,scrub_sweeps,rebuilds," : "");
  bool all_ok = true;
  std::uint64_t total_parity_faults = 0, total_rebuilds = 0;
  common::TimePs total_detect_latency = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const workload::ChaosResult& r = results[i];
    all_ok = all_ok && r.ok();
    std::printf(
        "%g,%llu,%llu,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,",
        points[i].rate, static_cast<unsigned long long>(points[i].seed),
        static_cast<unsigned long long>(r.messages),
        common::to_ns(r.sim_time) / 1e6,
        static_cast<unsigned long long>(r.net.faults_dropped),
        static_cast<unsigned long long>(r.net.faults_duplicated),
        static_cast<unsigned long long>(r.net.faults_reordered),
        static_cast<unsigned long long>(r.net.faults_corrupted),
        static_cast<unsigned long long>(r.reliability.retransmits),
        static_cast<unsigned long long>(r.reliability.timeouts),
        static_cast<unsigned long long>(r.reliability.crc_drops),
        static_cast<unsigned long long>(r.reliability.dup_drops),
        static_cast<unsigned long long>(r.fallback_resets));
    if (extended) {
      std::printf(
          "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,",
          static_cast<unsigned long long>(r.reliability.rnr_nacks_tx),
          static_cast<unsigned long long>(r.reliability.rnr_retries),
          static_cast<unsigned long long>(r.reliability.credit_acks_tx),
          static_cast<unsigned long long>(r.demotions),
          static_cast<unsigned long long>(r.demoted_sends),
          static_cast<unsigned long long>(r.peak_pool_bytes),
          static_cast<unsigned long long>(r.peak_unexpected_slots),
          static_cast<unsigned long long>(r.peak_unexpected_depth),
          static_cast<unsigned long long>(r.stalls));
    }
    if (seu_on) {
      total_parity_faults += r.parity_faults;
      total_rebuilds += r.rebuilds;
      total_detect_latency += r.seu_detect_latency_ps;
      std::printf("%llu,%llu,%llu,%llu,",
                  static_cast<unsigned long long>(r.seu_injected),
                  static_cast<unsigned long long>(r.parity_faults),
                  static_cast<unsigned long long>(r.scrub_sweeps),
                  static_cast<unsigned long long>(r.rebuilds));
    }
    std::printf("%s\n", r.ok() ? "PASS" : "FAIL");
    if (!r.ok()) {
      std::fprintf(stderr,
                   "chaos FAIL at drop=%g seed=%llu: completed=%d "
                   "conserved=%d ordered=%d drained=%d link_failures=%llu "
                   "stalls=%llu peak_pool=%llu/%llu peak_slots=%llu/%llu\n",
                   points[i].rate,
                   static_cast<unsigned long long>(points[i].seed),
                   r.completed, r.conserved, r.ordered, r.drained,
                   static_cast<unsigned long long>(
                       r.reliability.link_failures),
                   static_cast<unsigned long long>(r.stalls),
                   static_cast<unsigned long long>(r.peak_pool_bytes),
                   static_cast<unsigned long long>(r.pool_budget),
                   static_cast<unsigned long long>(r.peak_unexpected_slots),
                   static_cast<unsigned long long>(r.slot_budget));
    }
  }
  // Teeth for the SEU soak: with a nonzero injection rate the grid must
  // actually have exercised the machinery — at least one detected parity
  // fault and at least one completed rebuild — or the "survived" verdict
  // proves nothing.
  if (seu.rate > 0.0 &&
      (total_parity_faults == 0 || total_rebuilds == 0)) {
    std::fprintf(stderr,
                 "chaos: SEU soak toothless — rate=%g yet "
                 "parity_faults=%llu rebuilds=%llu across the grid\n",
                 seu.rate,
                 static_cast<unsigned long long>(total_parity_faults),
                 static_cast<unsigned long long>(total_rebuilds));
    all_ok = false;
  }
  if (seu_on && total_parity_faults > 0) {
    // Mean injection-to-detection latency across the grid (stderr, so
    // the CSV interface is untouched) — the number the scrub-interval
    // study in EXPERIMENTS.md reports.
    std::fprintf(stderr, "seu_detect_latency_avg_us=%.2f\n",
                 common::to_ns(total_detect_latency) / 1e3 /
                     static_cast<double>(total_parity_faults));
  }
  std::fprintf(stderr, "chaos: %s (%zu points)\n", all_ok ? "PASS" : "FAIL",
               points.size());
  return all_ok ? 0 : 1;
}

/// `alpusim audit`: divergence triage.  Runs the same chaos workload at
/// two shard counts with the determinism auditor tracing per-window
/// multiset hashes, locates the first window where the traces disagree,
/// re-runs both sides with full event capture on that window, and prints
/// the minimal divergent event pair with both provenance chains.
/// Exit 0 = traces identical; 1 = divergence found (and localized);
/// 2 = usage / not an ALPU_AUDIT build.
#if ALPU_AUDIT
int run_audit(const common::Flags& flags) {
  unsigned shards_a = 0, shards_b = 0;
  const std::string spec = flags.get("shards", "1,2");
  if (std::sscanf(spec.c_str(), "%u,%u", &shards_a, &shards_b) != 2 ||
      shards_a == 0 || shards_b == 0) {
    std::fprintf(stderr, "audit: --shards wants two counts, e.g. 1,2\n");
    return 2;
  }

  bool mode_ok = true;
  workload::ChaosParams base;
  base.mode = mode_of(flags.get("mode", "alpu256"), &mode_ok);
  if (!mode_ok) {
    std::fprintf(stderr, "unknown --mode\n");
    return 2;
  }
  base.ranks = static_cast<int>(flags.get_int("ranks", 4));
  base.per_pair = static_cast<int>(flags.get_int("per-pair", 8));
  base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double rate = flags.get_double("drop", 0.0);
  base.faults.drop_rate = rate;
  base.faults.dup_rate = flags.get_double("dup", rate / 2.0);
  base.faults.reorder_rate = flags.get_double("reorder", rate / 2.0);
  base.faults.corrupt_rate = flags.get_double("corrupt", rate / 2.0);
  base.faults.seed =
      static_cast<std::uint64_t>(flags.get_int("fault-seed", 0x5eed));

  const auto run_traced = [&base](unsigned nshards, check::Auditor& auditor,
                                  std::uint64_t capture_window) {
    auditor.enable_trace();
    if (capture_window != 0) auditor.capture_window(capture_window);
    workload::ChaosParams p = base;
    p.shards = static_cast<int>(nshards);
    p.auditor = &auditor;
    return workload::run_chaos(p);
  };

  check::Auditor audit_a, audit_b;
  run_traced(shards_a, audit_a, 0);
  run_traced(shards_b, audit_b, 0);
  const check::AuditTrace& trace_a = audit_a.trace();
  const check::AuditTrace& trace_b = audit_b.trace();
  std::fprintf(stderr, "audit: shards=%u ran %zu windows, shards=%u ran %zu\n",
               shards_a, trace_a.size(), shards_b, trace_b.size());

  const std::ptrdiff_t win = check::first_divergent_window(trace_a, trace_b);
  if (win < 0) {
    std::printf("audit: PASS — %zu windows, traces identical at shards=%u "
                "and shards=%u\n",
                trace_a.size(), shards_a, shards_b);
    return 0;
  }

  // Window ids are 1-based and dense (one trace record per window), so
  // record index i is window i+1.
  const auto window_id = static_cast<std::uint64_t>(win) + 1;
  std::printf("audit: DIVERGENCE at window %llu\n",
              static_cast<unsigned long long>(window_id));
  const auto show_window = [](const char* tag, const check::AuditTrace& t,
                              std::ptrdiff_t i) {
    if (i < static_cast<std::ptrdiff_t>(t.size())) {
      const check::WindowRecord& w = t[static_cast<std::size_t>(i)];
      std::printf("  %s: window %llu [%llu, %llu) events=%llu "
                  "hash=%016llx\n",
                  tag, static_cast<unsigned long long>(w.window),
                  static_cast<unsigned long long>(w.start),
                  static_cast<unsigned long long>(w.end),
                  static_cast<unsigned long long>(w.events),
                  static_cast<unsigned long long>(w.hash));
    } else {
      std::printf("  %s: (run already drained — no such window)\n", tag);
    }
  };
  show_window("run A", trace_a, win);
  show_window("run B", trace_b, win);

  // Re-run both sides capturing every event in the divergent window,
  // then diff the canonically sorted captures for the first event pair
  // that disagrees on the partition-stable key (when, origin_when).
  check::Auditor cap_a, cap_b;
  run_traced(shards_a, cap_a, window_id);
  run_traced(shards_b, cap_b, window_id);
  const std::vector<check::CapturedEvent> events_a = cap_a.captured();
  const std::vector<check::CapturedEvent> events_b = cap_b.captured();
  const std::ptrdiff_t ev = check::first_divergent_event(events_a, events_b);
  if (ev < 0) {
    // Hash caught a multiset difference the capture diff cannot see
    // (e.g. same (when, origin_when) keys, different event counts per
    // key at the tail) — the window summary above is the answer.
    std::printf("  captures match on (when, origin_when); counts: A=%zu "
                "B=%zu\n",
                events_a.size(), events_b.size());
    return 1;
  }
  const auto show_event = [](const char* tag, check::Auditor& auditor,
                             const std::vector<check::CapturedEvent>& v,
                             std::ptrdiff_t i) {
    if (i < static_cast<std::ptrdiff_t>(v.size())) {
      const check::CapturedEvent& e = v[static_cast<std::size_t>(i)];
      std::printf("  %s event[%td]: %s\n", tag, i,
                  check::format_event(e).c_str());
      std::printf("%s", auditor.provenance_chain(e.stamp).c_str());
    } else {
      std::printf("  %s event[%td]: (absent — run executed fewer events "
                  "in this window)\n",
                  tag, i);
    }
  };
  std::printf("first divergent event pair (sorted by when, origin_when):\n");
  show_event("run A", cap_a, events_a, ev);
  show_event("run B", cap_b, events_b, ev);
  return 1;
}
#else   // !ALPU_AUDIT
int run_audit(const common::Flags&) {
  std::fprintf(stderr,
               "alpusim audit needs the determinism audit layer; rebuild "
               "with cmake -DALPU_AUDIT=ON\n");
  return 2;
}
#endif  // ALPU_AUDIT

void print_result(const workload::LatencyResult& r) {
  std::printf("latency_ns=%.1f\n", common::to_ns(r.latency));
  std::printf("sw_entries_walked=%llu\n",
              static_cast<unsigned long long>(r.sw_entries_walked));
  std::printf("alpu_hits=%llu\n",
              static_cast<unsigned long long>(r.alpu_hits));
  std::printf("alpu_misses=%llu\n",
              static_cast<unsigned long long>(r.alpu_misses));
  std::printf("l1_hit_rate=%.4f\n", r.l1_hit_rate);
  std::printf("total_sim_time_ns=%.1f\n", common::to_ns(r.total_sim_time));
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags_opt = common::Flags::parse(argc, argv);
  if (!flags_opt.has_value() || flags_opt->positional().empty()) {
    return usage();
  }
  const common::Flags& flags = *flags_opt;
  const std::string scenario = flags.positional()[0];

  if (scenario == "sweep") {
    return run_sweep(flags);
  }
  if (scenario == "check") {
    return run_check(flags);
  }
  if (scenario == "chaos") {
    return run_chaos(flags);
  }
  if (scenario == "audit") {
    return run_audit(flags);
  }
  if (scenario == "conform") {
    return tools::run_conform(flags);
  }

  bool mode_ok = true;
  const NicMode mode = mode_of(flags.get("mode", "baseline"), &mode_ok);
  if (!mode_ok) {
    std::fprintf(stderr, "unknown --mode\n");
    return usage();
  }
  if (const char* why = bad_scenario_flag(scenario, flags)) {
    return reject(scenario, why);
  }

  if (flags.get_bool("trace")) {
    common::set_log_level(common::LogLevel::kTrace);
  } else if (flags.get_bool("debug")) {
    common::set_log_level(common::LogLevel::kDebug);
  }

  auto system = workload::make_system_config(mode);
  if (flags.get("alpu-model", "transaction") == "pipelined") {
    system.nic.alpu_model = nic::AlpuModelKind::kPipelined;
  }
  if (flags.has("threshold")) {
    system.nic.alpu_policy.insert_threshold =
        static_cast<std::size_t>(flags.get_int("threshold", 0));
  }
  if (flags.has("minbatch")) {
    system.nic.alpu_policy.min_batch =
        static_cast<std::size_t>(flags.get_int("minbatch", 1));
  }
  // Reliability / flow-control knobs apply to the latency scenarios too
  // (e.g. measuring the cost of a tiny eager budget on a clean link).
  if (apply_reliability_flags(flags, &system.nic.reliability)) {
    system.nic.reliability.enabled = true;
  }
  if (flags.has("pool-bytes") || flags.has("slots")) {
    system.nic.eager_pool_bytes =
        static_cast<std::uint64_t>(flags.get_int("pool-bytes", 0));
    system.nic.unexpected_slots =
        static_cast<std::uint32_t>(flags.get_int("slots", 0));
    system.nic.reliability.enabled = true;
  }

  const int shards = static_cast<int>(flags.get_int("shards", 1));

  if (scenario == "preposted") {
    workload::PrepostedParams p;
    p.mode = mode;
    p.system = system;
    p.queue_length = static_cast<std::size_t>(flags.get_int("length", 0));
    p.fraction_traversed = flags.get_double("fraction", 1.0);
    p.message_bytes =
        static_cast<std::uint32_t>(flags.get_int("bytes", 0));
    p.iterations = static_cast<int>(flags.get_int("iterations", 1));
    p.shards = shards;
    print_result(workload::run_preposted(p));
  } else if (scenario == "unexpected") {
    workload::UnexpectedParams p;
    p.mode = mode;
    p.system = system;
    p.queue_length = static_cast<std::size_t>(flags.get_int("length", 0));
    p.message_bytes =
        static_cast<std::uint32_t>(flags.get_int("bytes", 0));
    p.shards = shards;
    print_result(workload::run_unexpected(p));
  } else if (scenario == "pingpong") {
    const common::TimePs t = workload::run_pingpong(
        mode, static_cast<std::uint32_t>(flags.get_int("bytes", 0)),
        static_cast<int>(flags.get_int("iterations", 8)));
    std::printf("half_rtt_ns=%.1f\n", common::to_ns(t));
  } else if (scenario == "msgrate") {
    workload::MessageRateParams p;
    p.mode = mode;
    p.system = system;
    p.queue_length = static_cast<std::size_t>(flags.get_int("length", 0));
    p.burst = static_cast<int>(flags.get_int("burst", 64));
    p.message_bytes =
        static_cast<std::uint32_t>(flags.get_int("bytes", 0));
    p.shards = shards;
    const common::TimePs gap = workload::run_message_rate(p);
    std::printf("gap_ns=%.1f\n", common::to_ns(gap));
    std::printf("mmsgs_per_s=%.3f\n", 1e3 / common::to_ns(gap));
  } else if (scenario == "fpga") {
    fpga::PrototypeParams p;
    p.total_cells = static_cast<std::size_t>(flags.get_int("cells", 256));
    p.block_size = static_cast<std::size_t>(flags.get_int("block", 16));
    p.match_width =
        static_cast<unsigned>(flags.get_int("width", 42));
    p.flavor = flags.get("flavor", "posted") == "unexpected"
                   ? hw::AlpuFlavor::kUnexpected
                   : hw::AlpuFlavor::kPostedReceive;
    const auto est = fpga::estimate(p);
    std::printf("luts=%llu\nffs=%llu\nslices=%llu\n",
                static_cast<unsigned long long>(est.luts),
                static_cast<unsigned long long>(est.flip_flops),
                static_cast<unsigned long long>(est.slices));
    std::printf("clock_mhz=%.1f\nasic_mhz=%.0f\npipeline=%u\n",
                est.clock_mhz, est.asic_clock_mhz, est.pipeline_latency);
  } else {
    return usage();
  }

  // --report reruns the scenario with the machine kept alive for a full
  // component dump (latency scenarios only).
  if (flags.get_bool("report") &&
      (scenario == "preposted" || scenario == "unexpected")) {
    // The scenario runners tear the machine down; run a fresh machine
    // with equivalent traffic and dump it.
    sim::Engine engine;
    mpi::Machine machine(engine, system);
    sim::ProcessPool pool(engine);
    const auto length =
        static_cast<std::size_t>(flags.get_int("length", 0));
    pool.spawn([](mpi::Machine& m, std::size_t n) -> sim::Process {
      for (std::size_t i = 0; i < n; ++i) {
        (void)m.rank(0).irecv(1, 1000, 0);
      }
      mpi::Request ping = m.rank(0).irecv(1, 7, 4096);
      co_await m.rank(0).send(1, 1, 0);
      co_await m.rank(0).wait(ping);
    }(machine, length));
    pool.spawn([](mpi::Machine& m) -> sim::Process {
      co_await m.rank(1).recv(0, 1, 0);
      co_await m.rank(1).send(0, 7, 64);
    }(machine));
    engine.run();
    workload::print_machine_report(machine);
  }
  return 0;
}
