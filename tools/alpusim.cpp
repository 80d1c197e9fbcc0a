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
// Each command declares its flags once, in its row of `commands()`.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <optional>
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
#include "workload/scenarios.hpp"
#include "workload/sweep.hpp"

namespace alpu::tools {
std::vector<common::FlagSpec> conform_flags();  // conform.cpp
int run_conform(const common::Args& args);      // conform.cpp
}  // namespace alpu::tools

namespace {

using namespace alpu;
using enum common::FlagKind;
using common::Args;
using common::FlagSpec;
using workload::NicMode;

constexpr common::TimePs kPsPerUs = 1'000'000;

// Upper bounds of the fields integer flags fill: each flag's range is its
// field's, so no value wraps (Args::integer<T> and set assert it).
constexpr double kIntMax = std::numeric_limits<int>::max();
constexpr double kUnsignedMax = std::numeric_limits<unsigned>::max();
constexpr double kU32Max = std::numeric_limits<std::uint32_t>::max();
/// Whole microseconds a picosecond TimePs holds.
constexpr double kUsMax = std::numeric_limits<common::TimePs>::max() / kPsPerUs;

FlagSpec mode_flag(const char* fallback) {
  return {.name = "mode", .kind = kWord, .fallback = fallback,
          .choices = {workload::nic_mode_name(NicMode::kBaseline),
                      workload::nic_mode_name(NicMode::kAlpu128),
                      workload::nic_mode_name(NicMode::kAlpu256)},
          .help = "the NIC: software lists only, or 128- or 256-entry ALPUs"};
}

/// --mode's choices are listed in NicMode order.
NicMode mode(const Args& args) {
  return static_cast<NicMode>(args.choice("mode"));
}

/// --mode and the ALPU of the latency scenarios; --threshold and
/// --minbatch apply only when given.
std::vector<FlagSpec> machine_flags() {
  return {
      mode_flag("baseline"),
      {.name = "alpu-model", .kind = kWord, .fallback = "transaction",
       .choices = {"transaction", "pipelined"},
       .help = "the ALPU model: transaction-level or stage-level"},
      {.name = "threshold", .kind = kInt, .min = 0,
       .help = "queue length at which the firmware starts using the ALPU"},
      {.name = "minbatch", .kind = kInt, .min = 0,
       .help = "entries pending before an ALPU insert session starts"},
  };
}

/// The reliability layer's knobs; they apply only when given.
std::vector<FlagSpec> reliability_flags() {
  return {
      {.name = "rel-max-retries", .kind = kInt, .min = 0,
       .max = kUnsignedMax,
       .help = "timeouts without progress before a link is declared dead"},
      {.name = "rel-base-timeout-us", .kind = kInt, .min = 0, .max = kUsMax,
       .help = "first retransmit timeout"},
      {.name = "rel-max-timeout-us", .kind = kInt, .min = 0, .max = kUsMax,
       .help = "retransmit timeout backoff cap"},
      {.name = "rel-reorder-window", .kind = kInt, .min = 0,
       .help = "out-of-order packets buffered per peer"},
      {.name = "rel-rnr-hint-us", .kind = kInt, .min = 0, .max = kU32Max,
       .help = "retry hint an RNR NACK carries"},
      {.name = "rel-demote-after", .kind = kInt, .min = 0,
       .max = kUnsignedMax,
       .help = "RNR refusals before a peer's eager sends go rendezvous"},
  };
}

/// The per-NIC eager budget; it applies only when given.  The flow
/// checker keeps its pool in 32 bits, the NIC in 64.
std::vector<FlagSpec> budget_flags(
    double pool_max = std::numeric_limits<double>::infinity()) {
  return {
      {.name = "pool-bytes", .kind = kInt, .min = 0, .max = pool_max,
       .help = "eager payload bytes a NIC may stage, 0 for unlimited"},
      {.name = "slots", .kind = kInt, .min = 0, .max = kU32Max,
       .help = "eager messages a NIC may stage, 0 for unlimited"},
  };
}

/// Returns true when any reliability flag was given.
bool apply_reliability_flags(const Args& args, nic::ReliabilityConfig* rel) {
  // `|`, not `||`: every flag given must apply.
  return args.set("rel-max-retries", &rel->max_retries) |
         args.set("rel-base-timeout-us", &rel->base_timeout_ps, kPsPerUs) |
         args.set("rel-max-timeout-us", &rel->max_timeout_ps, kPsPerUs) |
         args.set("rel-reorder-window", &rel->reorder_window) |
         args.set("rel-rnr-hint-us", &rel->rnr_hint_us) |
         args.set("rel-demote-after", &rel->rnr_demote_after);
}

/// ALPU transient faults for sweep and chaos; they apply only when given.
std::vector<FlagSpec> seu_flags() {
  return {
      {.name = "seu-rate", .kind = kReal,
       .help = "chance of an ALPU bit flip per unit per microsecond"},
      {.name = "seu-seed", .kind = kInt, .min = 0,
       .help = "bit-flip injector seed"},
      {.name = "scrub-interval-us", .kind = kInt, .min = 0, .max = kUsMax,
       .help = "parity scrub period, 0 for none"},
  };
}

/// Returns true when the resulting config installs the model (rate or
/// scrub nonzero): zero-rate runs must stay byte-identical to flag-free
/// ones, so callers gate all SEU output on this.
bool apply_seu_flags(const Args& args, hw::SeuConfig* seu) {
  args.set("seu-rate", &seu->rate);
  args.set("seu-seed", &seu->seed);
  args.set("scrub-interval-us", &seu->scrub_interval_ps, kPsPerUs);
  return seu->any();
}

/// The all-to-all chaos workload and its network faults, which chaos and
/// audit share.  --dup, --reorder and --corrupt default to half the drop
/// rate, so they apply only when given.
std::vector<FlagSpec> chaos_workload_flags(const char* drop_fallback,
                                           const char* drop_help) {
  return {
      mode_flag("alpu256"),
      {.name = "ranks", .kind = kInt, .fallback = "4", .min = 2,
       .max = kIntMax, .help = "ranks in the all-to-all"},
      {.name = "per-pair", .kind = kInt, .fallback = "8", .min = 1,
       .max = kIntMax, .help = "messages each rank sends each peer"},
      {.name = "drop", .kind = kReal, .fallback = drop_fallback, .min = 0,
       .max = 1, .max_open = true, .help = drop_help},
      {.name = "dup", .kind = kReal, .help = "packet duplication rate"},
      {.name = "reorder", .kind = kReal, .help = "packet reorder rate"},
      {.name = "corrupt", .kind = kReal, .help = "packet corruption rate"},
      {.name = "fault-seed", .kind = kInt, .fallback = "24301", .min = 0,
       .help = "network fault injector seed"},
  };
}

/// `alpusim check --flow`: bounded-exhaustive check of the eager
/// flow-control spec (budgets, RNR NACKs, credits, demotion).
int run_flow_check(const Args& args) {
  check::FlowCheckOptions opt;
  args.set("depth", &opt.depth);
  args.set("pool-bytes", &opt.config.pool_bytes);
  args.set("slots", &opt.config.slots);
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
int run_check(const Args& args) {
  if (args.on("flow")) {
    return run_flow_check(args);
  }
  check::CheckOptions opt;
  args.set("depth", &opt.depth);
  opt.cells = args.integer<std::size_t>("cells");
  opt.block = args.integer<std::size_t>("block");
  if (!std::has_single_bit(opt.block) || opt.cells % opt.block != 0) {
    return args.reject("--block must be a power of two dividing --cells");
  }
  opt.faults = args.on("faults");

  std::vector<check::ImplKind> impls;
  const std::string& impl = args.word("impl");
  if (impl == "array" || impl == "all") {
    impls.push_back(check::ImplKind::kArray);
  }
  if (impl == "alpu" || impl == "all") {
    impls.push_back(check::ImplKind::kTransaction);
  }
  if (impl == "pipelined" || impl == "all") {
    impls.push_back(check::ImplKind::kPipelined);
  }
  std::vector<hw::AlpuFlavor> flavors;
  const std::string& flavor = args.word("flavor");
  if (flavor == "posted" || flavor == "both") {
    flavors.push_back(hw::AlpuFlavor::kPostedReceive);
  }
  if (flavor == "unexpected" || flavor == "both") {
    flavors.push_back(hw::AlpuFlavor::kUnexpected);
  }

  // Demonstration/self-test hook: plant the classic compaction
  // off-by-one in AlpuArray and watch the checker pin it down.
  hw::testing::inject_compaction_off_by_one = args.on("inject-compaction-bug");
  // Must-fail teeth for the fault model: one bit flip behind the parity
  // layer's back on the next insert.  The checker must produce a
  // counterexample — a clean PASS here means the detection is toothless.
  if (args.on("inject-silent-flip")) {
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
int run_sweep(const Args& args) {
  workload::SweepOptions sweep;
  sweep.jobs = args.integer<int>("jobs");
  sweep.shards = args.integer<int>("shards");
  apply_seu_flags(args, &sweep.seu);
  const bool quick = args.on("quick");

  std::vector<workload::LatencyResult> results;
  if (args.word("figure") == "5") {
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
  if (args.on("verbose")) {
    print_counters(results);
    print_robustness_counters(results);
  }
  return 0;
}

/// The chaos workload `chaos_workload_flags()` describes, at drop rate
/// `drop`.
workload::ChaosParams chaos_workload(const Args& args, double drop) {
  workload::ChaosParams p;
  p.mode = mode(args);
  p.ranks = args.integer<int>("ranks");
  p.per_pair = args.integer<int>("per-pair");
  p.faults.drop_rate = drop;
  p.faults.dup_rate = p.faults.reorder_rate = p.faults.corrupt_rate =
      drop / 2.0;
  args.set("dup", &p.faults.dup_rate);
  args.set("reorder", &p.faults.reorder_rate);
  args.set("corrupt", &p.faults.corrupt_rate);
  p.faults.seed = args.integer<std::uint64_t>("fault-seed");
  return p;
}

/// `alpusim chaos`: the fault-rate soak.  Sweeps drop rates (default
/// {0, 1e-3, 1e-2}; override with --drop) across --seeds traffic plans
/// on the parallel sweep pool, runs the all-to-all chaos workload at
/// each point, and FAILs unless every point delivers every MPI message
/// exactly once, in per-pair order, with all queues drained and no link
/// declared dead.  Duplication/reorder/corruption rates ride along at
/// half the drop rate each unless given explicitly.
int run_chaos(const Args& args) {
  workload::SweepOptions sweep;
  sweep.jobs = args.integer<int>("jobs");
  sweep.shards = args.integer<int>("shards");

  // Incast overload: every rank floods rank 0 with eager traffic while
  // rank 0 drains slowly, against a finite per-NIC eager budget.  The
  // defaults pick a budget far below the offered load so the run leans
  // on the full RNR-NACK / backoff / credit / demotion machinery.
  const bool overload = args.on("overload");
  std::uint64_t pool_bytes = overload ? 32'768 : 0;
  std::uint32_t slots = overload ? 16 : 0;
  args.set("pool-bytes", &pool_bytes);
  args.set("slots", &slots);
  // ALPU transient faults compound with the network faults: the same
  // soak must stay exactly-once / in-order / drained while the parity +
  // scrub + rebuild machinery absorbs bit flips underneath it.
  hw::SeuConfig seu;
  const bool seu_on = apply_seu_flags(args, &seu);

  std::vector<double> rates = {0.0, 1e-3, 1e-2};
  if (args.given("drop")) {
    rates = {args.real("drop")};
  } else if (overload) {
    rates = {0.0, 1e-2};
  }
  const std::int64_t seeds = args.integer("seeds");
  std::vector<workload::ChaosParams> points;
  for (double rate : rates) {
    for (std::int64_t s = 1; s <= seeds; ++s) {
      workload::ChaosParams p = chaos_workload(args, rate);
      if (overload && !args.given("ranks")) p.ranks = 9;
      p.seed = static_cast<std::uint64_t>(s);
      p.faults.seed += p.seed;
      p.seu = seu;
      p.shards = sweep.shards;
      p.overload = overload;
      p.eager_pool_bytes = pool_bytes;
      p.unexpected_slots = slots;
      apply_reliability_flags(args, &p.reliability);
      points.push_back(p);
    }
  }

  // Must-fail hook: back-date one cross-shard delivery past the
  // conservative lookahead bound.  The determinism auditor (ALPU_AUDIT
  // builds) must abort with a provenance chain.
  if (args.on("inject-lookahead-violation")) {
    hw::testing::inject_lookahead_violation.store(true,
                                                  std::memory_order_relaxed);
  }
  // Must-fail hook (ctest chaos_silent_flip_fails): one flip behind the
  // parity layer's back.  Run with --jobs 1 --shards 1 and no --seu
  // flags; the corrupted entry mismatches a receive, so the soak must
  // FAIL — a PASS means silent corruption got through undetected.
  if (args.on("inject-silent-flip")) {
    hw::testing::inject_silent_flip.store(true, std::memory_order_relaxed);
  }

  const std::vector<workload::ChaosResult> results = workload::sweep_map(
      points,
      [](const workload::ChaosParams& p) { return workload::run_chaos(p); },
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
    const double rate = points[i].faults.drop_rate;
    const auto seed = static_cast<unsigned long long>(points[i].seed);
    all_ok = all_ok && r.ok();
    std::printf(
        "%g,%llu,%llu,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,",
        rate, seed, static_cast<unsigned long long>(r.messages),
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
                   rate, seed, r.completed, r.conserved, r.ordered, r.drained,
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
int run_audit(const Args& args) {
  unsigned shards_a = 0, shards_b = 0;
  int end = 0;
  const std::string& spec = args.word("shards");
  if (std::sscanf(spec.c_str(), "%u,%u%n", &shards_a, &shards_b, &end) != 2 ||
      spec[static_cast<std::size_t>(end)] != '\0' || shards_a == 0 ||
      shards_b == 0) {
    return args.reject("--shards wants two counts, e.g. 1,2");
  }
  workload::ChaosParams base = chaos_workload(args, args.real("drop"));
  base.seed = args.integer<std::uint64_t>("seed");

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
int run_audit(const Args&) {
  std::fprintf(stderr,
               "alpusim audit needs the determinism audit layer; rebuild "
               "with cmake -DALPU_AUDIT=ON\n");
  return 2;
}
#endif  // ALPU_AUDIT

void print_result(const workload::LatencyResult& r,
                  const std::string& report) {
  std::printf("latency_ns=%.1f\n", common::to_ns(r.latency));
  std::printf("sw_entries_walked=%llu\n",
              static_cast<unsigned long long>(r.sw_entries_walked));
  std::printf("alpu_hits=%llu\n",
              static_cast<unsigned long long>(r.alpu_hits));
  std::printf("alpu_misses=%llu\n",
              static_cast<unsigned long long>(r.alpu_misses));
  std::printf("l1_hit_rate=%.4f\n", r.l1_hit_rate);
  std::printf("total_sim_time_ns=%.1f\n", common::to_ns(r.total_sim_time));
  std::fputs(report.c_str(), stdout);
}

mpi::SystemConfig machine_config(const Args& args) {
  mpi::SystemConfig system = workload::make_system_config(mode(args));
  if (args.word("alpu-model") == "pipelined") {
    system.nic.alpu_model = nic::AlpuModelKind::kPipelined;
  }
  args.set("threshold", &system.nic.alpu_policy.insert_threshold);
  args.set("minbatch", &system.nic.alpu_policy.min_batch);
  // Reliability / flow-control knobs apply to the latency scenarios too
  // (e.g. measuring the cost of a tiny eager budget on a clean link).
  if (apply_reliability_flags(args, &system.nic.reliability) |
      args.set("pool-bytes", &system.nic.eager_pool_bytes) |
      args.set("slots", &system.nic.unexpected_slots)) {
    system.nic.reliability.enabled = true;
  }
  return system;
}

int run_preposted(const Args& args) {
  workload::PrepostedParams p;
  p.system = machine_config(args);
  p.queue_length = args.integer<std::size_t>("length");
  p.fraction_traversed = args.real("fraction");
  p.message_bytes = args.integer<std::uint32_t>("bytes");
  p.iterations = args.integer<int>("iterations");
  p.shards = args.integer<int>("shards");
  if (p.iterations > 1 && p.fraction_traversed != 1.0) {
    return args.reject(
        "--iterations above 1 always walks the whole queue (--fraction 1)");
  }
  std::string report;
  if (args.on("report")) p.report = &report;
  print_result(workload::run_preposted(p), report);
  return 0;
}

int run_unexpected(const Args& args) {
  workload::UnexpectedParams p;
  p.system = machine_config(args);
  p.queue_length = args.integer<std::size_t>("length");
  p.message_bytes = args.integer<std::uint32_t>("bytes");
  p.shards = args.integer<int>("shards");
  std::string report;
  if (args.on("report")) p.report = &report;
  print_result(workload::run_unexpected(p), report);
  return 0;
}

int run_pingpong(const Args& args) {
  const common::TimePs t = workload::run_pingpong(
      mode(args), args.integer<std::uint32_t>("bytes"),
      args.integer<int>("iterations"));
  std::printf("half_rtt_ns=%.1f\n", common::to_ns(t));
  return 0;
}

int run_msgrate(const Args& args) {
  workload::MessageRateParams p;
  p.system = machine_config(args);
  p.queue_length = args.integer<std::size_t>("length");
  p.burst = args.integer<int>("burst");
  p.message_bytes = args.integer<std::uint32_t>("bytes");
  p.shards = args.integer<int>("shards");
  const common::TimePs gap = workload::run_message_rate(p);
  std::printf("gap_ns=%.1f\n", common::to_ns(gap));
  std::printf("mmsgs_per_s=%.3f\n", 1e3 / common::to_ns(gap));
  return 0;
}

int run_fpga(const Args& args) {
  const auto cells = args.integer<std::uint64_t>("cells");
  const auto block = args.integer<std::uint64_t>("block");
  if (!(std::has_single_bit(cells) && std::has_single_bit(block) &&
        block <= cells)) {
    return args.reject(
        "--cells and --block must be powers of two, --block at most --cells");
  }
  fpga::PrototypeParams p;
  p.total_cells = cells;
  p.block_size = block;
  p.match_width = args.integer<unsigned>("width");
  p.flavor = args.word("flavor") == "unexpected"
                 ? hw::AlpuFlavor::kUnexpected
                 : hw::AlpuFlavor::kPostedReceive;
  const auto est = fpga::estimate(p);
  std::printf("luts=%llu\nffs=%llu\nslices=%llu\n",
              static_cast<unsigned long long>(est.luts),
              static_cast<unsigned long long>(est.flip_flops),
              static_cast<unsigned long long>(est.slices));
  std::printf("clock_mhz=%.1f\nasic_mhz=%.0f\npipeline=%u\n",
              est.clock_mhz, est.asic_clock_mhz, est.pipeline_latency);
  return 0;
}

struct Command {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;  ///< all but --log, which every command takes
  int (*run)(const Args&);
};

std::vector<FlagSpec> concat(
    std::initializer_list<std::vector<FlagSpec>> groups) {
  std::vector<FlagSpec> out;
  for (const std::vector<FlagSpec>& g : groups) {
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

std::vector<Command> commands() {
  const FlagSpec length{.name = "length", .kind = kInt, .fallback = "0",
                        .min = 0, .help = "entries queued ahead of the match"};
  const FlagSpec bytes{.name = "bytes", .kind = kInt, .fallback = "0",
                       .min = 0, .max = kU32Max,
                       .help = "message payload bytes"};
  const FlagSpec report{.name = "report",
                        .help = "print every component's counters at the end"};
  const std::vector<FlagSpec> latency =
      concat({{length, bytes, workload::shards_flag()}, machine_flags(),
              reliability_flags(), budget_flags()});
  const FlagSpec silent_flip{
      .name = "inject-silent-flip",
      .help = "must-fail hook: one ALPU bit flip hidden from parity"};
  return {
      {"preposted", "Figure 5: one-way latency past a pre-posted queue",
       concat({latency,
               {{.name = "fraction", .kind = kReal, .fallback = "1", .min = 0,
                 .max = 1, .help = "share of the queue the message walks"},
                {.name = "iterations", .kind = kInt, .fallback = "1",
                 .min = 1, .max = kIntMax, .help = "measured pings, averaged"},
                report}}),
       run_preposted},
      {"unexpected", "Figure 6: receive latency past an unexpected queue",
       concat({latency, {report}}), run_unexpected},
      {"pingpong", "half round-trip time with empty queues",
       {mode_flag("baseline"), bytes,
        {.name = "iterations", .kind = kInt, .fallback = "8", .min = 1,
         .max = kIntMax, .help = "measured round trips, averaged"}},
       run_pingpong},
      {"msgrate", "per-message gap of a burst past a standing posted queue",
       concat({latency,
               {{.name = "burst", .kind = kInt, .fallback = "64", .min = 1,
                 .max = kIntMax, .help = "messages in the measured burst"}}}),
       run_msgrate},
      {"fpga", "Table IV/V area and clock estimate of one ALPU",
       {{.name = "cells", .kind = kInt, .fallback = "256", .min = 0,
         .help = "cells in the unit, a power of two"},
        {.name = "block", .kind = kInt, .fallback = "16", .min = 0,
         .help = "cells per block, a power of two"},
        {.name = "width", .kind = kInt, .fallback = "42", .min = 0,
         .max = kUnsignedMax, .help = "match bits per cell"},
        {.name = "flavor", .kind = kWord, .fallback = "posted",
         .choices = {"posted", "unexpected"}, .help = "which unit"}},
       run_fpga},
      {"sweep", "the Figure 5 surface or Figure 6 grid as CSV",
       concat({{{.name = "figure", .kind = kWord, .fallback = "5",
                 .choices = {"5", "6"}, .help = "which figure"},
                {.name = "quick", .help = "the coarse grid"},
                {.name = "verbose", .help = "counter totals on stderr"},
                workload::jobs_flag(), workload::shards_flag()},
               seu_flags()}),
       run_sweep},
      {"conform", "the paper's claims, one row each; exit 1 if any fails",
       tools::conform_flags(), tools::run_conform},
      {"check", "bounded model check of the ALPU models against the spec",
       concat({{{.name = "depth", .kind = kInt, .min = 1,
                 .help = "operations per sequence; 6, or 7 with --flow"},
                {.name = "cells", .kind = kInt, .fallback = "4", .min = 1,
                 .help = "array cells"},
                {.name = "block", .kind = kInt, .fallback = "2", .min = 0,
                 .help = "cells per block, a power of two dividing --cells"},
                {.name = "impl", .kind = kWord, .fallback = "all",
                 .choices = {"array", "alpu", "pipelined", "all"},
                 .help = "the implementation to check"},
                {.name = "flavor", .kind = kWord, .fallback = "both",
                 .choices = {"posted", "unexpected", "both"},
                 .help = "the units to check"},
                {.name = "faults",
                 .help = "add bit corruption; parity must catch it"},
                {.name = "flow",
                 .help = "check the flow-control spec (4096 bytes, 2 slots)"},
                {.name = "inject-compaction-bug",
                 .help = "must-fail hook: a compaction off-by-one"},
                silent_flip},
               budget_flags(kU32Max)}),
       run_check},
      {"chaos", "fault soak: every message exactly once and in order",
       concat({{workload::jobs_flag(), workload::shards_flag(),
                {.name = "seeds", .kind = kInt, .fallback = "2", .min = 1,
                 .help = "traffic plans per drop rate"},
                {.name = "overload",
                 .help = "incast; defaults 9 ranks, pool 32768, 16 slots, "
                         "drops {0, 1e-2}"},
                {.name = "inject-lookahead-violation",
                 .help = "must-fail hook for the ALPU_AUDIT auditor"},
                silent_flip},
               chaos_workload_flags(
                   "", "packet drop rate; unless given, each of 0, 1e-3, 1e-2"),
               seu_flags(), reliability_flags(), budget_flags()}),
       run_chaos},
      {"audit", "shard-divergence triage (needs -DALPU_AUDIT=ON)",
       concat({{{.name = "shards", .kind = kWord, .fallback = "1,2",
                 .help = "the two shard counts to compare, A,B"},
                {.name = "seed", .kind = kInt, .fallback = "1", .min = 0,
                 .help = "traffic plan"}},
               chaos_workload_flags("0", "packet drop rate")}),
       run_audit},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags tokens = *common::Flags::parse(argc, argv);
  const std::vector<Command> all = commands();
  const auto cmd = std::find_if(all.begin(), all.end(), [&](const Command& c) {
    return !tokens.positional().empty() && tokens.positional()[0] == c.name;
  });
  if (cmd == all.end()) {
    if (!tokens.positional().empty()) {
      std::fprintf(stderr, "alpusim: unknown command '%s'\n",
                   tokens.positional()[0].c_str());
    }
    std::fprintf(stderr, "usage: alpusim <command> [flags]\n");
    for (const Command& c : all) {
      std::fprintf(stderr, "  %-11s %s\n", c.name, c.summary);
    }
    return 2;
  }
  common::FlagTable table{.command = std::string("alpusim ") + cmd->name,
                          .summary = cmd->summary,
                          .flags = cmd->flags,
                          .positionals = 1};
  table.flags.push_back({.name = "log", .kind = kWord,
                         .choices = {"debug", "trace"},
                         .help = "log at this level to stderr"});
  const std::optional<Args> args = table.check(tokens);
  if (!args) return 2;
  if (args->given("log")) {
    common::set_log_level(args->word("log") == "debug"
                              ? common::LogLevel::kDebug
                              : common::LogLevel::kTrace);
  }
  return cmd->run(*args);
}
