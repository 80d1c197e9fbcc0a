// bench_e2e: one process of the end-to-end benchmark.
//
//   bench_e2e --workload <name> --golden-dir <dir> [--seed N]
//             [--seconds S] [--warmup S] [--quick] [--trace]
//             [--trace-out <path>]
//
// Runs discarded warm-up repetitions of the workload (at least one, for
// at least `--warmup` seconds), then repetitions until `--seconds` have
// passed (at least three), and prints one JSON
// object on stdout: every repetition's host-time samples, peak RSS, the
// correctness tallies, the simulated results and the per-layer counts.
// With --trace it alternates untraced and traced repetitions, runs the
// layer drivers, writes the last traced repetition's spans as Chrome
// trace-event JSON and adds the per-layer host times.  run.py drives this
// binary; see README.md.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using bench::Repetition;
using bench::Values;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries the parent's peak across fork + exec into
/// ru_maxrss, so a Python launcher's footprint would mask ours.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void print_array(const char* key, const std::vector<double>& v,
                 bool last = false) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.9g", i ? ", " : "", v[i]);
  }
  std::printf("]%s", last ? "" : ", ");
}

void print_values(const char* key, const Values& values, bool last = false) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i ? ", " : "", values[i].first.c_str(),
                values[i].second);
  }
  std::printf("}%s", last ? "" : ", ");
}

/// Host-time samples of a run of repetitions.
struct Samples {
  std::vector<double> setup_s, pass_s, host_ns_per_msg;
  void add(const Repetition& rep) {
    setup_s.push_back(rep.setup_s);
    pass_s.push_back(rep.pass_s);
    host_ns_per_msg.push_back(rep.run_s * 1e9 /
                              static_cast<double>(rep.messages));
  }
};

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Span-derived per-layer host times of the last traced repetition.
Values span_metrics(const bench::Tracer& tracer, std::uint64_t messages) {
  double isend = 0, irecv = 0, setup = 0, teardown = 0, run_self = 0;
  for (const bench::Tracer::SelfTime& row : tracer.self_times()) {
    const double mean = row.total_ns / static_cast<double>(row.count);
    if (row.name == "mpi.isend") isend = mean;
    if (row.name == "mpi.irecv") irecv = mean;
    if (row.name == "setup") setup = mean / 1e3;
    if (row.name == "teardown") teardown = mean / 1e3;
    if (row.name == "run") run_self = row.self_ns;
  }
  return {
      {"mpi.isend_ns", isend},
      {"mpi.irecv_ns", irecv},
      {"mpi.machine_setup_us", setup},
      {"mpi.machine_teardown_us", teardown},
      {"sim.run_self_ns_per_msg", run_self / static_cast<double>(messages)},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = alpu::common::Flags::parse(argc, argv);
  if (!flags || !flags->has("workload") || !flags->has("golden-dir")) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --golden-dir <dir> "
                 "[--seed N] [--seconds S] [--warmup S] [--quick] "
                 "[--trace] [--trace-out <path>]\n");
    return 2;
  }
  const std::string name = flags->get("workload", "");
  bench::Options options;
  options.seed = static_cast<std::uint64_t>(flags->get_int("seed", 1));
  options.quick = flags->get_bool("quick");
  options.golden_dir = flags->get("golden-dir", "");
  const double seconds = flags->get_double("seconds", 2.0);
  const double warmup = flags->get_double("warmup", 0.0);
  const bool trace = flags->get_bool("trace");

  // Keep freed heap memory in the process.  With glibc's adaptive
  // thresholds, whether a machine's ALPU FIFO buffers come back as
  // resident pages or fresh page faults depends on incidental heap layout:
  // the seeded point order alone moved fig_sweep's set-up time 3x.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  try {
    const std::optional<bench::Workload> workload =
        bench::make_workload(name, options);
    if (!workload) {
      std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n", name.c_str());
      return 2;
    }

    // The first repetition is the reference every later one must
    // reproduce exactly; its outputs are also what gets reported.
    const auto warm_start = bench::Clock::now();
    const Repetition first = workload->run();
    bench::Failures failures = first.failures;
    std::uint64_t attempted = first.attempted;
    auto account = [&](const Repetition& rep) {
      attempted += rep.attempted;
      failures += rep.failures;
      if (rep.digest != first.digest) ++failures.nondeterministic;
    };

    while (bench::seconds_since(warm_start) < warmup) {
      account(workload->run());
    }

    bench::Tracer tracer;
    Samples untraced, traced;
    const auto start = bench::Clock::now();
    int reps = 0;
    const int min_reps = trace ? 4 : 3;
    while (reps < min_reps || bench::seconds_since(start) < seconds) {
      const bool traced_rep = trace && reps % 2 == 1;
      if (traced_rep) {
        tracer.clear();
        bench::g_tracer = &tracer;
      }
      const Repetition rep = workload->run();
      bench::g_tracer = nullptr;
      account(rep);
      (traced_rep ? traced : untraced).add(rep);
      ++reps;
    }

    Values layer;
    if (trace) {
      layer = span_metrics(tracer, first.messages);
      bench::g_tracer = &tracer;
      for (const auto& v : bench::run_layer_drivers(workload->layer_queue,
                                                    options.seed,
                                                    options.quick)) {
        layer.push_back(v);
      }
      bench::g_tracer = nullptr;
      layer.emplace_back("trace_overhead_frac",
                         median(traced.pass_s) / median(untraced.pass_s) - 1);
      const std::string out = flags->get("trace-out", "");
      if (!out.empty() && !tracer.write_chrome_json(out, 100'000)) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n", out.c_str());
        return 1;
      }
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"quick\": %s, \"trace\": %s, \"repetitions\": %d, "
                "\"messages_per_rep\": %" PRIu64 ", ",
                name.c_str(), options.seed, options.quick ? "true" : "false",
                trace ? "true" : "false", reps, first.messages);
    std::printf("\"samples\": {");
    print_array("setup_s", untraced.setup_s);
    print_array("pass_s", untraced.pass_s);
    print_array("host_ns_per_msg", untraced.host_ns_per_msg, true);
    std::printf("}, \"peak_rss_mib\": %.6f, ", peak_rss_mib());
    std::printf("\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", ",
                attempted, failures.total());
    print_values("failures",
                 {{"bytes", failures.bytes},
                  {"envelope", failures.envelope},
                  {"order", failures.order},
                  {"incomplete", failures.incomplete},
                  {"undrained", failures.undrained},
                  {"stalls", failures.stalls},
                  {"link_failures", failures.link_failures},
                  {"golden", failures.golden},
                  {"nondeterministic", failures.nondeterministic}});
    std::printf("\"sim\": {\"latency_p50_ns\": %.3f, \"latency_p99_ns\": %.3f, "
                "\"latency_samples\": %zu, \"makespan_us\": %.6f, "
                "\"digest\": \"%016" PRIx64 "\"}, ",
                percentile(first.latencies_ns, 50),
                percentile(first.latencies_ns, 99), first.latencies_ns.size(),
                first.makespan_us, first.digest);
    print_values("counts", first.counts, !trace);
    if (trace) print_values("layer", layer, true);
    std::printf("}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
