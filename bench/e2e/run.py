#!/usr/bin/env python3
"""End-to-end benchmark of ALPU-Sim: host time and simulated time.

One command builds bench_e2e from this checkout's sources, runs a workload
in fresh processes, checks every output, and prints every metric by name
and unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

  python3 bench/e2e/run.py [--workload all|stream_alpu|...] [--seed 1]
                           [--seconds 20] [--trace 0|1] [--results FILE]
  python3 bench/e2e/run.py --compare parent.json change.json
  python3 bench/e2e/run.py --smoke --bin path/to/bench_e2e

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs the workload with spans on and reports the per-layer metrics, writing
bench/e2e/out/<workload>.trace.json.  See bench/e2e/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
WORKLOADS = ["stream_alpu", "stream_deep", "fig_sweep", "alltoall_faulty"]
PROCESSES = 3          # fresh processes per workload and run
WARMUP_SECONDS = 1.0   # discarded repetitions at the start of each process
PROCESS_TIMEOUT = 170  # seconds


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---- build --------------------------------------------------------------

def build():
    """Configure and build bench_e2e; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run.py: simulator sources not found under %s" % ROOT)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "e2e"
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) \
            not in cache.read_text():
        shutil.rmtree(build_dir)  # configured from another checkout
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    err = sys.stderr.fileno()
    if not cache.is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=err, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "bench_e2e", "-j", jobs], stdout=err, check=True)
    return build_dir / "bench_e2e"


# ---- one process --------------------------------------------------------

def run_process(binary, workload, seed, seconds, trace=False, quick=False,
                warmup=WARMUP_SECONDS):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", "%.3f" % seconds, "--warmup", "%.3f" % warmup,
           "--golden-dir", str(HERE / "golden")]
    if quick:
        cmd.append("--quick")
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace", "--trace-out",
                str(OUT / ("%s.trace.json" % workload))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run.py: bench_e2e %s exited %d" %
                         (workload, proc.returncode))
    return json.loads(lines[-1])


# ---- aggregation --------------------------------------------------------

def end_to_end(spec, procs):
    """End-to-end metrics pooled over a workload's processes, each stored
    with the median, quartiles and count of its samples.

    A timing's value is the lower quartile of every repetition of the
    processes.  Interference from other tenants only adds time and comes
    in bursts lasting minutes: in one such burst the medians of ten seeds
    of stream_alpu spread 29%, past the 25% bound, while their lower
    quartiles spread 12%.  peak_rss_mib's value is the processes' median."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    samples = {name: [v for p in procs for v in p["samples"][name]]
               for name in ("setup_s", "pass_s", "host_ns_per_msg")}
    samples["peak_rss_mib"] = [p["peak_rss_mib"] for p in procs]
    metrics = {}
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        median = statistics.median(values)
        metrics[name] = {"value": median if name == "peak_rss_mib" else q1,
                         "unit": units[name], "q1": q1, "median": median,
                         "q3": q3, "n": len(values)}
    return metrics


def per_layer(spec, proc):
    """Per-layer metrics of one traced process."""
    values = dict(proc["counts"])
    values.update(proc["layer"])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"] if m["name"] in values}


def summarize(spec, workload, procs, trace):
    """One run's record: metrics, correctness and simulated results."""
    failures = {}
    for p in procs:
        for k, v in p["failures"].items():
            failures[k] = failures.get(k, 0) + int(v)
    attempted = sum(int(p["attempted"]) for p in procs)
    failed = sum(int(p["failed"]) for p in procs)
    # Fresh processes must reproduce the simulation bit for bit.
    digests = {p["sim"]["digest"] for p in procs}
    if len(digests) != 1:
        failures["nondeterministic"] = failures.get("nondeterministic", 0) + 1
        failed += 1
    metrics = per_layer(spec, procs[0]) if trace else end_to_end(spec, procs)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    positive = trace or all(m["value"] > 0 for m in metrics.values())
    return {
        "workload": workload, "seed": procs[0]["seed"],
        "trace": trace, "finished": time.time(),
        "correct": failed == 0 and not missing and finite and positive,
        "attempted": attempted, "failed": failed,
        "failures": {k: v for k, v in failures.items() if v},
        "missing_metrics": missing,
        "metrics": metrics,
        "sim": procs[0]["sim"],
        "messages_per_rep": procs[0]["messages_per_rep"],
        "repetitions": [p["repetitions"] for p in procs],
    }


def print_record(rec):
    print("== %s (seed %d, %s) ==" % (rec["workload"], rec["seed"],
                                      "traced" if rec["trace"] else "untraced"))
    for name, m in rec["metrics"].items():
        if "n" in m:
            print("  %-32s %14.6g %-9s median %.6g, IQR %.6g .. %.6g, n=%d" %
                  (name, m["value"], m["unit"], m["median"], m["q1"],
                   m["q3"], m["n"]))
        else:
            print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    sim = rec["sim"]
    print("  simulated: latency p50 %.1f ns, p99 %.1f ns over %d samples; "
          "makespan %.3f us; digest %s" %
          (sim["latency_p50_ns"], sim["latency_p99_ns"],
           sim["latency_samples"], sim["makespan_us"], sim["digest"]))
    print("  checked %d operations, %d failed%s" %
          (rec["attempted"], rec["failed"],
           " " + json.dumps(rec["failures"]) if rec["failures"] else ""))
    if rec["missing_metrics"]:
        print("  MISSING metrics: %s" % ", ".join(rec["missing_metrics"]))


def save_results(path, records):
    path = Path(path)
    data = {"runs": []}
    if path.is_file():
        data = json.loads(path.read_text())
    data["runs"].extend(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def final_line(records):
    """The result line; with several workloads, metric names are prefixed
    "<workload>/" so no workload hides another."""
    metrics = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            key = name if len(records) == 1 else rec["workload"] + "/" + name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def run_benchmark(args):
    spec = load_spec()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    binary = build()
    if args.trace:
        procs = {w: [run_process(binary, w, args.seed, args.seconds,
                                 trace=True)] for w in workloads}
    else:
        # Fresh processes, round-robin across workloads: a process's heap
        # layout and the machine's load shift its medians, so no one
        # process decides a metric.
        procs = {w: [] for w in workloads}
        for _ in range(PROCESSES):
            for w in workloads:
                procs[w].append(run_process(
                    binary, w, args.seed, args.seconds / PROCESSES))
    records = []
    for w in workloads:
        rec = summarize(spec, w, procs[w], bool(args.trace))
        rec["seconds"] = args.seconds
        print_record(rec)
        records.append(rec)
    save_results(args.results or OUT / "results.json", records)
    line = final_line(records)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ---- comparison (choosing-metrics sections 6-8) --------------------------

def compare(parent_path, change_path):
    spec = load_spec()
    parent = json.loads(Path(parent_path).read_text())["runs"]
    change = json.loads(Path(change_path).read_text())["runs"]
    status = 0
    print("%-16s %-16s %24s %24s %7s %8s %6s  %s" %
          ("workload", "metric", "parent median [q1,q3]",
           "change median [q1,q3]", "wins", "change", "bound", "verdict"))
    for w in WORKLOADS:
        p_runs = [r for r in parent if r["workload"] == w and not r["trace"]]
        c_runs = [r for r in change if r["workload"] == w and not r["trace"]]
        if not p_runs and not c_runs:
            continue
        pairs = min(len(p_runs), len(c_runs))
        if pairs < 10:
            print("%-16s needs at least 10 parent/change pairs, has %d" %
                  (w, pairs))
            status = max(status, 2)
            continue
        p_runs, c_runs = p_runs[:pairs], c_runs[:pairs]
        # In time order, runs come in parent/change pairs, and the side
        # that runs first alternates from pair to pair.
        sides = [s for _, s in sorted([(r["finished"], "p") for r in p_runs] +
                                      [(r["finished"], "c") for r in c_runs])]
        firsts = sides[0::2]
        if any(a == b for a, b in zip(sides[0::2], sides[1::2])) or \
                any(a == b for a, b in zip(firsts, firsts[1:])):
            print("%-16s runs are not pairs alternating which side runs "
                  "first" % w)
            status = max(status, 2)
            continue
        failing = not all(r["correct"] for r in c_runs)
        if failing:
            print("%-16s change has failed operations: no gain counts" % w)
            status = 1
        for m in spec["end_to_end"]:
            verdict, row = judge(m, [r["metrics"][m["name"]]["value"]
                                     for r in p_runs],
                                 [r["metrics"][m["name"]]["value"]
                                  for r in c_runs])
            if failing and verdict == "gain":
                verdict = "no gain (failed operations)"
            print("%-16s %-16s %s %s" % (w, m["name"], row, verdict))
            if verdict == "regression":
                status = max(status, 1)
    return status


def judge(metric, p, c):
    """Verdict for one metric on one workload, from paired runs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
    p_med, c_med = statistics.median(p), statistics.median(c)
    p_q1, p_q3 = quartiles(p)
    c_q1, c_q3 = quartiles(c)
    p_iqr = p_q3 - p_q1
    worse_by = sign * (c_med - p_med) / p_med
    every_beats = (max(c) < min(p)) if sign > 0 else (min(c) > max(p))
    if wins >= 0.9 * len(p) and sign * (p_med - c_med) > p_iqr:
        verdict = "gain"
    elif p_iqr / p_med > metric["bound"] and not every_beats:
        verdict = "unresolved"
    elif worse_by > metric["bound"]:
        verdict = "regression"
    else:
        verdict = "within bound"
    row = "%24s %24s %3d/%-3d %+7.1f%% %5.0f%%" % (
        "%.5g [%.5g,%.5g]" % (p_med, p_q1, p_q3),
        "%.5g [%.5g,%.5g]" % (c_med, c_q1, c_q3),
        wins, len(p), 100 * worse_by, 100 * metric["bound"])
    return verdict, row


# ---- smoke test -----------------------------------------------------------

def smoke(binary):
    """Every workload at --quick size, untraced and traced: no failed
    operation, every metric of BENCHMARK.json printed."""
    spec = load_spec()
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            proc = run_process(binary, w, 1, 0.0, trace=trace, quick=True,
                               warmup=0.0)
            rec = summarize(spec, w, [proc], trace)
            print_record(rec)
            ok = ok and rec["correct"]
    print("smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    # A terminated run must not leave bench_e2e behind: the exception
    # makes subprocess.run kill and reap the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured seconds per workload and run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="append run records to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="prebuilt bench_e2e (smoke test)")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke(Path(args.bin) if args.bin else build())
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
