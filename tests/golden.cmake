# Row-driven checks of the stdout and exit code of alpusim, the bench
# binaries and the examples.  Each ctest runs the rows of one group,
# named after the test (tests/CMakeLists.txt):
#
#   cmake -DALPUSIM=<alpusim> -DBENCH_DIR=<dir> -DEXAMPLES_DIR=<dir>
#         -DGROUP=<test> -DOUT_DIR=<dir> -P golden.cmake
#
# run(<exe> <file> <code> <args>...) runs `<exe> <args>` once and requires
# exit code <code> and, unless <file> is "", a stdout equal to <file>
# byte for byte.  golden(<file> <args>...) runs alpusim at --jobs 1, --jobs 8,
# --shards 2 and --shards 8, each of which must exit 0 and print <file>:
# simulated output must not depend on either flag, so one golden pins
# all four.  A mismatch says how to rewrite the golden (`fix`, by default
# the command that does); name any deliberate golden change in CHANGES.md.

set(goldens ${CMAKE_CURRENT_LIST_DIR}/golden)
set(figures ${CMAKE_CURRENT_LIST_DIR}/../bench/e2e/golden)
file(MAKE_DIRECTORY ${OUT_DIR})

# Errors are reported and the remaining rows still run.
function(run exe file code)
  get_filename_component(name ${exe} NAME)
  string(REPLACE ";" " " args "${ARGN}")
  string(STRIP "${name} ${args}" cmd)
  string(MAKE_C_IDENTIFIER "${cmd}" id)
  set(out ${OUT_DIR}/${id}.out)
  execute_process(COMMAND ${exe} ${ARGN} OUTPUT_FILE ${out}
                  ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc STREQUAL code)
    message(SEND_ERROR "${cmd}: exit ${rc}, expected ${code}\n${err}")
  elseif(file)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${out} ${file}
                    RESULT_VARIABLE differs)
    if(differs)
      if(NOT fix)
        set(fix "rewrite the golden with\n  ${exe} ${args} > ${file}")
      endif()
      message(SEND_ERROR "${cmd}: stdout (${out}) differs from "
              "${file}.  If the change is deliberate, ${fix}")
    endif()
  endif()
endfunction()

function(golden file)
  foreach(setting "--jobs;1" "--jobs;8" "--jobs;1;--shards;2"
                  "--jobs;1;--shards;8")
    run(${ALPUSIM} ${file} 0 ${ARGN} ${setting})
  endforeach()
endfunction()

if(GROUP STREQUAL "golden_figures")
  golden(${figures}/fig5.csv sweep --figure 5)
  golden(${figures}/fig6.csv sweep --figure 6)
elseif(GROUP STREQUAL "golden_chaos")
  # The default drop-rate grid, which a zero SEU rate must leave
  # untouched; one heavy-loss point; and eight ranks under that loss.
  golden(${goldens}/chaos_seeds3.csv chaos --seeds 3)
  golden(${goldens}/chaos_seeds3.csv chaos --seeds 3 --seu-rate 0)
  golden(${goldens}/chaos_drop5.csv chaos --drop 0.05 --seeds 2)
  golden(${goldens}/chaos_ranks8.csv
         chaos --ranks 8 --per-pair 4 --seeds 2 --drop 0.05)
elseif(GROUP STREQUAL "golden_seu")
  # ALPU bit flips compounded with 5% packet drop.
  foreach(rate 1e-3 5e-3)
    golden(${goldens}/seu_${rate}.csv chaos --seeds 2 --drop 0.05
           --seu-rate ${rate} --scrub-interval-us 50)
  endforeach()
elseif(GROUP STREQUAL "golden_overload")
  # Incast against tiny eager budgets (pool bytes, slots) at 5% drop.
  foreach(budget "4096;2" "4096;8" "8192;4" "16384;2" "16384;8")
    list(GET budget 0 pool)
    list(GET budget 1 slots)
    golden(${goldens}/overload_${pool}_${slots}.csv chaos --overload
           --seeds 2 --drop 0.05 --pool-bytes ${pool} --slots ${slots})
  endforeach()
elseif(GROUP STREQUAL "golden_check")
  # The exhaustive depth-6 model check, sequence and op counts included.
  run(${ALPUSIM} ${goldens}/check.txt 0 check --depth 6 --cells 4)
elseif(GROUP STREQUAL "golden_report")
  # --report renders the machine the command measured: on node 0 the
  # posted and unexpected walks add up to sw_entries_walked.  These
  # commands take no --jobs, so golden() does not apply.
  foreach(shards "" "--shards;2")
    run(${ALPUSIM} ${goldens}/report_unexpected_50.txt 0
        unexpected --length 50 --report ${shards})
    run(${ALPUSIM} ${goldens}/report_preposted_alpu256_300.txt 0
        preposted --mode alpu256 --length 300 --report ${shards})
  endforeach()
elseif(GROUP STREQUAL "golden_conform")
  # The paper-claim table.  Its golden is the block between the conform
  # fences in EXPERIMENTS.md, so the document cannot drift from it.
  file(READ ${CMAKE_CURRENT_LIST_DIR}/../EXPERIMENTS.md doc)
  if(NOT doc MATCHES "<!-- conform:begin -->\n(.*)<!-- conform:end -->")
    message(FATAL_ERROR "EXPERIMENTS.md has no conform fences")
  endif()
  file(WRITE ${OUT_DIR}/conform.md "${CMAKE_MATCH_1}")
  set(fix "paste its stdout between the conform fences in EXPERIMENTS.md")
  golden(${OUT_DIR}/conform.md conform)
elseif(GROUP STREQUAL "golden_benches")
  # What the bench binaries print: Tables IV/V, the Figure 5 projections,
  # the Section V-D pipeline numbers, the Elan4 ratio and the ablations.
  # bench_engine prints wall time, so only its exit code is checked.
  foreach(bench bench_alpu_micro bench_app_traces bench_fpga_tables
                bench_hash_ablation bench_message_rate bench_nic_comparison
                bench_portals bench_preposted bench_protocol_crossover
                bench_scaling bench_threshold)
    run(${BENCH_DIR}/${bench} ${goldens}/${bench}.txt 0)
  endforeach()
  run(${BENCH_DIR}/bench_engine "" 0)
elseif(GROUP STREQUAL "golden_examples")
  # The examples are small end-to-end simulations with printed results.
  foreach(example quickstart ping_pong halo_exchange unexpected_flood
                  portals_offload multi_process)
    run(${EXAMPLES_DIR}/${example} ${goldens}/example_${example}.txt 0)
  endforeach()
elseif(GROUP STREQUAL "check_rejects_bad_flags")
  # Flags the checker cannot run with print the usage text.
  foreach(flags "--depth;0" "--depth;-1" "--cells;0" "--cells;5"
                "--block;3" "--impl;reference" "--flow;--depth;0")
    run(${ALPUSIM} "" 2 check ${flags})
  endforeach()
elseif(GROUP STREQUAL "alpusim_rejects_bad_flags")
  # Flags a scenario would abort on, wrap to huge sizes, or run to a
  # vacuous PASS print a reason and the usage text; so do misspelled
  # names, flags the command does not read, malformed numbers and words
  # outside their choices, which would otherwise run a configuration
  # nobody asked for, and values outside the field a flag fills, which
  # would otherwise wrap (4294967296 bytes ran as 0, a slot budget or
  # retry limit of -1 as 4294967295, a threshold of -1 as never).
  foreach(flags "chaos;--seeds;0" "chaos;--per-pair;0" "chaos;--ranks;1"
      "chaos;--ranks;0" "chaos;--drop;-0.1" "chaos;--drop;1.5"
      "preposted;--length;-5" "unexpected;--length;-1" "msgrate;--burst;0"
      "preposted;--length;10;--fraction;2" "preposted;--iterations;0"
      "preposted;--iterations;2;--fraction;0.5" "pingpong;--iterations;0"
      "pingpong;--bytes;-1" "fpga;--cells;0" "fpga;--block;3"
      "sweep;--figur;6;--quick" "chaos;--seeds;1;--dorp;0.5"
      "preposted;--lenght;300" "unexpected;--lenght;5" "msgrate;--brust;8"
      "conform;--jbos;8" "check;--dpeth;3"
      "pingpong;--alpu-model;pipelined" "fpga;--mode;alpu256"
      "preposted;--length;abc" "preposted;--length;12abc"
      "preposted;--fraction;0.5x" "chaos;--seeds;1;--drop;0.5x"
      "chaos;--seeds;1;--drop=five" "fpga;--flavor;unexpectd"
      "preposted;--alpu-model;pipelind" "sweep;--figure;5;--quick;--shards;0"
      "sweep;--figure;5;--quick;--jobs;-3"
      "preposted;--length;1;--bytes;4294967296" "chaos;--seeds;1;--slots;-1"
      "chaos;--seeds;1;--rel-max-retries;-1"
      "preposted;--mode;alpu256;--length;5;--threshold;-1")
    run(${ALPUSIM} "" 2 ${flags})
  endforeach()
elseif(GROUP STREQUAL "bench_rejects_bad_flags")
  # The flag-taking benches print the usage for a flag they do not read.
  # A count past its variable's range is rejected too, not wrapped.
  foreach(row "bench_preposted;--jbos;8" "bench_scaling;--jbos;8"
              "bench_threshold;--jbos;8" "bench_engine;--iter;1000"
              "bench_engine;--iters;1000;--repeats;4294967297")
    list(POP_FRONT row bench)
    run(${BENCH_DIR}/${bench} "" 2 ${row})
  endforeach()
elseif(GROUP STREQUAL "chaos_silent_flip_fails")
  # Must-fail: a bit flip hidden from the parity layer fails the soak's
  # conservation verdict.  Exit 1 exactly: 2 would mean the command line
  # was rejected and the hook never ran.
  run(${ALPUSIM} "" 1 chaos --seeds 1 --jobs 1 --shards 1 --inject-silent-flip)
elseif(GROUP STREQUAL "audit_triage_clean")
  # Divergence triage finds no divergent window on clean runs.
  run(${ALPUSIM} "" 0 audit --shards 1,2)
  run(${ALPUSIM} "" 0 audit --shards 2,8 --drop 0.05)
  run(${ALPUSIM} "" 2 audit --shrads 1,2)
else()
  message(FATAL_ERROR "golden.cmake: unknown GROUP '${GROUP}'")
endif()
