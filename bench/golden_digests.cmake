# The table of determinism contracts (ctest golden_digests and the
# bench_*_differential groups, label golden; golden_scale_*, label scale).
#
# A row runs one command in WORK_DIR, requires its exit code (0 unless
# EXIT says otherwise) and compares the SHA-256 of its stdout with the
# committed digest of its class in tests/golden/digests.json. A row that
# names a FILE (any file the command writes: its BENCH json, a trace)
# also compares that file's SHA-256 with the class "<class>.json". Rows that share a class
# are a differential: "--jobs 4 prints what --jobs 1 prints" is "both
# print the class's digest". The digests pin the simulated results
# themselves, so a rewrite is checked against the committed bytes rather
# than against a second implementation kept alive beside it.
#
#   row(<class> <command> [args...] [FILE <file>] [STRIP <regex>] [EXIT <code>])
#
# STRIP drops what legitimately differs between the legs of a class
# before hashing: each match of <regex> is replaced by its first group.
# run(<command> [args...]) requires exit 0 of a command whose output is
# not deterministic (wall-clock); the checks after it read its files.
#
# To add a contract, add a row to the group whose ctest should run it;
# to add a class, also add its digest to tests/golden/digests.json. There
# is no regenerate switch: a mismatch prints the digest it got ("sha256
# <got> (want <committed>)") and an update is a hand edit, noted in
# CHANGES.md, after checking that every row of the class prints it.
#
# Invoked as:
#   cmake -DGROUP=<ctest name> -DBENCH_DIR=<dir with bench_*>
#         -DSCENARIO_RUNNER=<path> -DSCENARIO_DIR=<examples/scenarios>
#         -DDIGESTS=<digests.json> -DWORK_DIR=<dir> -P golden_digests.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var GROUP BENCH_DIR SCENARIO_RUNNER SCENARIO_DIR DIGESTS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()
include(${CMAKE_CURRENT_LIST_DIR}/scale_gates.cmake)
file(MAKE_DIRECTORY "${WORK_DIR}")
file(READ "${DIGESTS}" committed)

function(fail text)
  set_property(GLOBAL APPEND PROPERTY failures "${text}")
endfunction()

# Runs a command in WORK_DIR; stderr (json/trace/exec-report status
# lines) is discarded so stdout stays byte-comparable. Fails unless it
# exits `expect`; returns stdout and whether it did.
function(run_in_work_dir out_var ok_var expect)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
  list(JOIN ARGN " " command)
  string(REGEX REPLACE "^[^ ]*/" "" command "${command}")  # binary's name
  set(${out_var} "${out}" PARENT_SCOPE)
  set(command "${command}" PARENT_SCOPE)
  if(code STREQUAL expect)
    set(${ok_var} TRUE PARENT_SCOPE)
  else()
    fail("${command}: exited ${code}, expected ${expect}")
    set(${ok_var} FALSE PARENT_SCOPE)
  endif()
endfunction()

function(run)
  run_in_work_dir(out ok 0 ${ARGN})
endfunction()

function(check_digest key text command)
  string(SHA256 got "${text}")
  string(JSON want ERROR_VARIABLE missing GET "${committed}" "${key}")
  if(missing)
    set(want none)
  endif()
  if(got STREQUAL want)
    message(STATUS "${key}: ${got}  (${command})")
  else()
    file(WRITE "${WORK_DIR}/${key}.txt" "${text}")
    fail("${key}: sha256 ${got} (want ${want})  (${command})")
  endif()
endfunction()

function(row class)
  cmake_parse_arguments(PARSE_ARGV 1 arg "" "FILE;STRIP;EXIT" "")
  if(NOT DEFINED arg_EXIT)
    set(arg_EXIT 0)
  endif()
  run_in_work_dir(out ok ${arg_EXIT} ${arg_UNPARSED_ARGUMENTS})
  if(NOT ok)
    return()
  endif()
  if(DEFINED arg_STRIP)
    string(REGEX REPLACE "${arg_STRIP}" "\\1" out "${out}")
  endif()
  check_digest(${class} "${out}" "${command}")
  if(DEFINED arg_FILE)
    if(EXISTS "${WORK_DIR}/${arg_FILE}")
      file(READ "${WORK_DIR}/${arg_FILE}" text)
      check_digest(${class}.json "${text}" "${command}")
    else()
      fail("${command}: wrote no ${arg_FILE}")
    endif()
  endif()
endfunction()

# Fails unless `file` contains each of the strings in ARGN.
function(require_text file)
  file(READ "${WORK_DIR}/${file}" text)
  foreach(needle ${ARGN})
    string(FIND "${text}" "${needle}" at)
    if(at EQUAL -1)
      fail("${file}: missing \"${needle}\"")
    endif()
  endforeach()
endfunction()

# A Chrome trace_event file: a non-empty traceEvents array whose first
# event has the keys chrome://tracing and Perfetto read.
function(require_chrome_trace file)
  file(READ "${WORK_DIR}/${file}" trace)
  string(JSON events ERROR_VARIABLE bad LENGTH "${trace}" traceEvents)
  if(bad OR events EQUAL 0)
    fail("${file}: no traceEvents (${bad})")
    return()
  endif()
  foreach(key name cat ph ts pid tid)
    string(JSON type ERROR_VARIABLE missing TYPE "${trace}" traceEvents 0 ${key})
    if(missing)
      fail("${file}: first event has no \"${key}\"")
    endif()
  endforeach()
endfunction()

set(soak ${BENCH_DIR}/bench_chaos_soak)
set(join ${BENCH_DIR}/bench_join_latency)
set(churn ${BENCH_DIR}/bench_churn_scale)
set(dataplane ${BENCH_DIR}/bench_dataplane)
set(placement ${BENCH_DIR}/bench_core_placement)

if(GROUP STREQUAL "golden_digests")
  # The canonical experiment commands.
  row(chaos_soak_events25 ${soak} --events 25)
  foreach(seed 1 7 23 51 97)
    row(chaos_soak_r16_seed${seed}
      ${soak} --seed ${seed} --events 40 --routers 16 --csv)
  endforeach()
  foreach(seed 1 2 3 4 5)
    row(chaos_soak_r256_seed${seed}
      ${soak} --seed ${seed} --events 10 --routers 256 --csv)
  endforeach()
  row(join_latency_csv ${join} --csv)
  row(failure_recovery ${BENCH_DIR}/bench_failure_recovery)
  row(churn_scale_smoke ${churn} --deterministic --smoke)
  row(dataplane_smoke ${dataplane} --smoke --deterministic)
  row(core_placement_smoke
    ${placement} --smoke --seed 1 --exec-json core_placement.exec.json)
  foreach(scenario core_failover figure1_conference)
    row(scenario_${scenario} ${SCENARIO_RUNNER} ${SCENARIO_DIR}/${scenario}.cbt)
  endforeach()

elseif(GROUP STREQUAL "bench_exec_differential")
  # --jobs N: stdout and the bench's own BENCH json are independent of
  # the replica worker count; wall-clock lives only in the exec report.
  foreach(jobs 1 4)
    foreach(seed 1 2)
      row(chaos_soak_r256_e25_repeat3_seed${seed}
        ${soak} --routers 256 --events 25 --repeat 3 --seed ${seed}
        --jobs ${jobs} --json soak${seed}.jobs${jobs}.json
        --exec-json soak${seed}.jobs${jobs}.exec.json
        FILE soak${seed}.jobs${jobs}.json)
      row(join_latency_seed${seed} ${join} --seed ${seed} --jobs ${jobs}
        --json join${seed}.jobs${jobs}.json FILE join${seed}.jobs${jobs}.json)
    endforeach()
    row(chaos_soak_r16_e10_repeat4
      ${soak} --events 10 --routers 16 --repeat 4 --jobs ${jobs})
    row(dataplane_smoke ${dataplane} --smoke --deterministic --jobs ${jobs}
      --json dataplane.jobs${jobs}.json FILE dataplane.jobs${jobs}.json)
  endforeach()
  row(join_latency_csv ${join} --jobs 4)
  require_text(soak1.jobs4.exec.json
    replica_wall_seconds sweep_wall_seconds total_wall_seconds)

elseif(GROUP STREQUAL "bench_pdes_differential")
  # --shards N >= 1: stdout and BENCH json are independent of the region
  # count (they differ from the classic serial engine's, which draws from
  # one global RNG stream).
  foreach(shards 1 4)
    foreach(seed 1 2 3 4 5)
      row(chaos_soak_smoke_e6_shards_seed${seed}
        ${soak} --smoke --events 6 --seed ${seed} --shards ${shards}
        --json soak${seed}.shards${shards}.json
        FILE soak${seed}.shards${shards}.json)
      row(join_latency_seed${seed} ${join} --seed ${seed}
        --shards ${shards} --json join${seed}.shards${shards}.json
        FILE join${seed}.shards${shards}.json)
    endforeach()
    row(chaos_soak_r256_e10_shards
      ${soak} --routers 256 --events 10 --shards ${shards})
  endforeach()
  row(chaos_soak_smoke_e6_shards_seed1 ${soak} --smoke --events 6 --shards 4)
  row(dataplane_smoke_shards ${dataplane} --smoke --deterministic --shards 1)
  row(dataplane_smoke_shards ${dataplane} --smoke --deterministic --shards 2)
  # The causal-path checker is clean over a sharded soak.
  row(chaos_soak_smoke_e6_shards_check
    ${soak} --smoke --events 6 --shards 4 --check --check-json check.json)
  # A sharded simulation already fans out across the cores: composing it
  # with replica parallelism is a usage error.
  row(chaos_soak_shards_with_jobs ${soak} --smoke --shards 2 --jobs 2 EXIT 2)

elseif(GROUP STREQUAL "bench_trace_differential")
  # Tracing is record-only: --trace leaves stdout byte-identical. The
  # trace files themselves are pinned too, so a change that reorders or
  # drops a trace event fails here even when stdout does not move.
  row(chaos_soak_smoke_e6 ${soak} --smoke --events 6)
  row(chaos_soak_smoke_e6 ${soak} --smoke --events 6 --trace soak.trace.json
    FILE soak.trace.json)
  foreach(seed 1 2)
    row(chaos_soak_r9_e6_seed${seed}
      ${soak} --seed ${seed} --events 6 --routers 9 --csv)
    row(chaos_soak_r9_e6_seed${seed}
      ${soak} --seed ${seed} --events 6 --routers 9 --csv
      --trace soak${seed}.trace.json --json soak${seed}.json
      FILE soak${seed}.json)
  endforeach()
  row(join_latency_csv ${join})
  row(join_latency_csv ${join} --trace join.trace.json FILE join.trace.json)
  # The one small run whose trace holds core-demoted and reconciled
  # core-anchored events (live core migration).
  row(core_placement_smoke_locality_trace ${placement} --smoke --repeat 2
    --seed 1 --placement locality --trace cp.trace.json FILE cp.trace.json)
  require_chrome_trace(soak1.trace.json)
  require_chrome_trace(join.trace.json)

elseif(GROUP STREQUAL "bench_dataplane_differential")
  # bench_dataplane runs every row through both forwarding paths and
  # exits 3 if they deliver different bytes, so each of its rows is a
  # fast/slow differential; the other benches take --dataplane slow.
  row(dataplane_smoke_repeat2 ${dataplane} --smoke --deterministic --seed 1
    --repeat 2 --min-copy-reduction 2 --json repeat2.json FILE repeat2.json)
  row(dataplane_smoke_seed5_repeat3 ${dataplane} --smoke --deterministic
    --seed 5 --repeat 3 --json repeat3.json FILE repeat3.json)
  row(dataplane_smoke_fast ${dataplane} --smoke --deterministic --seed 1
    --dataplane fast --json fast.json FILE fast.json)
  foreach(path fast slow)
    row(chaos_soak_smoke ${soak} --smoke --dataplane ${path})
    # The slow path never fills the flow cache, so the three trailing
    # cache-counter columns differ; the delivery columns may not.
    row(churn_scale_data_rate ${churn} --smoke --deterministic --data-rate 20
      --dataplane ${path} STRIP " +[0-9]+ +[0-9]+ +[0-9]+(\r?\n)")
  endforeach()
  row(chaos_soak_smoke_e6 ${soak} --smoke --events 6 --dataplane slow)

elseif(GROUP STREQUAL "bench_churn_differential")
  # The aggregate host model under --deterministic: --jobs and --shards
  # leave stdout and BENCH json unchanged.
  foreach(n 1 4)
    row(churn_scale_smoke_repeat2 ${churn} --smoke --deterministic --repeat 2
      --seed 1 --jobs ${n} --json jobs${n}.json FILE jobs${n}.json)
    row(churn_scale_smoke_repeat2_shards ${churn} --smoke --deterministic
      --repeat 2 --seed 1 --shards ${n} --json shards${n}.json
      FILE shards${n}.json)
  endforeach()
  # The full report records the calibration perf series.
  run(${churn} --smoke --jobs 1 --seed 1 --json full.json)
  require_text(full.json
    perf.wall_seconds memory.peak_rss_bytes calibration_speedup)

elseif(GROUP STREQUAL "bench_core_placement_smoke")
  # Every placement strategy by registry name, including the live
  # migration leg (the bench exits 3 unless it is hitless and clean).
  row(core_placement_smoke_repeat2 ${placement} --smoke --repeat 2 --seed 1
    --json repeat2.json FILE repeat2.json)
  row(core_placement_smoke_locality ${placement} --smoke --repeat 2 --seed 1
    --placement locality --json locality.json FILE locality.json)

elseif(GROUP STREQUAL "golden_scale_pdes")
  # A 4096-router grid split into 4 regions prints what one region
  # prints, at least twice as fast on 4 cores.
  foreach(seed 1 2)
    foreach(shards 1 4)
      set(name pdes_shards${shards}_seed${seed})
      row(chaos_soak_r4096_e8_shards_seed${seed}
        ${soak} --routers 4096 --events 8 --seed ${seed} --shards ${shards}
        --json ${name}.json --exec-json BENCH_exec_${name}.json
        FILE ${name}.json)
    endforeach()
  endforeach()
  require_speedup(2
    "BENCH_exec_pdes_shards1_seed1.json;BENCH_exec_pdes_shards1_seed2.json"
    "BENCH_exec_pdes_shards4_seed1.json;BENCH_exec_pdes_shards4_seed2.json")

elseif(GROUP STREQUAL "golden_scale_replicas")
  # Eight replicas on every core run at least three times as fast as
  # serially, and print the same bytes.
  row(chaos_soak_r256_e40_repeat8 ${soak} --routers 256 --events 40
    --repeat 8 --jobs 1 --exec-json BENCH_exec_serial.json)
  row(chaos_soak_r256_e40_repeat8 ${soak} --routers 256 --events 40
    --repeat 8 --jobs 0 --exec-json BENCH_exec.json)
  require_speedup(3 BENCH_exec_serial.json BENCH_exec.json)

elseif(GROUP STREQUAL "golden_scale_placement")
  # The full sweep (256 routers, k in {1,2,4}): partitioned placement
  # beats single-core; live migration stays hitless at more seeds.
  row(core_placement_seed1 ${placement} --seed 1
    --json BENCH_core_placement.json
    --exec-json BENCH_exec_core_placement.json
    FILE BENCH_core_placement.json)
  require_partitioned_variation(BENCH_core_placement.json)
  foreach(seed 2 3 5)
    row(core_placement_smoke_seed${seed}
      ${placement} --smoke --seed ${seed} --exec-json seed${seed}.exec.json)
  endforeach()

elseif(GROUP STREQUAL "golden_scale_checker")
  # Every failure-recovery path a 256-router soak provokes satisfies the
  # causal-path expectation suite.
  foreach(seed 1 2)
    row(chaos_soak_r256_e100_check_seed${seed}
      ${soak} --routers 256 --events 100 --repeat 2 --seed ${seed} --check
      --check-json check_soak_seed${seed}.json
      --json BENCH_chaos_soak_check_seed${seed}.json
      FILE BENCH_chaos_soak_check_seed${seed}.json)
  endforeach()

elseif(GROUP STREQUAL "golden_scale_churn")
  # The 1024-router aggregate-model report (wall-clock, so no digest).
  run(${churn} --routers 1024 --members 20000 --seed 1 --repeat 2
    --json BENCH_churn_scale.json --exec-json BENCH_exec_churn_scale.json)
  require_churn_report(BENCH_churn_scale.json)

elseif(GROUP STREQUAL "bench_differential_failing_legs")
  # Self-test, passed only on its failure message: a leg that exits
  # non-zero fails its row even when its stdout is what it always is.
  row(chaos_soak_smoke_e6
    ${soak} --smoke --events 6 --check --mutate suppress-flush)

elseif(GROUP STREQUAL "golden_digests_mismatch")
  # Self-test, passed only on its failure messages: a wrong and a
  # missing digest both fail and print the digest they got.
  row(chaos_soak_smoke_e6 ${soak} --smoke --events 5)
  row(no_such_class ${soak} --smoke --events 5)

else()
  message(FATAL_ERROR "unknown -DGROUP=${GROUP}")
endif()

get_property(failures GLOBAL PROPERTY failures)
if(failures)
  list(JOIN failures "\n  " lines)
  message(FATAL_ERROR "${GROUP}:\n  ${lines}")
endif()
