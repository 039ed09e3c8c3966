# Serial vs parallel differential (ctest, label bench-smoke).
#
# The executor determinism contract (docs/PROTOCOL.md, "Parallel
# execution & determinism"): `--jobs N` must leave bench stdout AND the
# bench's own BENCH_*.json byte-identical to `--jobs 1` — wall-clock
# lives only in BENCH_exec.json, which this script ignores. Runs
# bench_chaos_soak (256 routers, 3 repetitions so the pool really fans
# out) and bench_join_latency, each at seeds 1 and 2, at --jobs 1 vs
# --jobs 4 and compares byte-for-byte.
#
# Invoked as:
#   cmake -DCHAOS_SOAK=<path> -DJOIN_LATENCY=<path> -DWORK_DIR=<dir>
#         -P exec_differential.cmake

foreach(var CHAOS_SOAK JOIN_LATENCY WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

include(${CMAKE_CURRENT_LIST_DIR}/run_and_capture.cmake)

# Compares one bench invocation at --jobs 1 vs --jobs 4: both must exit
# 0, and stdout and the BENCH json must be byte-identical.
function(check_differential name binary)
  set(json1 "${WORK_DIR}/${name}.jobs1.json")
  set(json4 "${WORK_DIR}/${name}.jobs4.json")
  run_leg(out1 "${name} --jobs 1"
    ${binary} ${ARGN} --jobs 1 --json ${json1}
    --exec-json ${WORK_DIR}/${name}.jobs1.exec.json)
  run_leg(out4 "${name} --jobs 4"
    ${binary} ${ARGN} --jobs 4 --json ${json4}
    --exec-json ${WORK_DIR}/${name}.jobs4.exec.json)
  if(NOT out1 STREQUAL out4)
    file(WRITE "${WORK_DIR}/${name}.jobs1.txt" "${out1}")
    file(WRITE "${WORK_DIR}/${name}.jobs4.txt" "${out4}")
    message(FATAL_ERROR
      "${name}: stdout differs between --jobs 1 and --jobs 4 "
      "(dumps in ${WORK_DIR})")
  endif()
  file(READ "${json1}" bench_json1)
  file(READ "${json4}" bench_json4)
  if(NOT bench_json1 STREQUAL bench_json4)
    message(FATAL_ERROR
      "${name}: BENCH json differs between --jobs 1 and --jobs 4 "
      "(${json1} vs ${json4})")
  endif()
  message(STATUS "${name}: --jobs 4 byte-identical to --jobs 1")
endfunction()

foreach(seed 1 2)
  check_differential(chaos_soak_seed${seed} ${CHAOS_SOAK}
    --routers 256 --events 25 --repeat 3 --seed ${seed})
  check_differential(join_latency_seed${seed} ${JOIN_LATENCY} --seed ${seed})
endforeach()

# BENCH_exec.json sanity: the parallel run recorded per-replica timing.
file(READ "${WORK_DIR}/chaos_soak_seed1.jobs4.exec.json" exec_json)
if(NOT exec_json MATCHES "replica_wall_seconds")
  message(FATAL_ERROR
    "chaos_soak --jobs 4 wrote no per-replica timing to BENCH_exec.json")
endif()
message(STATUS "BENCH_exec.json records per-replica wall clock")
