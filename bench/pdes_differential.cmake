# Space-parallel PDES differential (ctest, label bench-smoke).
#
# The shard determinism contract (docs/PROTOCOL.md, "Space-parallel PDES
# & lookahead contract"): `--shards N` must leave bench stdout AND the
# bench's own BENCH_*.json byte-identical to `--shards 1` for every N —
# region count and worker-thread count are not allowed to change a
# single byte of simulation output. Wall-clock lives only in
# BENCH_exec.json, which this script ignores. Runs bench_chaos_soak
# (smoke workload) and bench_join_latency at --shards 1 vs --shards 4
# over five seeds, requires the causal-path checker to come back clean
# under shards, and pins the CLI contract (--shards with --jobs > 1 is
# rejected with exit 2).
#
# Invoked as:
#   cmake -DCHAOS_SOAK=<path> -DJOIN_LATENCY=<path> -DWORK_DIR=<dir>
#         -P pdes_differential.cmake

foreach(var CHAOS_SOAK JOIN_LATENCY WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

include(${CMAKE_CURRENT_LIST_DIR}/run_and_capture.cmake)

# Compares one bench invocation at --shards 1 vs --shards 4: both must
# exit 0, and stdout and the BENCH json must be byte-identical.
function(check_differential name binary)
  set(json1 "${WORK_DIR}/${name}.shards1.json")
  set(json4 "${WORK_DIR}/${name}.shards4.json")
  run_leg(out1 "${name} --shards 1"
    ${binary} ${ARGN} --shards 1 --json ${json1}
    --exec-json ${WORK_DIR}/${name}.shards1.exec.json)
  run_leg(out4 "${name} --shards 4"
    ${binary} ${ARGN} --shards 4 --json ${json4}
    --exec-json ${WORK_DIR}/${name}.shards4.exec.json)
  if(NOT out1 STREQUAL out4)
    file(WRITE "${WORK_DIR}/${name}.shards1.txt" "${out1}")
    file(WRITE "${WORK_DIR}/${name}.shards4.txt" "${out4}")
    message(FATAL_ERROR
      "${name}: stdout differs between --shards 1 and --shards 4 "
      "(dumps in ${WORK_DIR})")
  endif()
  file(READ "${json1}" bench_json1)
  file(READ "${json4}" bench_json4)
  if(NOT bench_json1 STREQUAL bench_json4)
    message(FATAL_ERROR
      "${name}: BENCH json differs between --shards 1 and --shards 4 "
      "(${json1} vs ${json4})")
  endif()
  message(STATUS "${name}: --shards 4 byte-identical to --shards 1")
endfunction()

foreach(seed 1 2 3 4 5)
  check_differential(chaos_soak_seed${seed} ${CHAOS_SOAK}
    --smoke --events 6 --seed ${seed})
  check_differential(join_latency_seed${seed} ${JOIN_LATENCY}
    --seed ${seed})
endforeach()

# The causal-path expectation checker must come back clean over a
# sharded soak: the merged trace ring has to be causally coherent, not
# just byte-stable.
run_leg(check_out "chaos_soak --shards 4 --check (checker-clean trace)"
  ${CHAOS_SOAK} --smoke --events 6 --shards 4 --check
  --check-json ${WORK_DIR}/check_sharded.json
  --exec-json ${WORK_DIR}/check_sharded.exec.json)
message(STATUS "chaos_soak --shards 4 --check: clean (exit 0)")

# CLI contract: a sharded simulation already fans out across the cores,
# so composing it with replica parallelism is rejected up front with the
# bench::Options usage exit code.
run_and_capture(combo_out combo_code
  ${CHAOS_SOAK} --smoke --shards 2 --jobs 2)
if(NOT combo_code STREQUAL "2")
  message(FATAL_ERROR
    "chaos_soak --shards 2 --jobs 2 exited ${combo_code} (expected 2)")
endif()
message(STATUS "--shards 2 --jobs 2 rejected with exit 2")
