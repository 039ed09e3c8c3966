# Golden digests of every canonical deterministic output (ctest
# golden_digests, label golden).
#
# Runs each canonical experiment command in WORK_DIR, requires exit 0,
# and compares the SHA-256 of its stdout with the entry of the same name
# in tests/golden/digests.json. The digests pin the simulated results
# themselves, so an engine, routing or forwarding rewrite is checked
# against the committed bytes rather than against a second implementation
# kept alive beside it. There is no regenerate switch: a mismatch prints
# the digest it got, and updating the file is a deliberate hand edit.
#
# Invoked as:
#   cmake -DBENCH_DIR=<dir with bench_*> -DSCENARIO_RUNNER=<path>
#         -DSCENARIO_DIR=<examples/scenarios> -DDIGESTS=<digests.json>
#         -DWORK_DIR=<dir> -P golden_digests.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var BENCH_DIR SCENARIO_RUNNER SCENARIO_DIR DIGESTS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()
include(${CMAKE_CURRENT_LIST_DIR}/run_and_capture.cmake)
file(MAKE_DIRECTORY "${WORK_DIR}")
file(READ "${DIGESTS}" committed)
set(failures "")

# Runs one command in WORK_DIR and checks its stdout digest against the
# committed entry `name`.
function(check_golden name)
  run_and_capture(out code ${CMAKE_COMMAND} -E chdir "${WORK_DIR}" ${ARGN})
  string(SHA256 got "${out}")
  string(JSON want ERROR_VARIABLE missing GET "${committed}" "${name}")
  if(NOT code STREQUAL "0")
    list(APPEND failures "${name}: exited ${code}, expected 0")
  elseif(missing OR NOT got STREQUAL want)
    file(WRITE "${WORK_DIR}/${name}.txt" "${out}")
    list(APPEND failures "${name}: sha256 ${got} (want ${want})")
  else()
    message(STATUS "${name}: ${got}")
  endif()
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

set(soak ${BENCH_DIR}/bench_chaos_soak)
check_golden(chaos_soak_events25 ${soak} --events 25)
foreach(seed 1 7 23 51 97)
  check_golden(chaos_soak_r16_seed${seed}
    ${soak} --seed ${seed} --events 40 --routers 16 --csv)
endforeach()
foreach(seed 1 2 3 4 5)
  check_golden(chaos_soak_r256_seed${seed}
    ${soak} --seed ${seed} --events 10 --routers 256 --csv)
endforeach()
check_golden(join_latency_csv ${BENCH_DIR}/bench_join_latency --csv)
check_golden(failure_recovery ${BENCH_DIR}/bench_failure_recovery)
check_golden(churn_scale_smoke
  ${BENCH_DIR}/bench_churn_scale --deterministic --smoke)
check_golden(dataplane_smoke
  ${BENCH_DIR}/bench_dataplane --smoke --deterministic)
# The executor report goes to a file, never to stdout; the empty path
# the canonical command passes cannot survive a CMake list, so name one.
check_golden(core_placement_smoke
  ${BENCH_DIR}/bench_core_placement --smoke --seed 1
  --exec-json core_placement.exec.json)
foreach(scenario core_failover figure1_conference)
  check_golden(scenario_${scenario}
    ${SCENARIO_RUNNER} ${SCENARIO_DIR}/${scenario}.cbt)
endforeach()

if(failures)
  list(JOIN failures "\n  " lines)
  message(FATAL_ERROR "golden digest mismatch:\n  ${lines}")
endif()
