# Tracing-on vs tracing-off differential (ctest, label bench-smoke).
#
# The obs determinism contract: enabling tracing at any level must leave
# bench stdout byte-identical — tracing is record-only. This script runs
# bench_chaos_soak over two seeds and bench_join_latency with and
# without --trace (every leg must exit 0) and compares stdout
# byte-for-byte. It then checks the exported files: each trace is Chrome
# trace_event JSON whose first event carries the standard keys, and the
# seed-1 soak's BENCH report has the shared schema's top-level keys.
#
# Invoked as:
#   cmake -DCHAOS_SOAK=<path> -DJOIN_LATENCY=<path> -DWORK_DIR=<dir>
#         -P trace_differential.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var CHAOS_SOAK JOIN_LATENCY WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()
include(${CMAKE_CURRENT_LIST_DIR}/run_and_capture.cmake)
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `name` plain and with --trace <name>.trace.json (plus any extra
# traced-leg flags after TRACED); stdout must match byte for byte.
function(check_traced name)
  cmake_parse_arguments(PARSE_ARGV 1 arg "" "" "TRACED")
  run_leg(plain "${name} (plain)" ${arg_UNPARSED_ARGUMENTS})
  run_leg(traced "${name} (traced)" ${arg_UNPARSED_ARGUMENTS}
    --trace ${WORK_DIR}/${name}.trace.json ${arg_TRACED})
  if(NOT plain STREQUAL traced)
    file(WRITE "${WORK_DIR}/${name}.plain.txt" "${plain}")
    file(WRITE "${WORK_DIR}/${name}.traced.txt" "${traced}")
    message(FATAL_ERROR
      "${name}: stdout differs with tracing enabled (dumps in ${WORK_DIR})")
  endif()
  message(STATUS "${name}: traced stdout byte-identical")
endfunction()

# Fails unless the JSON object `json` (read from `file`) has every key
# in ARGN.
function(require_keys file json)
  foreach(key ${ARGN})
    string(JSON type ERROR_VARIABLE missing TYPE "${json}" ${key})
    if(missing)
      message(FATAL_ERROR "${file}: missing \"${key}\"")
    endif()
  endforeach()
endfunction()

# A Chrome trace_event file: a non-empty traceEvents array whose first
# event has the keys chrome://tracing and Perfetto read.
function(check_trace_file name)
  set(file "${WORK_DIR}/${name}.trace.json")
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "${name} --trace wrote no file")
  endif()
  file(READ "${file}" trace)
  string(JSON events ERROR_VARIABLE bad LENGTH "${trace}" traceEvents)
  if(bad OR events EQUAL 0)
    message(FATAL_ERROR "${file}: no traceEvents (${bad})")
  endif()
  string(JSON first GET "${trace}" traceEvents 0)
  require_keys("${file}" "${first}" name cat ph ts pid tid)
  message(STATUS "${name} trace: Chrome trace_event JSON, ${events} events")
endfunction()

foreach(seed 1 2)
  check_traced(chaos_soak_seed${seed}
    ${CHAOS_SOAK} --seed ${seed} --events 6 --routers 9 --csv
    TRACED --json ${WORK_DIR}/chaos_soak_seed${seed}.json)
endforeach()
check_traced(join_latency ${JOIN_LATENCY})

check_trace_file(chaos_soak_seed1)
check_trace_file(join_latency)
set(report_file "${WORK_DIR}/chaos_soak_seed1.json")
file(READ "${report_file}" report)
require_keys("${report_file}" "${report}" bench schema_version params series)
message(STATUS "chaos_soak_seed1 report: shared BENCH schema")
