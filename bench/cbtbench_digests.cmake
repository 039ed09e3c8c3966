# Checks the benchmark driver's output digests against the committed ones.
#
#   cmake -DDRIVER=<cbtbench_driver> -DDIGESTS=<cbtbench/digests.json> \
#         -P cbtbench_digests.cmake
#
# Runs each workload on seed 1 and on its --tiny variant; a driver that
# reports ok=false, exits non-zero or prints a digest other than the
# committed one fails the check. Every mismatch is listed before failing.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(READ "${DIGESTS}" committed)
set(failures "")
foreach(workload churn-256 dataplane-256 chaos-256)
  foreach(key 1 tiny-1)
    set(args --workload ${workload} --seed 1)
    if(key STREQUAL "tiny-1")
      list(APPEND args --tiny)
    endif()
    string(JSON want GET "${committed}" ${workload} ${key})
    execute_process(COMMAND "${DRIVER}" ${args}
      OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    # The report is the last line of stdout.
    string(STRIP "${out}" out)
    string(REGEX REPLACE ".*\n" "" report "${out}")
    string(JSON got ERROR_VARIABLE bad GET "${report}" digest)
    string(JSON ok ERROR_VARIABLE bad_ok GET "${report}" ok)
    if(NOT rc EQUAL 0 OR bad OR bad_ok OR NOT ok OR NOT got STREQUAL want)
      list(APPEND failures "${workload} ${key}: digest ${got} (want ${want}), ok=${ok}, exit ${rc}")
    else()
      message(STATUS "${workload} ${key}: ${got}")
    endif()
  endforeach()
endforeach()

if(failures)
  list(JOIN failures "\n  " lines)
  message(FATAL_ERROR "golden digest mismatch:\n  ${lines}")
endif()
