# Command runners shared by the ctest scripts that compare bench stdout
# (the exec, pdes and trace differentials and the golden digests):
#
#   include(${CMAKE_CURRENT_LIST_DIR}/run_and_capture.cmake)
#
# run_and_capture(<out_var> <exit_var> <command> [args...])
#   Runs the command and returns its stdout and exit code. stderr is
#   discarded: json/trace/exec-report status lines go there, so stdout
#   stays byte-comparable.
#
# run_leg(<out_var> <name> <command> [args...])
#   run_and_capture for a leg whose output is compared or pinned: any
#   exit code but 0 is fatal. Two legs that fail alike print alike, so
#   equal exit codes alone prove nothing (bench_chaos_soak writes its
#   report and then exits 1 on a dirty audit or a checker violation).

function(run_and_capture out_var exit_var)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE code)
  set(${out_var} "${stdout}" PARENT_SCOPE)
  set(${exit_var} "${code}" PARENT_SCOPE)
endfunction()

function(run_leg out_var name)
  run_and_capture(stdout code ${ARGN})
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR "${name}: leg exited ${code}, expected 0")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()
