# Bounds that the scale groups of golden_digests.cmake check on the
# reports their rows write (ctest golden_scale_*, label scale, run by
# `ctest -C scale -L scale`). Included by golden_digests.cmake; files are
# relative to its WORK_DIR and failures go through its fail().

# Sets `var` to the plain decimal `text` in nanounits (integer math only).
function(to_nanos var text)
  if(NOT text MATCHES "^([0-9]+)(\\.([0-9]+))?$")
    message(FATAL_ERROR "not a plain decimal: ${text}")
  endif()
  set(fraction "${CMAKE_MATCH_3}000000000")
  string(SUBSTRING "${fraction}" 0 9 fraction)
  # The leading 1 keeps the fraction's zeros from reading as octal.
  math(EXPR nanos "${CMAKE_MATCH_1} * 1000000000 + 1${fraction} - 1000000000")
  set(${var} ${nanos} PARENT_SCOPE)
endfunction()

# Sets `labels_var` and `values_var` (nanounits) to the points of the
# series `name` in the BENCH report `file`.
function(read_series labels_var values_var file name)
  file(READ "${WORK_DIR}/${file}" report)
  string(JSON count LENGTH "${report}" series)
  math(EXPR last "${count} - 1")
  set(labels "")
  set(values "")
  foreach(i RANGE ${last})
    string(JSON series_name GET "${report}" series ${i} name)
    if(NOT series_name STREQUAL name)
      continue()
    endif()
    string(JSON points LENGTH "${report}" series ${i} points)
    math(EXPR last_point "${points} - 1")
    foreach(p RANGE ${last_point})
      string(JSON label GET "${report}" series ${i} points ${p} label)
      string(JSON value GET "${report}" series ${i} points ${p} value)
      to_nanos(value "${value}")
      list(APPEND labels "${label}")
      list(APPEND values ${value})
    endforeach()
  endforeach()
  set(${labels_var} "${labels}" PARENT_SCOPE)
  set(${values_var} "${values}" PARENT_SCOPE)
endfunction()

# Sets `var` to the summed sweep_wall_seconds (ns) of the exec reports.
function(sweep_nanos var)
  set(sum 0)
  foreach(file ${ARGN})
    read_series(labels values ${file} sweep_wall_seconds)
    foreach(value ${values})
      math(EXPR sum "${sum} + ${value}")
    endforeach()
  endforeach()
  set(${var} ${sum} PARENT_SCOPE)
endfunction()

# Fails unless the `serial` exec reports' sweep took at least `bound`
# times as long as the `parallel` ones'. Applies on 4 or more cores
# only: with fewer, a parallel run legitimately shows no speedup.
function(require_speedup bound serial parallel)
  sweep_nanos(t1 ${serial})
  sweep_nanos(tn ${parallel})
  cmake_host_system_information(RESULT cores QUERY NUMBER_OF_LOGICAL_CORES)
  message(STATUS "speedup: ${t1} ns serial vs ${tn} ns parallel "
    "on ${cores} cores (bound ${bound}x)")
  math(EXPR scaled "${bound} * ${tn}")
  if(cores GREATER_EQUAL 4 AND t1 LESS scaled)
    fail("speedup below ${bound}x: ${t1} ns serial vs ${tn} ns parallel "
      "on ${cores} cores")
  endif()
endfunction()

# Fails unless the best partitioned placement (locality/k4, vns/k4 or
# vns/k2) has a lower forest delay variation than the best single core.
function(require_partitioned_variation file)
  read_series(labels values ${file} forest.variation_ms)
  set(single "")
  set(multi "")
  foreach(label value IN ZIP_LISTS labels values)
    if(label MATCHES "/k1$" AND (single STREQUAL "" OR value LESS single))
      set(single ${value})
    endif()
    if(label MATCHES "^(locality/k4|vns/k4|vns/k2)$" AND
        (multi STREQUAL "" OR value LESS multi))
      set(multi ${value})
    endif()
  endforeach()
  message(STATUS "variation: best single core ${single}, "
    "best partitioned ${multi} (ms x 1e9)")
  if(single STREQUAL "" OR multi STREQUAL "" OR NOT multi LESS single)
    fail("${file}: partitioned variation ${multi} not below single-core ${single}")
  endif()
endfunction()

# Fails unless the churn-scale report has its calibration speedup above
# 1 and every series the experiment write-up reads.
function(require_churn_report file)
  file(READ "${WORK_DIR}/${file}" report)
  string(JSON bench GET "${report}" bench)
  string(JSON speedup GET "${report}" params calibration_speedup)
  to_nanos(nanos "${speedup}")
  if(NOT bench STREQUAL "churn_scale" OR NOT nanos GREATER 1000000000)
    fail("${file}: bench ${bench}, calibration_speedup ${speedup}")
  endif()
  string(JSON count LENGTH "${report}" series)
  math(EXPR last "${count} - 1")
  set(names "")
  foreach(i RANGE ${last})
    string(JSON name GET "${report}" series ${i} name)
    list(APPEND names "${name}")
  endforeach()
  foreach(need rows.peak "rows.ctl msgs" "quality.tree ratio" model.sim_nodes
      perf.wall_seconds memory.peak_rss_bytes)
    if(NOT need IN_LIST names)
      fail("${file}: missing series ${need}")
    endif()
  endforeach()
endfunction()
