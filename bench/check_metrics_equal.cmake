# Runs one bench twice with the space-separated ARGS, once plain and once
# with --trace, each writing --metrics-json into OUT_DIR, and requires the
# two stdouts and the two metrics files to be byte-identical. A traced run
# keeps every per-packet event while a plain one runs lossless stars as
# packet trains that settle at each periodic snapshot (DESIGN.md §5), so
# this pins the trains to packet mode at every snapshot. Used by the
# `metrics_equal` ctests:
#
#   cmake -DBENCH=<binary> -DARGS="--jobs 1 --metrics-period 50" \
#         -DOUT_DIR=<dir> -P check_metrics_equal.cmake
#
# OUT_DIR is emptied before the runs and removed after a passing check; on
# a mismatch it keeps both runs' files for inspection.

foreach(var BENCH ARGS OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_metrics_equal.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(run plain traced)
  set(extra --metrics-json "${OUT_DIR}/m.${run}.json")
  if(run STREQUAL "traced")
    list(APPEND extra --trace "${OUT_DIR}/t.json")
  endif()
  execute_process(COMMAND "${BENCH}" ${args} ${extra}
                  OUTPUT_FILE "${OUT_DIR}/stdout.${run}.txt"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} (${run}) failed: ${rc}")
  endif()
endforeach()

foreach(file stdout.@.txt m.@.json)
  string(REPLACE "@" "plain" a "${file}")
  string(REPLACE "@" "traced" b "${file}")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT_DIR}/${a}" "${OUT_DIR}/${b}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${BENCH} ${ARGS}: ${a} and ${b} differ "
                        "(both kept in ${OUT_DIR})")
  endif()
endforeach()
file(REMOVE_RECURSE "${OUT_DIR}")
