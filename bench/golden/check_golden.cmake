# Runs one bench (at its default arguments, or with the space-separated
# ARGS) and compares its stdout byte for byte with the checked-in golden
# file. Used by the `golden` ctests:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<expected.txt> -DACTUAL=<out.txt> \
#         [-DARGS="--jobs 1"] [-DOUT_DIR=<dir>] [-DJSON_FILES="a.json;b.json"] \
#         -P check_golden.cmake
#
# OUT_DIR, when given, is emptied before the run (so no file left by an
# earlier run can pass the checks below) and removed after a passing one
# (per-trial traces run to tens of MB each). Every file in JSON_FILES must
# then exist, be non-empty and parse as JSON.
#
# On a mismatch the actual output stays at ACTUAL for inspection.

foreach(var BENCH GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
if(DEFINED OUT_DIR)
  file(REMOVE_RECURSE "${OUT_DIR}")
  file(MAKE_DIRECTORY "${OUT_DIR}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args} OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed: ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}"
                        "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN} "
                      "(actual output kept at ${ACTUAL})")
endif()

foreach(json IN LISTS JSON_FILES)
  if(NOT EXISTS "${json}")
    message(FATAL_ERROR "${BENCH} wrote no ${json}")
  endif()
  file(SIZE "${json}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "${BENCH} wrote an empty ${json}")
  endif()
  file(READ "${json}" content)
  string(JSON type ERROR_VARIABLE err TYPE "${content}")
  if(err)
    message(FATAL_ERROR "${json} is not valid JSON: ${err}")
  endif()
endforeach()

if(DEFINED OUT_DIR)
  file(REMOVE_RECURSE "${OUT_DIR}")
endif()
