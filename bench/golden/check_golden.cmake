# Runs one bench (at its default arguments, or with the space-separated
# ARGS) and compares its stdout byte for byte with the checked-in golden
# file. Used by the `golden` ctests:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<expected.txt> -DACTUAL=<out.txt> \
#         [-DARGS="--jobs 1"] -P check_golden.cmake
#
# On a mismatch the actual output stays at ACTUAL for inspection.

foreach(var BENCH GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
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
