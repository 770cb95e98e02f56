# Runs one bench with the space-separated ARGS and checks that it refuses
# them the way a CLI error must: exit code 2, with EXPECT (a literal string)
# on stderr. Used by the `cli.*` ctests:
#
#   cmake -DBENCH=<binary> -DARGS="--faults drop=0.01" -DEXPECT=--faults \
#         -P check_cli_error.cmake

foreach(var BENCH ARGS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_cli_error.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit ${rc}, want 2\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BENCH} ${ARGS}: stderr does not name ${EXPECT}:\n"
                      "${err}")
endif()
