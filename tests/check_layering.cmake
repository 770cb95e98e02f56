# Module layering check over src/*/: a module may include headers only from
# its own rank or below, so a lower layer can never start depending on a
# higher one (e.g. benchex on core, which would close a link cycle).
#
#   cmake -DSRC_DIR=<repo>/src -P tests/check_layering.cmake
#
# Exits non-zero and lists every offending include. A new module must be
# added to the rank table before it can pass.

if(NOT SRC_DIR)
  message(FATAL_ERROR "check_layering: pass -DSRC_DIR=<repo>/src")
endif()

# Bottom to top.
set(RANKS routing mem obs sim finance hv trace fabric qos collective
          congestion fault ibmon benchex core cluster runner)

# Upward edges that are allowed, each to one header-only, stdlib-only file:
#  - obs uses sim's time units; sim itself sits on obs (metrics, tracer).
#  - fabric::Channel embeds the VL arbiter; the qos library sits on fabric.
set(EXCEPTIONS
  "obs -> sim/time.hpp"
  "fabric -> qos/arbiter.hpp")

file(GLOB entries RELATIVE ${SRC_DIR} ${SRC_DIR}/*)
set(violations "")
foreach(module IN LISTS entries)
  if(NOT IS_DIRECTORY ${SRC_DIR}/${module})
    continue()
  endif()
  list(FIND RANKS ${module} rank)
  if(rank EQUAL -1)
    list(APPEND violations "src/${module}/ is missing from the rank table")
    continue()
  endif()
  file(GLOB sources ${SRC_DIR}/${module}/*.hpp ${SRC_DIR}/${module}/*.cpp)
  foreach(source IN LISTS sources)
    file(STRINGS ${source} includes REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line IN LISTS includes)
      string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*" "\\1"
             header "${line}")
      if(NOT header MATCHES "^([^/]+)/")
        continue()
      endif()
      set(dep ${CMAKE_MATCH_1})
      list(FIND RANKS ${dep} dep_rank)
      if(dep_rank EQUAL -1 OR dep_rank GREATER rank)
        list(FIND EXCEPTIONS "${module} -> ${header}" allowed)
        if(allowed EQUAL -1)
          file(RELATIVE_PATH where ${SRC_DIR} ${source})
          list(APPEND violations "src/${where} includes \"${header}\"")
        endif()
      endif()
    endforeach()
  endforeach()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  list(JOIN RANKS " < " order)
  message(FATAL_ERROR "layering violations (${order}):\n  ${report}")
endif()
message(STATUS "layering: ok")
