# Fails when a source file under SRC_DIR declares a thread_local other
# than the three allowed ones:
#   t_resources        - a pool worker's registered run resources;
#   t_default_threads  - the engine-thread default for callers that reach
#                        the span drivers without a RunContext;
#   current_           - FrameArena's active-arena pointer.
# Anything else a run needs travels explicitly (RunContext).
#
#   cmake -DSRC_DIR=src -P tests/thread_locals_check.cmake
set(allowed "t_resources|t_default_threads|current_")
file(GLOB_RECURSE sources "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cpp")
set(offenders "")
foreach(source IN LISTS sources)
  file(READ "${source}" text)
  # ';' separates CMake list elements: drop it before splitting lines.
  string(REPLACE ";" " " text "${text}")
  string(REGEX MATCHALL "[^\n]*thread_local[^\n]*" lines "${text}")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "thread_local[^=]*[ *&](${allowed}) *(=|$)")
      string(APPEND offenders "  ${source}: ${line}\n")
    endif()
  endforeach()
endforeach()
if(offenders)
  message(FATAL_ERROR
          "thread_local outside the allowlist (${allowed}):\n${offenders}")
endif()
