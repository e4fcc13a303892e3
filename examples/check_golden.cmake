# Runs one example program and compares its stdout and exit code with the
# recorded golden output. Registered as a ctest case per example by the
# top-level CMakeLists.txt; by hand:
#
#   cmake -DEXE=build/examples/quickstart \
#         -DEXPECTED=examples/expected/quickstart.txt -DEXIT_CODE=2 \
#         -P examples/check_golden.cmake
#
# A mismatch prints the actual output; to re-record a golden after an
# intended output change, redirect the example's stdout into its file.

execute_process(COMMAND ${EXE}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE code)
file(READ ${EXPECTED} expected)
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "${EXE} exited with ${code}, expected ${EXIT_CODE}")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "${EXE} stdout differs from ${EXPECTED}; actual output:\n${actual}")
endif()
