# Run a bench binary and compare its stdout with a committed golden.
#
#   cmake -DBIN=<binary> "-DARGS=<space-separated args>" \
#         -DGOLDEN=<golden file> -DACTUAL=<where to write a mismatch> \
#         -P compare.cmake
#
# The bench binaries print virtual-time numbers only, so their output
# is a pure function of (binary, args). On a mismatch the actual
# output is written to ACTUAL; if the change is intended, copy it over
# the golden and regenerate the EXPERIMENTS.md rows from it.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    file(WRITE "${ACTUAL}" "${actual}")
    message(FATAL_ERROR "${BIN} ${ARGS} no longer matches ${GOLDEN}\n"
            "actual output: ${ACTUAL}\n"
            "diff -u ${GOLDEN} ${ACTUAL}")
endif()
