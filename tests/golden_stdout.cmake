# Golden-stdout check for one program, run as a ctest:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<tests/golden/<name>.txt>
#         [-DARGS=<arg;arg;...>] -P tests/golden_stdout.cmake
#
# Runs `<binary> <ARGS>` (ARGS defaults to `--quick --json /dev/null`,
# the benches' quick mode) and fails unless its stdout equals the
# golden file byte for byte (stderr is ignored: benches print
# warn:/[engine] lines there by design). With TCORAM_REGEN_GOLDEN=1 in
# the environment it rewrites the golden from this run instead.

if(NOT DEFINED ARGS)
    set(ARGS --quick --json /dev/null)
endif()

execute_process(COMMAND ${BENCH} ${ARGS}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE stderr_text
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${stderr_text}")
endif()

if("$ENV{TCORAM_REGEN_GOLDEN}" STREQUAL "1")
    file(WRITE ${GOLDEN} "${actual}")
    message(STATUS "regenerated ${GOLDEN}")
    return()
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME)
    set(actual_path ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
    file(WRITE ${actual_path} "${actual}")
    execute_process(COMMAND diff -u ${GOLDEN} ${actual_path}
                    OUTPUT_VARIABLE delta)
    message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN} "
                        "(actual: ${actual_path}):\n${delta}")
endif()
