# Checkpoint-bytes check for one cli_sim run, run as a ctest:
#
#   cmake -DBENCH=<cli_sim> -DCKPT=<snapshot path> -DSHA256=<hex>
#         -DARGS=<arg;arg;...> -P tests/checkpoint_sha256.cmake
#
# Deletes CKPT, runs `<binary> <ARGS> --checkpoint-path <CKPT>` and
# fails unless the run exits 0 and the snapshot it leaves has SHA-256
# SHA256. A snapshot is a pure function of the run's config, so any
# change to the saved run state or the file format shows up here.

file(REMOVE ${CKPT})
execute_process(COMMAND ${BENCH} ${ARGS} --checkpoint-path ${CKPT}
                OUTPUT_QUIET
                ERROR_VARIABLE stderr_text
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${stderr_text}")
endif()
if(NOT EXISTS ${CKPT})
    message(FATAL_ERROR "${BENCH} left no snapshot at ${CKPT}")
endif()
file(SHA256 ${CKPT} actual)
if(NOT actual STREQUAL SHA256)
    message(FATAL_ERROR "snapshot ${CKPT} has SHA-256 ${actual}, "
                        "expected ${SHA256}")
endif()
