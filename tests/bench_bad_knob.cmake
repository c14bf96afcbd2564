# Runs one bench binary with MC_EPOCHS=abc and passes only when it
# exits with status 2 and names MC_EPOCHS on stderr. A bench that
# read the knob as 0 (a table of NaNs, status 0) or aborted fails.
#
#   cmake -DBENCH=<binary> -P bench_bad_knob.cmake
set(ENV{MC_EPOCHS} abc)

execute_process(COMMAND "${BENCH}"
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                RESULT_VARIABLE status)
if(NOT status STREQUAL "2" OR NOT stderr MATCHES "MC_EPOCHS")
    message(FATAL_ERROR "${BENCH} with MC_EPOCHS=abc: status "
                        "'${status}', stderr '${stderr}'; expected "
                        "status 2 and a message naming MC_EPOCHS")
endif()
