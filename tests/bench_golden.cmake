# Runs one bench binary at a pinned small scale and compares its
# stdout with a committed fixture. With MC_UPDATE_GOLDEN set in the
# environment it rewrites the fixture instead, like the golden stats
# fixtures of golden_test.cc.
#
#   cmake -DBENCH=<binary> -DFIXTURE=<fixture> -DACTUAL=<scratch file>
#         -P bench_golden.cmake
#
# The scale is pinned here, not inherited, so a developer's exported
# MC_* knobs cannot change the bytes compared.
set(ENV{MC_EPOCHS} 2)
set(ENV{MC_REFS} 2000)
set(ENV{MC_JOBS} 1)
unset(ENV{MC_SEED})
unset(ENV{MC_PAPER_SCALE})

execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()

if(DEFINED ENV{MC_UPDATE_GOLDEN})
    file(WRITE "${FIXTURE}" "${actual}")
    return()
endif()

if(NOT EXISTS "${FIXTURE}")
    message(FATAL_ERROR "missing fixture ${FIXTURE} "
                        "(regenerate with MC_UPDATE_GOLDEN=1)")
endif()
file(READ "${FIXTURE}" expected)
if(NOT actual STREQUAL expected)
    file(WRITE "${ACTUAL}" "${actual}")
    message(FATAL_ERROR
            "stdout diverged from its fixture: diff -u ${FIXTURE} "
            "${ACTUAL} (regenerate with MC_UPDATE_GOLDEN=1)")
endif()
