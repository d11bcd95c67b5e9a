# Must-fail smoke test of a bench harness's positional count, registered
# with ctest by bench/CMakeLists.txt:
#   cmake -DHARNESS=<binary> -DWHAT=<cycles|samples> -P malformed_count_smoke.cmake
# A malformed count ("12x") must exit non-zero with a fatal() that names
# the argument, never run a 12-cycle sweep and exit 0.

execute_process(COMMAND "${HARNESS}" 12x
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "${HARNESS} accepted the count '12x'")
endif()
if(NOT err MATCHES "fatal: bench_[a-z]+: ${WHAT}: .*'12x'")
    message(FATAL_ERROR "diagnostic does not name the argument: ${err}")
endif()
