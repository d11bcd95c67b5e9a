# Smoke test of the trace_dump example, registered with ctest by
# examples/CMakeLists.txt:
#   cmake -DTRACE_DUMP=<binary> -DOUT=<file.csv> -DMODE=csv -P trace_dump_smoke.cmake
# MODE=csv:       a 2000-cycle gzip dump exits 0 and writes the header
#                 plus one "cycle,amps,volts,gated,phantom" row per cycle.
# MODE=malformed: a malformed cycle count ("12x") exits non-zero with a
#                 fatal() that names the argument.

if(MODE STREQUAL "csv")
    file(REMOVE "${OUT}")
    execute_process(COMMAND "${TRACE_DUMP}" gzip 2000 "${OUT}"
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "trace_dump exited ${rc}")
    endif()
    if(NOT out MATCHES "wrote 2000 samples of 'gzip'")
        message(FATAL_ERROR "unexpected summary: ${out}")
    endif()
    file(STRINGS "${OUT}" lines)
    list(LENGTH lines n)
    if(NOT n EQUAL 2001)
        message(FATAL_ERROR "expected header + 2000 rows, got ${n} lines")
    endif()
    list(GET lines 0 header)
    if(NOT header STREQUAL "cycle,amps,volts,gated,phantom")
        message(FATAL_ERROR "bad header '${header}'")
    endif()
    list(GET lines 1 first)
    list(GET lines 2000 last)
    set(row "^[0-9]+,[0-9]+\\.[0-9][0-9][0-9][0-9],[0-9]+\\.[0-9][0-9][0-9][0-9][0-9][0-9],[01],[01]$")
    if(NOT first MATCHES "${row}" OR NOT last MATCHES "${row}")
        message(FATAL_ERROR "bad row format: '${first}' .. '${last}'")
    endif()
    if(NOT first MATCHES "^0," OR NOT last MATCHES "^1999,")
        message(FATAL_ERROR "rows must run cycle 0..1999: '${first}' .. '${last}'")
    endif()
elseif(MODE STREQUAL "malformed")
    execute_process(COMMAND "${TRACE_DUMP}" gzip 12x "${OUT}"
                    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
    if(rc EQUAL 0)
        message(FATAL_ERROR "trace_dump accepted the cycle count '12x'")
    endif()
    if(NOT err MATCHES "fatal: trace_dump: cycles: .*'12x'")
        message(FATAL_ERROR "diagnostic does not name the argument: ${err}")
    endif()
else()
    message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
