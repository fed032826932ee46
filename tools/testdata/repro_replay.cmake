# Runs each '|'-separated txrace_run argument list in COMMANDS, then
# the first `reproduce:` line it prints; both must print one digest.
string(REPLACE "|" ";" commands "${COMMANDS}")
foreach(command IN LISTS commands)
    set(line "${command}")
    foreach(pass printed replayed)
        separate_arguments(args UNIX_COMMAND "${line}")
        execute_process(COMMAND ${TXRACE_RUN} ${args} --no-overhead
                        OUTPUT_VARIABLE out)
        if(NOT out MATCHES "reproduce: txrace_run ([^\n]*)  # config (0x[0-9a-f]+)")
            message(FATAL_ERROR "no repro line from txrace_run ${line}")
        endif()
        set(${pass} "${CMAKE_MATCH_2}")
        set(line "${CMAKE_MATCH_1}")
    endforeach()
    if(NOT printed STREQUAL replayed)
        message(FATAL_ERROR "txrace_run ${command} printed config "
                "${printed}; its line 'txrace_run ${line}' replays "
                "config ${replayed}")
    endif()
endforeach()
