# --blocks contract of bench/table4_microarch_counters: the --quick
# run with block dispatch off and on must produce byte-identical
# stdout and byte-identical --json-out documents. Invoked by ctest as
#   cmake -DTABLE4=<binary> -DOUT=<dir> -P <this file>

file(MAKE_DIRECTORY "${OUT}")

foreach(blocks 0 1)
    execute_process(
        COMMAND "${TABLE4}" --quick --blocks ${blocks}
                --json-out "${OUT}/blocks${blocks}.json"
        OUTPUT_FILE "${OUT}/blocks${blocks}.txt"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "table4_microarch_counters --quick --blocks ${blocks} "
            "exited with ${rc}")
    endif()
endforeach()

foreach(ext txt json)
    file(READ "${OUT}/blocks0.${ext}" off)
    file(READ "${OUT}/blocks1.${ext}" on)
    if(NOT off STREQUAL on)
        message(FATAL_ERROR
            "table4_microarch_counters ${ext} output differs between "
            "--blocks 0 and --blocks 1")
    endif()
endforeach()
