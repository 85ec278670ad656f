# Snapshot round trip of bench/server_traffic at --quick: the run
# that writes its warm checkpoint (--snapshot-after) and the run
# restored from that file (--from-snapshot, which verifies every
# section CRC before any arm starts) must print byte-identical stdout
# and byte-identical --json-out documents. Invoked by ctest as
#   cmake -DSERVER_TRAFFIC=<binary> -DOUT=<dir> -P <this file>

file(MAKE_DIRECTORY "${OUT}")
set(snap "${OUT}/warm.snap")
file(REMOVE "${snap}")

foreach(step "save;--snapshot-after" "restore;--from-snapshot")
    list(POP_FRONT step tag)
    execute_process(
        COMMAND "${SERVER_TRAFFIC}" --quick --jobs 2 ${step} "${snap}"
                --json-out "${OUT}/${tag}.json"
        OUTPUT_FILE "${OUT}/${tag}.txt"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "server_traffic --quick ${step} exited with ${rc}")
    endif()
endforeach()

foreach(ext txt json)
    file(READ "${OUT}/save.${ext}" saved)
    file(READ "${OUT}/restore.${ext}" restored)
    if(NOT restored STREQUAL saved)
        message(FATAL_ERROR
            "server_traffic ${ext} output differs between the run "
            "that wrote the checkpoint and the run restored from it")
    endif()
endforeach()
