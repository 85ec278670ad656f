# Usage contract of dlsim_cli: a valued option given as the last
# argument, with its value missing, must print a diagnostic and exit
# 2 — not fall back to a default and not run. Invoked by ctest as
#   cmake -DDLSIM_CLI=<binary> -P <this file>

foreach(flag --json-out --requests --warmup --abtb-entries --seed
             --jobs)
    execute_process(
        COMMAND "${DLSIM_CLI}" run memcached --requests 2 --warmup 1
                ${flag}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "dlsim_cli with a missing ${flag} value exited with "
            "${rc}, expected 2")
    endif()
    if(NOT err MATCHES "${flag} requires a value")
        message(FATAL_ERROR
            "dlsim_cli with a missing ${flag} value printed no "
            "diagnostic (stderr: ${err})")
    endif()
endforeach()
