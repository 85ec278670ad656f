# The paper records (BENCH_table4.json, BENCH_fig5.json) are the
# --json-out documents of table4_microarch_counters and
# fig5_abtb_sweep. Run both at --quick and require each document to
# be valid dlsim-metrics-v1 JSON that holds every run and metric the
# records are read for. Invoked by ctest as
#   cmake -DTABLE4=<binary> -DFIG5=<binary> -DOUT=<dir> -P <this file>

cmake_minimum_required(VERSION 3.19) # string(JSON)

file(MAKE_DIRECTORY "${OUT}")

# Run `binary --quick --json-out OUT/name.json`, then require the
# document to parse, carry the schema tag, name every run in `runs`
# and mention every metric or context key in `keys`.
function(check_record name binary runs keys)
    set(path "${OUT}/${name}.json")
    file(REMOVE "${path}")
    execute_process(
        COMMAND "${binary}" --quick --json-out "${path}"
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} --quick exited with ${rc}: ${err}")
    endif()
    if(NOT EXISTS "${path}")
        message(FATAL_ERROR "${name} --quick wrote no ${path}")
    endif()
    file(READ "${path}" text)
    string(JSON schema ERROR_VARIABLE json_err GET "${text}" schema)
    if(json_err)
        message(FATAL_ERROR "${path} is not valid JSON: ${json_err}")
    endif()
    if(NOT schema STREQUAL "dlsim-metrics-v1")
        message(FATAL_ERROR "${path} has schema '${schema}'")
    endif()
    string(JSON count LENGTH "${text}" runs)
    set(names "")
    if(count GREATER 0)
        math(EXPR last "${count} - 1")
        foreach(i RANGE ${last})
            string(JSON run_name GET "${text}" runs ${i} name)
            list(APPEND names "${run_name}")
        endforeach()
    endif()
    foreach(run IN LISTS runs)
        if(NOT run IN_LIST names)
            message(FATAL_ERROR "${path} has no run '${run}'")
        endif()
    endforeach()
    foreach(key IN LISTS keys)
        string(FIND "${text}" "\"${key}\"" at)
        if(at EQUAL -1)
            message(FATAL_ERROR "${path} is missing key '${key}'")
        endif()
    endforeach()
    message(STATUS "${name}: ${count} runs ok")
endfunction()

# Table 4: base, enhanced and the two software-baseline arms of every
# workload; per-structure counters, the skip-unit metrics of the
# enhanced arms and the signature metric of each baseline.
set(table4_runs "")
foreach(w apache firefox memcached mysql)
    foreach(arm base enhanced stable demand)
        list(APPEND table4_runs "${w}.${arm}")
    endforeach()
endforeach()
set(table4_keys
    dlsim.cpu.l1i.misses dlsim.cpu.l1i.hits dlsim.cpu.l1i.evictions
    dlsim.cpu.l1d.misses dlsim.cpu.itlb.misses dlsim.cpu.dtlb.misses
    dlsim.cpu.btb.misses dlsim.cpu.direction.mispredicts
    dlsim.core.abtb.evictions dlsim.cpu.trampoline_skip_rate
    dlsim.core.skip.substitutions
    dlsim.linker.stable.map_size dlsim.mem.demand_faults.total)
check_record(table4 "${TABLE4}" "${table4_runs}" "${table4_keys}")

# Figure 5: every ABTB size of the three swept workloads, with the
# skip rate and the ABTB's hit, miss and eviction counters.
set(fig5_runs "")
foreach(w apache firefox memcached)
    foreach(n 1 2 4 8 16 32 64 128 256 512 1024)
        list(APPEND fig5_runs "${w}.entries${n}")
    endforeach()
endforeach()
set(fig5_keys
    dlsim.cpu.trampoline_skip_rate dlsim.core.abtb.hits
    dlsim.core.abtb.misses dlsim.core.abtb.evictions abtb_entries)
check_record(fig5 "${FIG5}" "${fig5_runs}" "${fig5_keys}")
