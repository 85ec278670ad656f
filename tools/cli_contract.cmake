# Usage contract of every dlsim binary, enforced by the one flag
# table (src/stats/flags.hh): a missing value, a repeated flag, a
# malformed number, a value below the flag's bound, an unknown flag
# and values that break a constraint between flags (skip-unit
# geometry, an empty seed range) each print a diagnostic naming the
# flag and exit 2 before any simulation starts — never a silent
# default, a wrapped-around count or an assertion. --help exits 0.
# Invoked by ctest as
#   cmake -DDLSIM_CLI=<binary> -DDLSIM_FUZZ=<binary> ... -P <this file>

# Run one command line and require exit `code` with output matching
# `pattern`. The per-process timeout turns a hang into a failure.
function(expect code pattern)
    execute_process(
        COMMAND ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc
        TIMEOUT 60)
    if(NOT rc STREQUAL "${code}")
        message(FATAL_ERROR
            "'${ARGN}' exited with ${rc}, expected ${code} "
            "(stderr: ${err})")
    endif()
    if(NOT "${out}${err}" MATCHES "${pattern}")
        message(FATAL_ERROR
            "'${ARGN}' printed nothing matching '${pattern}' "
            "(stderr: ${err})")
    endif()
endfunction()

# A flag rejected with exit 2 by a diagnostic that names it.
function(reject flag)
    expect(2 "${flag}" ${ARGN})
endfunction()

# dlsim_cli: a valued option given last, with its value missing.
foreach(flag --json-out --requests --warmup --abtb-entries --seed
             --jobs)
    expect(2 "${flag} requires a value"
        "${DLSIM_CLI}" run memcached --requests 2 --warmup 1 ${flag})
endforeach()
set(run "${DLSIM_CLI}" run memcached --requests 2 --warmup 1)
reject(--requests "${DLSIM_CLI}" run memcached --requests 2
    --requests 3)
reject(--requests "${DLSIM_CLI}" run apache --requests abc)
reject(--requests "${DLSIM_CLI}" run apache --requests 0)
reject(--warmup "${DLSIM_CLI}" run memcached --warmup -3)
reject(--abtb-entries ${run} --enhanced --abtb-entries 0)
# 12 entries in 4-way sets make 3 sets: not a power of two.
reject(--abtb-entries ${run} --enhanced --abtb-entries 12)
reject(--jobs "${DLSIM_CLI}" sweep trace.bin --jobs 0)
reject(--bogus ${run} --bogus)
reject(--eager ${run} --eager)
expect(0 "usage: dlsim_cli" "${DLSIM_CLI}" --help)

# dlsim_fuzz: FuzzCase flags and mode flags share one table.
reject(--requests "${DLSIM_FUZZ}" --requests)
reject(--requests "${DLSIM_FUZZ}" --requests 2 --requests 3)
reject(--requests "${DLSIM_FUZZ}" --requests abc)
reject(--cores "${DLSIM_FUZZ}" --cores 0)
reject(--seeds "${DLSIM_FUZZ}" --seeds 1:x)
reject(--seeds "${DLSIM_FUZZ}" --seeds 5:3)
# Skip-unit geometry the ABTB or the bloom filter cannot build,
# including 8 entries in 3-way sets (which would silently hold 6).
reject(--abtb-assoc "${DLSIM_FUZZ}" --abtb-entries 8 --abtb-assoc 16)
reject(--abtb-entries "${DLSIM_FUZZ}" --abtb-entries 8 --abtb-assoc 3)
reject(--bloom-bits "${DLSIM_FUZZ}" --bloom-bits 100)
reject(--bloom-hashes "${DLSIM_FUZZ}" --bloom-hashes 0)
reject(--blocks "${DLSIM_FUZZ}" --blocks 2)
reject(--bogus "${DLSIM_FUZZ}" --bogus)
reject(--eager-binding "${DLSIM_FUZZ}" --eager-binding)
expect(0 "usage: dlsim_fuzz" "${DLSIM_FUZZ}" --help)

# bench_guard.
reject(--fresh "${BENCH_GUARD}" --committed a.json --fresh)
reject(--tolerance "${BENCH_GUARD}" --tolerance 0.1 --tolerance 0.2)
reject(--tolerance "${BENCH_GUARD}" --committed a.json --fresh b.json
    --tolerance abc)
reject(--bogus "${BENCH_GUARD}" --bogus)
expect(0 "usage: bench_guard" "${BENCH_GUARD}" --help)

# A bench on the shared BenchArgs flags.
reject(--json-out "${BENCH}" --quick --json-out)
reject(--jobs "${BENCH}" --jobs 1 --jobs 2)
reject(--seed "${BENCH}" --quick --seed abc)
reject(--jobs "${BENCH}" --jobs 0)
reject(--blocks "${BENCH}" --blocks 2)
reject(--sample=1:2:3 "${BENCH}" --sample=1:2:3)
reject(--bogus "${BENCH}" --bogus)
expect(0 "--bind-policy" "${BENCH}" --help)

# server_traffic: its own flags are ordinary table entries.
reject(--tenants "${SERVER_TRAFFIC}" --quick --tenants)
reject(--shards "${SERVER_TRAFFIC}" --shards 1 --shards 2)
reject(--tenants "${SERVER_TRAFFIC}" --tenants abc)
reject(--tenants "${SERVER_TRAFFIC}" --tenants 0)
reject(--shards "${SERVER_TRAFFIC}" --shards 0)
reject(--bogus "${SERVER_TRAFFIC}" --bogus)
expect(0 "--shards N" "${SERVER_TRAFFIC}" --help)
