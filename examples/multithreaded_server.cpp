/**
 * @file
 * A multithreaded server (memcached-style) on a 4-core machine with
 * the proposed hardware on every core: threads of one process share
 * the address space, lazily resolve the same GOT exactly once, and
 * each core's ABTB warms independently — with coherence
 * invalidations keeping the tables correct when the GOT changes
 * (paper §3.2's coherence clause, §5.5's multithreaded-server
 * discussion).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "os/sched.hh"
#include "sim/multicore.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"

using namespace dlsim;

int
main()
{
    // Build the memcached program through the workload engine,
    // then run its GET handler on four cores concurrently.
    workload::MachineConfig mc;
    mc.enhanced = true;
    workload::Workbench wb(workload::memcachedProfile(), mc);

    sim::MultiCoreParams params;
    params.numCores = 4;
    params.core = workload::makeCoreParams(mc);
    sim::MultiCoreSystem system(params, wb.image(), wb.linker(),
                                wb.loader().stackTop());

    // Threads run on os::Kernel, the one scheduler: each round
    // spawns one thread per core, each making one GET call.
    os::Kernel kernel(os::KernelParams{}, system, wb.image(),
                      wb.linker());
    const auto handler = wb.handlerAddress(0); // GET

    std::printf("4 threads serving memcached GETs, ABTB on every "
                "core\n\n");
    std::printf("%-8s %-14s %-14s %-10s\n", "round",
                "round cycles", "skipped", "coh.flushes");
    for (int round = 0; round < 6; ++round) {
        const auto start = kernel.now();
        for (std::uint64_t t = 0; t < 4; ++t) {
            kernel.spawn(std::make_unique<os::CallThread>(
                             std::vector<os::SimCall>{
                                 {handler, 1, 11 * (t + 1), t}}),
                         "get" + std::to_string(t));
        }
        kernel.run();

        std::uint64_t skipped = 0;
        for (std::uint32_t c = 0; c < system.numCores(); ++c)
            skipped +=
                system.core(c).counters().skippedTrampolines;
        std::printf("%-8d %-14llu %-14llu %-10llu\n", round,
                    (unsigned long long)(kernel.now() - start),
                    (unsigned long long)skipped,
                    (unsigned long long)
                        system.totalCoherenceFlushes());
    }

    std::printf("\nshared state after the run:\n");
    std::printf("  lazy resolutions (process-wide): %llu\n",
                (unsigned long long)
                    wb.linker().resolutionCount());
    for (std::uint32_t c = 0; c < system.numCores(); ++c) {
        const auto &unit = *system.core(c).skipUnit();
        std::printf("  core %u: ABTB occupancy %llu, "
                    "populations %llu\n",
                    c,
                    (unsigned long long)unit.abtb().occupancy(),
                    (unsigned long long)
                        unit.stats().populations);
    }
    std::printf("\nNote: each core pays its own ABTB warm-up "
                "(tables are per-core), but the GOT is resolved "
                "once for the whole process.\n");
    return 0;
}
