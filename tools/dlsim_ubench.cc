/**
 * @file
 * dlsim_ubench: simulator-throughput micro-benchmark.
 *
 * Reports host-side retired-instructions/second for three
 * execution modes:
 *
 *   detailed          cpu::Core, per-instruction dispatch
 *   detailed+blocks   cpu::Core, basic-block dispatch
 *   refcore           check::RefCore functional fast-forward
 *                     (block-chained)
 *
 * The refcore row runs through sim::Sampler with a
 * degenerate 0:1:1000000000 sample spec — one detailed instruction
 * per billion fast-forwarded — so they exercise the exact
 * fast-forward machinery fig5 --sample rows use (including
 * functional resolver servicing), with detailed execution
 * contributing a negligible fraction.
 *
 * This is a tool for eyeballing dispatch-engine speedups on the
 * local host. It measures wall-clock, so it is deliberately NOT a
 * ctest (timing on shared CI hosts is noise); the reproducible
 * speedup record lives in BENCH_wallclock.json (bench_wallclock).
 *
 * Usage: dlsim_ubench --help
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/sampled.hh"
#include "stats/flags.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"

using namespace dlsim;

namespace
{

struct Options
{
    std::string profile = "apache";
    int warmup = 60;
    int requests = 300;
    std::uint64_t seed = 42;
};

struct ModeResult
{
    std::uint64_t instructions = 0;
    double seconds = 0.0;

    double
    mips() const
    {
        return seconds > 0.0
                   ? static_cast<double>(instructions) / seconds /
                         1e6
                   : 0.0;
    }
};

/**
 * Time one engine: warm up (untimed, resolves lazy imports and
 * fills simulator-side caches), then run the measured request loop.
 */
ModeResult
runMode(const Options &opt, bool blocks, bool refcore)
{
    workload::MachineConfig mc;
    mc.enhanced = true;
    mc.core.blockDispatch = blocks;

    workload::Workbench wb(
        workload::profileByName(opt.profile, opt.seed), mc);
    if (refcore) {
        sim::SampleParams sp;
        sp.enabled = true;
        sp.warmup = 0;
        sp.detail = 1;
        sp.fastforward = 1000000000ull;
        wb.setSampling(sp);
    }
    wb.warmup(static_cast<std::uint32_t>(opt.warmup));

    ModeResult r;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < opt.requests; ++i)
        r.instructions += wb.runRequest().instructions;
    const auto t1 = std::chrono::steady_clock::now();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    stats::FlagTable(
        "dlsim_ubench",
        "[options]\n\n"
        "Prints host retired-instructions/second for the detailed\n"
        "core with block dispatch off and on, and for the RefCore\n"
        "fast-forward engine. Wall-clock-based: run on an idle\n"
        "host; not a correctness test.")
        .text("profile", "NAME",
              "apache (default), firefox, memcached or mysql",
              opt.profile)
        .integer("warmup", "warm-up requests (default 60)", opt.warmup,
                 0)
        .integer("requests", "measured requests (default 300)",
                 opt.requests, 1)
        .integer("seed", "workload seed (default 42)", opt.seed, 0)
        .parse(argc, argv);

    std::printf("dlsim_ubench: profile=%s warmup=%d requests=%d "
                "seed=%llu\n\n",
                opt.profile.c_str(), opt.warmup, opt.requests,
                static_cast<unsigned long long>(opt.seed));

    struct Mode
    {
        const char *name;
        bool blocks;
        bool refcore;
    };
    static const Mode kModes[] = {
        {"detailed", false, false},
        {"detailed+blocks", true, false},
        {"refcore", true, true},
    };
    constexpr int NumModes = 3;

    ModeResult results[NumModes];
    for (int m = 0; m < NumModes; ++m)
        results[m] = runMode(opt, kModes[m].blocks,
                             kModes[m].refcore);

    std::printf("%-18s %14s %9s %12s %9s\n", "mode", "retired",
                "secs", "Minsts/sec", "speedup");
    for (int m = 0; m < NumModes; ++m) {
        // Speedup over the per-instruction detailed core.
        const double base = results[0].mips();
        const double speedup =
            base > 0.0 ? results[m].mips() / base : 0.0;
        std::printf("%-18s %14llu %9.3f %12.2f %8.2fx\n",
                    kModes[m].name,
                    static_cast<unsigned long long>(
                        results[m].instructions),
                    results[m].seconds, results[m].mips(),
                    speedup);
    }

    // Block dispatch is an execution strategy: detailed+blocks must
    // retire exactly the instructions detailed did. (The refcore
    // count may differ — sampled resolver servicing is costed, not
    // timed.)
    if (results[1].instructions != results[0].instructions) {
        std::fprintf(stderr,
                     "\ndlsim_ubench: FAIL: %s retired %llu "
                     "instructions, %s retired %llu — "
                     "dispatch engines diverged\n",
                     kModes[1].name,
                     static_cast<unsigned long long>(
                         results[1].instructions),
                     kModes[0].name,
                     static_cast<unsigned long long>(
                         results[0].instructions));
        return 1;
    }
    return 0;
}
