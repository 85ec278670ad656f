/**
 * @file
 * Aggregate the paper's two headline experiments into committed
 * JSON artifacts: BENCH_table4.json (base-vs-enhanced counters for
 * all four workloads) and BENCH_fig5.json (skip rate vs ABTB size).
 *
 * Usage:
 *   bench_to_json [--quick] [--out-dir DIR]
 *
 * --quick shrinks warmup/request counts and the ABTB sweep so the
 * tool finishes in a few seconds (used by the ctest smoke test);
 * the full run matches the standalone benches' calibrations.
 *
 * The tool self-validates: it re-reads each written file, runs the
 * strict JSON validator over it, and checks that the required
 * per-structure counters and skip-rate gauges are present for every
 * workload. Any failure is a non-zero exit.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "stats/json_writer.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

struct Calibration
{
    const char *name;
    int warmup;
    int requests;
};

/** Run the Table-4 arms and fill `doc` with one run per arm. */
void
buildTable4(stats::MetricsDocument &doc, bool quick)
{
    const Calibration full[] = {
        {"apache", 150, 900},
        {"firefox", 150, 450},
        {"memcached", 150, 600},
        {"mysql", 150, 700},
    };
    const Calibration fast[] = {
        {"apache", 30, 60},
        {"firefox", 30, 40},
        {"memcached", 30, 50},
        {"mysql", 30, 50},
    };

    for (const auto &cal : quick ? fast : full) {
        const auto wl = workload::profileByName(cal.name);
        for (const bool enhanced : {false, true}) {
            const auto arm =
                runArm(wl,
                       enhanced ? enhancedMachine()
                                : baseMachine(),
                       cal.warmup, cal.requests);
            const char *machine = enhanced ? "enhanced" : "base";
            auto &run = doc.addRun(std::string(cal.name) + "." +
                                   machine);
            run.with("workload", cal.name)
                .with("machine", machine)
                .with("warmup", std::to_string(cal.warmup))
                .with("requests", std::to_string(cal.requests));
            run.registry = arm.registry;
        }
        // Alternative software baselines (§2 related work): the
        // stable-linking arm memoizes every resolution at dlopen
        // (zero lazy traps), the demand arm demand-pages library
        // memory (cold-start fault storm). Both run the enhanced
        // machine so the columns isolate the loader policy.
        for (const auto policy : {linker::BindPolicy::Stable,
                                  linker::BindPolicy::Demand}) {
            auto mc = enhancedMachine();
            mc.bindPolicy = policy;
            const auto arm =
                runArm(wl, mc, cal.warmup, cal.requests);
            const char *pname = linker::bindPolicyName(policy);
            auto &run = doc.addRun(std::string(cal.name) + "." +
                                   pname);
            run.with("workload", cal.name)
                .with("machine", "enhanced")
                .with("bind_policy", pname)
                .with("warmup", std::to_string(cal.warmup))
                .with("requests", std::to_string(cal.requests));
            run.registry = arm.registry;
        }
        std::fprintf(stderr, "table4: %s done\n", cal.name);
    }
}

/** Run the Figure-5 ABTB sweep and fill `doc`. */
void
buildFig5(stats::MetricsDocument &doc, bool quick)
{
    const char *profiles[] = {"apache", "firefox", "memcached"};
    const int fullWarmups[] = {300, 1200, 150};
    const int fullRequests[] = {400, 250, 350};
    const int fastWarmups[] = {40, 80, 30};
    const int fastRequests[] = {40, 30, 40};

    std::vector<std::uint32_t> entries;
    if (quick)
        entries = {4u, 16u, 64u, 256u};
    else
        entries = {1u,  2u,   4u,   8u,  16u, 32u,
                   64u, 128u, 256u, 512u, 1024u};

    for (int i = 0; i < 3; ++i) {
        const auto wl = workload::profileByName(profiles[i]);
        const int warmup = quick ? fastWarmups[i] : fullWarmups[i];
        const int requests =
            quick ? fastRequests[i] : fullRequests[i];
        for (const auto n : entries) {
            auto mc = enhancedMachine();
            mc.abtbEntries = n;
            mc.abtbAssoc = std::min(n, 4u);
            const auto arm = runArm(wl, mc, warmup, requests);
            auto &run =
                doc.addRun(std::string(profiles[i]) + ".entries" +
                           std::to_string(n));
            run.with("workload", profiles[i])
                .with("machine", "enhanced")
                .with("abtb_entries", std::to_string(n))
                .with("warmup", std::to_string(warmup))
                .with("requests", std::to_string(requests));
            run.registry = arm.registry;
        }
        // Policy-arm columns at the paper-default 256-entry ABTB:
        // how the skip rate and trap counts look when the software
        // baseline itself changes (stable linking, demand paging).
        for (const auto policy : {linker::BindPolicy::Stable,
                                  linker::BindPolicy::Demand}) {
            auto mc = enhancedMachine();
            mc.bindPolicy = policy;
            const auto arm = runArm(wl, mc, warmup, requests);
            const char *pname = linker::bindPolicyName(policy);
            auto &run = doc.addRun(std::string(profiles[i]) + "." +
                                   pname);
            run.with("workload", profiles[i])
                .with("machine", "enhanced")
                .with("bind_policy", pname)
                .with("abtb_entries", "256")
                .with("warmup", std::to_string(warmup))
                .with("requests", std::to_string(requests));
            run.registry = arm.registry;
        }
        std::fprintf(stderr, "fig5: %s done\n", profiles[i]);
    }
}

/**
 * Re-read `path`, validate it as JSON, and require every key in
 * `required` to appear (as a quoted string) in the document.
 */
bool
validateFile(const std::string &path,
             const std::vector<std::string> &required)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "validate: cannot re-read %s\n",
                     path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::string error;
    if (!stats::jsonValidate(text, &error)) {
        std::fprintf(stderr, "validate: %s is not valid JSON: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    for (const auto &key : required) {
        if (text.find('"' + key + '"') == std::string::npos) {
            std::fprintf(stderr,
                         "validate: %s is missing required key "
                         "\"%s\"\n",
                         path.c_str(), key.c_str());
            return false;
        }
    }
    std::fprintf(stderr, "validate: %s ok (%zu bytes)\n",
                 path.c_str(), text.size());
    return true;
}

bool
writeDoc(const stats::MetricsDocument &doc,
         const std::string &path)
{
    std::string error;
    if (!doc.writeFile(path, &error)) {
        std::fprintf(stderr, "write: %s\n", error.c_str());
        return false;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string outDir = ".";
    stats::FlagTable("bench_to_json")
        .toggle("quick", "shrink every calibration for a smoke run",
                quick)
        .text("out-dir", "DIR",
              "where to write BENCH_{table4,fig5}.json (default .)",
              outDir)
        .parse(argc, argv);

    stats::MetricsDocument table4("bench_to_json table4");
    buildTable4(table4, quick);
    stats::MetricsDocument fig5("bench_to_json fig5");
    buildFig5(fig5, quick);

    const std::string table4Path = outDir + "/BENCH_table4.json";
    const std::string fig5Path = outDir + "/BENCH_fig5.json";
    if (!writeDoc(table4, table4Path) ||
        !writeDoc(fig5, fig5Path))
        return 1;

    // Per-structure counters plus the skip-rate gauge must exist
    // for every workload arm (the enhanced arms carry the skip
    // unit's metrics).
    std::vector<std::string> table4Keys = {
        "dlsim.cpu.l1i.misses",     "dlsim.cpu.l1i.hits",
        "dlsim.cpu.l1i.evictions",  "dlsim.cpu.l1d.misses",
        "dlsim.cpu.itlb.misses",    "dlsim.cpu.dtlb.misses",
        "dlsim.cpu.btb.misses",     "dlsim.cpu.direction.mispredicts",
        "dlsim.core.abtb.evictions", "dlsim.cpu.trampoline_skip_rate",
        "dlsim.core.skip.substitutions",
    };
    // The policy-arm columns must carry their signature metrics:
    // the stable arm its memoized-resolution map, the demand arm
    // its first-touch fault counters.
    table4Keys.push_back("dlsim.linker.stable.map_size");
    table4Keys.push_back("dlsim.mem.demand_faults.total");
    for (const char *w :
         {"apache", "firefox", "memcached", "mysql"}) {
        table4Keys.push_back(std::string(w) + ".base");
        table4Keys.push_back(std::string(w) + ".enhanced");
        table4Keys.push_back(std::string(w) + ".stable");
        table4Keys.push_back(std::string(w) + ".demand");
    }
    std::vector<std::string> fig5Keys = {
        "dlsim.cpu.trampoline_skip_rate",
        "dlsim.core.abtb.hits",
        "dlsim.core.abtb.misses",
        "dlsim.core.abtb.evictions",
        "abtb_entries",
        "bind_policy",
        "dlsim.linker.stable.map_size",
        "dlsim.mem.demand_faults.total",
    };
    for (const char *w : {"apache", "firefox", "memcached"}) {
        fig5Keys.push_back(std::string(w) + ".stable");
        fig5Keys.push_back(std::string(w) + ".demand");
    }
    if (!validateFile(table4Path, table4Keys) ||
        !validateFile(fig5Path, fig5Keys))
        return 1;

    std::fprintf(stderr, "bench_to_json: all outputs valid\n");
    return 0;
}
