/**
 * @file
 * dlsim command-line driver: run any calibrated workload on any
 * machine configuration and print the counter report, record retire
 * traces, or sweep ABTB sizes against a recorded trace.
 *
 * `dlsim_cli --help` lists the commands and options.
 *
 * `snapshot save` warms a workload up (--warmup requests) and
 * serializes the complete machine state; `snapshot restore` — given
 * the same workload/machine options — restores it and runs the
 * measured phase without re-simulating the warm-up. A snapshot
 * whose magic, version, CRCs, or parameter fingerprint do not
 * match is rejected (exit 1), never partially loaded. `sweep` runs
 * its points on --jobs host threads; output is byte-identical for
 * every N.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/job_runner.hh"
#include "snapshot/io.hh"
#include "stats/flags.hh"
#include "stats/metrics.hh"
#include "trace/replay.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"

using namespace dlsim;

namespace
{

struct Options
{
    std::string command;
    std::string subcommand;
    std::string workload;
    std::string tracePath;
    std::string jsonOut;
    bool enhanced = false;
    bool arm = false;
    bool explicitInval = false;
    linker::BindPolicy bindPolicy = linker::BindPolicy::Lazy;
    bool aslr = false;
    int requests = 500;
    int warmup = 100;
    std::uint32_t abtbEntries = 256;
    std::uint64_t seed = 42;
    unsigned jobs = 0; // 0 = hardware concurrency
};

workload::MachineConfig
machineFor(const Options &opt)
{
    workload::MachineConfig mc;
    mc.enhanced = opt.enhanced;
    mc.abtbEntries = opt.abtbEntries;
    mc.abtbAssoc = std::min(opt.abtbEntries, 4u);
    mc.explicitInvalidation = opt.explicitInval;
    mc.bindPolicy = opt.bindPolicy;
    mc.aslr = opt.aslr;
    if (opt.arm)
        mc.pltStyle = linker::PltStyle::Arm;
    return mc;
}

/** Declare every option, parse, then dispatch the positionals. */
bool
parse(int argc, char **argv, Options &opt)
{
    stats::FlagTable flags("dlsim_cli",
                           "<command> [options]\n\n"
                           "commands:\n"
                           "  run <workload>\n"
                           "  record <workload> <trace-file>\n"
                           "  replay <trace-file>\n"
                           "  sweep <trace-file>\n"
                           "  snapshot save|restore <workload> <file>");
    flags.toggle("enhanced", "enable the trampoline-skip hardware",
                 opt.enhanced)
        .integer("requests", "measured requests (default 500)",
                 opt.requests, 1)
        .integer("warmup", "warm-up requests (default 100)",
                 opt.warmup, 0)
        .integer("abtb-entries", "ABTB capacity (default 256)",
                 opt.abtbEntries, 1)
        .toggle("arm", "ARM-style trampolines", opt.arm)
        .toggle("explicit-inval",
                "explicit invalidation (paper section 3.4)",
                opt.explicitInval)
        .custom("bind-policy", "P",
                "loader policy: lazy (default), now, stable or demand",
                [&opt](const std::string &v) {
                    opt.bindPolicy = linker::parseBindPolicy(v);
                })
        .toggle("aslr", "randomise library placement", opt.aslr)
        .integer("seed", "workload seed (default 42)", opt.seed, 0)
        .integer("jobs",
                 "host threads for sweep points (default: all CPUs)",
                 opt.jobs, 1)
        .text("json-out", "FILE",
              "also write a dlsim-metrics-v1 JSON document",
              opt.jsonOut)
        .require([&opt] {
            // --abtb-entries also sets the associativity.
            return core::geometryError(
                workload::makeCoreParams(machineFor(opt)).skip);
        });
    const auto pos = flags.parse(argc, argv, 4);
    const auto at = [&pos](std::size_t i) {
        return i < pos.size() ? pos[i] : std::string();
    };
    opt.command = at(0);
    bool ok = false;
    if (opt.command == "snapshot") {
        opt.subcommand = at(1);
        opt.workload = at(2);
        opt.tracePath = at(3);
        ok = (opt.subcommand == "save" ||
              opt.subcommand == "restore") &&
             !opt.workload.empty() && !opt.tracePath.empty();
    } else if (opt.command == "replay" || opt.command == "sweep") {
        opt.tracePath = at(1);
        ok = !opt.tracePath.empty();
    } else if (opt.command == "run" || opt.command == "record") {
        opt.workload = at(1);
        opt.tracePath = at(2);
        ok = !opt.workload.empty() &&
             (opt.command == "run" || !opt.tracePath.empty());
    }
    if (!ok)
        flags.printUsage(stderr);
    return ok;
}

/** Write `doc` if --json-out was given; true unless I/O failed. */
bool
writeJson(const Options &opt, const stats::MetricsDocument &doc)
{
    if (opt.jsonOut.empty())
        return true;
    std::string error;
    if (!doc.writeFile(opt.jsonOut, &error)) {
        std::fprintf(stderr, "json-out: %s\n", error.c_str());
        return false;
    }
    std::fprintf(stderr, "json-out: wrote %s\n",
                 opt.jsonOut.c_str());
    return true;
}

int
cmdRun(const Options &opt)
{
    auto mc = machineFor(opt);
    mc.profileTrampolines = true;
    workload::Workbench wb(
        workload::profileByName(opt.workload, opt.seed), mc);
    wb.warmup(static_cast<std::uint32_t>(opt.warmup));
    for (int i = 0; i < opt.requests; ++i)
        wb.runRequest();

    const auto c = wb.core().counters();
    std::printf("workload %s (%s machine, %s trampolines)\n",
                opt.workload.c_str(),
                opt.enhanced ? "enhanced" : "base",
                opt.arm ? "ARM" : "x86-64");
    std::printf("%s", c.toString().c_str());
    std::printf("distinct trampolines:  %llu\n",
                (unsigned long long)
                    wb.distinctTrampolinesExecuted());
    if (wb.core().skipUnit()) {
        const auto &s = wb.core().skipUnit()->stats();
        const auto total =
            c.skippedTrampolines + c.trampolineJmps;
        std::printf("skip rate:             %.1f%%\n",
                    total ? 100.0 *
                                double(c.skippedTrampolines) /
                                double(total)
                          : 0.0);
        std::printf("store flushes:         %llu (%llu FP)\n",
                    (unsigned long long)s.storeFlushes,
                    (unsigned long long)s.falsePositiveFlushes);
        std::printf("hardware bytes:        %llu\n",
                    (unsigned long long)
                        wb.core().skipUnit()->hardwareBytes());
    }

    stats::MetricsDocument doc("dlsim_cli run");
    auto &run = doc.addRun(opt.workload);
    run.with("workload", opt.workload)
        .with("machine", opt.enhanced ? "enhanced" : "base")
        .with("requests", std::to_string(opt.requests))
        .with("seed", std::to_string(opt.seed));
    wb.reportMetrics(run.registry, "dlsim");
    return writeJson(opt, doc) ? 0 : 1;
}

int
cmdRecord(const Options &opt)
{
    auto mc = machineFor(opt);
    mc.core.tracePath = opt.tracePath;
    workload::Workbench wb(
        workload::profileByName(opt.workload, opt.seed), mc);
    // No warmup-discard: the trace must contain the lazy
    // resolutions, as the paper's Pin collections did.
    for (int i = 0; i < opt.requests; ++i)
        wb.runRequest();
    wb.core().closeTrace();
    std::printf("recorded %d requests of %s to %s\n",
                opt.requests, opt.workload.c_str(),
                opt.tracePath.c_str());

    stats::MetricsDocument doc("dlsim_cli record");
    auto &run = doc.addRun(opt.workload);
    run.with("workload", opt.workload)
        .with("machine", opt.enhanced ? "enhanced" : "base")
        .with("requests", std::to_string(opt.requests))
        .with("trace", opt.tracePath);
    wb.reportMetrics(run.registry, "dlsim");
    return writeJson(opt, doc) ? 0 : 1;
}

int
cmdReplay(const Options &opt)
{
    trace::TraceReader reader(opt.tracePath);
    if (!reader.good()) {
        std::fprintf(stderr, "cannot read trace %s: %s\n",
                     opt.tracePath.c_str(),
                     reader.errorString());
        return 1;
    }
    core::SkipUnitParams params;
    params.abtb.entries = opt.abtbEntries;
    params.abtb.assoc = std::min(opt.abtbEntries, 4u);
    if (opt.arm)
        params.patternWindow = 2;
    const auto r = trace::replaySkipUnit(reader, params);
    std::printf("events %llu, controls %llu, stores %llu\n",
                (unsigned long long)r.events,
                (unsigned long long)r.controlTransfers,
                (unsigned long long)r.stores);
    std::printf("trampoline executions %llu, would skip %llu "
                "(%.1f%%) with %u entries\n",
                (unsigned long long)r.trampolineExecutions,
                (unsigned long long)r.wouldSkip,
                100.0 * r.skipRate(), params.abtb.entries);

    stats::MetricsDocument doc("dlsim_cli replay");
    auto &run = doc.addRun("replay");
    run.with("trace", opt.tracePath)
        .with("abtb_entries",
              std::to_string(params.abtb.entries));
    run.registry.counter("dlsim.replay.events", r.events);
    run.registry.counter("dlsim.replay.control_transfers",
                         r.controlTransfers);
    run.registry.counter("dlsim.replay.stores", r.stores);
    run.registry.counter("dlsim.replay.trampoline_executions",
                         r.trampolineExecutions);
    run.registry.counter("dlsim.replay.would_skip", r.wouldSkip);
    run.registry.gauge("dlsim.replay.skip_rate", r.skipRate());
    return writeJson(opt, doc) ? 0 : 1;
}

int
cmdSweep(const Options &opt)
{
    {
        // Fail early with the serial diagnostic before spawning
        // any jobs.
        trace::TraceReader probe(opt.tracePath);
        if (!probe.good()) {
            std::fprintf(stderr, "cannot read trace %s: %s\n",
                         opt.tracePath.c_str(),
                         probe.errorString());
            return 1;
        }
    }
    const std::uint32_t sizes[] = {1u,  2u,   4u,   8u,
                                   16u, 32u,  64u,  128u,
                                   256u, 512u, 1024u};

    // Every sweep point is an independent job with its own
    // TraceReader (the reader is not shareable across threads);
    // results come back in submission order, so stdout and the
    // JSON document are byte-identical for every --jobs value.
    std::vector<std::function<trace::ReplayResult()>> work;
    for (const std::uint32_t entries : sizes) {
        work.push_back([entries, &opt] {
            trace::TraceReader reader(opt.tracePath);
            if (!reader.good())
                throw std::runtime_error("cannot read trace " +
                                         opt.tracePath);
            core::SkipUnitParams params;
            params.abtb.entries = entries;
            params.abtb.assoc = std::min(entries, 4u);
            if (opt.arm)
                params.patternWindow = 2;
            return trace::replaySkipUnit(reader, params);
        });
    }
    sim::JobRunner runner(opt.jobs);
    const auto results = runner.run(std::move(work));

    stats::MetricsDocument doc("dlsim_cli sweep");
    std::printf("%8s %10s %12s\n", "entries", "bytes",
                "skip rate");
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const std::uint32_t entries = sizes[i];
        const trace::ReplayResult &r = results[i];
        std::printf("%8u %10u %11.1f%%\n", entries, entries * 12,
                    100.0 * r.skipRate());
        auto &run =
            doc.addRun("entries" + std::to_string(entries));
        run.with("trace", opt.tracePath)
            .with("abtb_entries", std::to_string(entries));
        run.registry.counter(
            "dlsim.replay.trampoline_executions",
            r.trampolineExecutions);
        run.registry.counter("dlsim.replay.would_skip",
                             r.wouldSkip);
        run.registry.gauge("dlsim.replay.skip_rate",
                           r.skipRate());
    }
    return writeJson(opt, doc) ? 0 : 1;
}

/** Build the Workbench both snapshot subcommands agree on. */
workload::Workbench
snapshotWorkbenchFor(const Options &opt,
                     workload::MachineConfig &mc_out)
{
    auto mc = machineFor(opt);
    mc.profileTrampolines = true;
    mc_out = mc;
    return workload::Workbench(
        workload::profileByName(opt.workload, opt.seed), mc);
}

int
cmdSnapshotSave(const Options &opt)
{
    workload::MachineConfig mc;
    auto wb = snapshotWorkbenchFor(opt, mc);
    wb.warmup(static_cast<std::uint32_t>(opt.warmup));
    const auto bytes = workload::snapshotWorkbench(wb);
    snapshot::writeFile(opt.tracePath, bytes);
    std::printf("snapshot: %s (%s machine) after %d warmup "
                "requests -> %s (%zu bytes)\n",
                opt.workload.c_str(),
                opt.enhanced ? "enhanced" : "base", opt.warmup,
                opt.tracePath.c_str(), bytes.size());
    return 0;
}

int
cmdSnapshotRestore(const Options &opt)
{
    workload::MachineConfig mc;
    auto wb = snapshotWorkbenchFor(opt, mc);
    const auto bytes = snapshot::readFile(opt.tracePath);
    workload::restoreWorkbench(wb, bytes.data(), bytes.size());
    for (int i = 0; i < opt.requests; ++i)
        wb.runRequest();

    const auto c = wb.core().counters();
    std::printf("workload %s restored from %s (%s machine)\n",
                opt.workload.c_str(), opt.tracePath.c_str(),
                opt.enhanced ? "enhanced" : "base");
    std::printf("%s", c.toString().c_str());
    std::printf("distinct trampolines:  %llu\n",
                (unsigned long long)
                    wb.distinctTrampolinesExecuted());

    stats::MetricsDocument doc("dlsim_cli snapshot restore");
    auto &run = doc.addRun(opt.workload);
    run.with("workload", opt.workload)
        .with("machine", opt.enhanced ? "enhanced" : "base")
        .with("requests", std::to_string(opt.requests))
        .with("seed", std::to_string(opt.seed))
        .with("snapshot", opt.tracePath);
    wb.reportMetrics(run.registry, "dlsim");
    return writeJson(opt, doc) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt))
        return 2;
    try {
        if (opt.command == "run")
            return cmdRun(opt);
        if (opt.command == "record")
            return cmdRecord(opt);
        if (opt.command == "replay")
            return cmdReplay(opt);
        if (opt.command == "sweep")
            return cmdSweep(opt);
        return opt.subcommand == "save" ? cmdSnapshotSave(opt)
                                        : cmdSnapshotRestore(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
