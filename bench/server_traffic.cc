/**
 * @file
 * Multi-tenant server traffic: the OS-like layer (os::Kernel +
 * os::Server) serving requests across churned tenant plugins, base
 * vs enhanced machine.
 *
 * Topology per arm: a 4-core sim::MultiCoreSystem runs 6 worker and
 * 12 client kernel threads. Clients send 32-byte requests over
 * kernel sockets; workers ASID-switch to the target tenant (§3.3
 * context-switch flushes) and call its handler through the dispatch
 * module's PLT. Every --churn served requests a tenant is dlclosed
 * and reloaded as a new generation; the GOT resets are broadcast to
 * every core's skip unit as coherence traffic (§3.2).
 *
 * Measurement structure (PR 9): the server warms once on the base
 * machine (--warm requests), checkpoints the whole OS state
 * (Server::snapshot), and then fans every arm × request-mix shard
 * out of that checkpoint over the JobRunner. Shard results merge in
 * submission order, so stdout and --json-out are byte-identical for
 * any --jobs value and for --blocks 0/1. With --sample W:D:F the
 * serving path runs sampled: detailed windows measure CPI, fast
 * forward executes functionally with kernel decisions exact and
 * cycle timing extrapolated. Wall-clock speed goes to stderr only.
 */

#include "common.hh"

#include <iterator>

#include "os/server.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

struct ShardResult
{
    ArmResult result;
    os::ServerStats server;
    /** Raw latency samples in insertion order (merged across
     *  shards in submission order). */
    std::vector<double> latency;
    std::uint64_t coherenceFlushes = 0;
    std::uint64_t snoopedStores = 0;
    std::uint64_t asidSwitches = 0;
    std::uint64_t preemptions = 0;
};

/** Merged per-arm view of all shards. */
struct ArmSummary
{
    os::ServerStats server;
    stats::SampleSet latency;
    std::uint64_t coherenceFlushes = 0;
    std::uint64_t snoopedStores = 0;
    std::uint64_t asidSwitches = 0;
    std::uint64_t preemptions = 0;
    double p50 = 0, p90 = 0, p99 = 0;
};

sim::MultiCoreParams
multiCoreParams(const workload::MachineConfig &mc)
{
    sim::MultiCoreParams mp;
    mp.numCores = 4;
    mp.core = workload::makeCoreParams(mc);
    return mp;
}

os::ServerParams
serverParams(const BenchArgs &args, std::uint32_t tenants,
             std::uint64_t churn, std::uint64_t warm)
{
    os::ServerParams sp;
    sp.workers = 6;
    sp.clients = 12;
    sp.tenants = tenants;
    // Warm-phase budget: headroom so no client runs dry before the
    // checkpoint (the warm loop stops on total served requests;
    // one client can serve at most all of them).
    sp.requests = (warm + 1) * sp.clients;
    sp.churnPeriod = churn;
    sp.seed = args.seed();
    return sp;
}

/**
 * Warm the server on the base machine and checkpoint it — or, under
 * --from-snapshot, read the checkpoint back (verifying checksums
 * once) instead of simulating the warm-up.
 */
std::vector<std::uint8_t>
warmServerState(const BenchArgs &args,
                const workload::WorkloadParams &wl,
                const workload::MachineConfig &mc_base,
                const os::ServerParams &sp, std::uint64_t warm,
                std::shared_ptr<const workload::BuiltProgram> prog)
{
    try {
        if (!args.fromSnapshot().empty()) {
            auto bytes = snapshot::readFile(args.fromSnapshot());
            snapshot::Deserializer(bytes.data(), bytes.size())
                .verifyAllSections();
            std::fprintf(stderr,
                         "snapshot: warm server restored from %s "
                         "(%zu bytes)\n",
                         args.fromSnapshot().c_str(),
                         bytes.size());
            return bytes;
        }
        workload::Workbench wb(wl, mc_base, prog);
        os::Server server(wb, multiCoreParams(mc_base), sp);
        if (args.sample().enabled)
            server.setSampling(args.sample());
        while (server.stats().requestsServed < warm) {
            if (server.runRounds(64))
                break; // All clients done: warm budget too small.
        }
        auto bytes = server.snapshot();
        if (!args.snapshotAfter().empty()) {
            snapshot::writeFile(args.snapshotAfter(), bytes);
            std::fprintf(stderr,
                         "snapshot: warm server written to %s "
                         "(%zu bytes)\n",
                         args.snapshotAfter().c_str(),
                         bytes.size());
        }
        return bytes;
    } catch (const snapshot::SnapshotError &e) {
        std::fprintf(stderr, "%s: %s\n", args.tool().c_str(),
                     e.what());
        std::exit(1);
    }
}

/**
 * One fan-out job: restore the warm checkpoint into a fresh
 * workbench, re-target the arm's machine (enhanced arms start with
 * a cold ABTB, per the paper's methodology), rebase the clients
 * onto shard `shard`, and serve its request share.
 */
ShardResult
serveShard(const workload::WorkloadParams &wl,
           const workload::MachineConfig &mc_base,
           const workload::MachineConfig &arm_mc,
           const BenchArgs &args,
           const std::vector<std::uint8_t> &state,
           const os::ServerParams &sp, std::uint32_t shard,
           std::uint64_t requests,
           std::shared_ptr<const workload::BuiltProgram> prog)
{
    workload::Workbench wb(wl, mc_base, std::move(prog),
                           /*for_restore=*/true);
    os::Server server(wb, multiCoreParams(mc_base), sp,
                      state.data(), state.size(),
                      /*trusted=*/true);
    server.reconfigure(arm_mc);
    server.resetMeasurement(shard, requests);
    if (args.sample().enabled)
        server.setSampling(args.sample());
    server.run();

    ShardResult res;
    server.reportMetrics(res.result.registry, "dlsim.os");
    server.system().reportMetrics(res.result.registry, "dlsim");
    res.result.registry.histogram("dlsim.os.server.latency",
                                  server.latency());
    res.result.blockHits = wb.image().blockCacheHits();
    res.result.blockBuilds = wb.image().blockCacheBuilds();
    res.result.blockFlushes = wb.image().blockCacheFlushes();

    res.server = server.stats();
    res.latency = server.latency().samples();
    res.coherenceFlushes = server.system().totalCoherenceFlushes();
    res.snoopedStores = server.system().snoopedStores();
    res.asidSwitches = server.kernel().stats().asidSwitches;
    res.preemptions = server.kernel().stats().preemptions;
    return res;
}

ArmSummary
mergeShards(const std::vector<ShardResult> &shards)
{
    ArmSummary sum;
    for (const ShardResult &s : shards) {
        sum.server.requestsServed += s.server.requestsServed;
        sum.server.tenantChurns += s.server.tenantChurns;
        sum.server.gotResets += s.server.gotResets;
        sum.server.deferredChurns += s.server.deferredChurns;
        for (const double v : s.latency)
            sum.latency.add(v);
        sum.coherenceFlushes += s.coherenceFlushes;
        sum.snoopedStores += s.snoopedStores;
        sum.asidSwitches += s.asidSwitches;
        sum.preemptions += s.preemptions;
    }
    if (sum.latency.count() > 0) {
        sum.p50 = sum.latency.percentile(50.0);
        sum.p90 = sum.latency.percentile(90.0);
        sum.p99 = sum.latency.percentile(99.0);
    }
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t requests = 1000000;
    std::uint64_t churn = 50000;
    std::uint64_t warm = 20000;
    std::uint32_t tenants = 4;
    std::uint32_t shards = 2;
    BenchArgs args(
        "server_traffic", argc, argv, [&](stats::FlagTable &flags) {
            flags
                .integer("requests",
                         "total requests to serve per arm "
                         "(default 1000000)",
                         requests, 0)
                .integer("tenants", "tenant plugin count (default 4)",
                         tenants, 1)
                .integer("churn",
                         "requests between tenant reloads (0 = off; "
                         "default 50000)",
                         churn, 0)
                .integer("warm",
                         "requests served before the checkpoint "
                         "(default 20000)",
                         warm, 0)
                .integer("shards",
                         "independent request-mix shards per arm "
                         "(default 2)",
                         shards, 1);
        });
    banner("Multi-tenant server traffic over the OS layer, "
           "base vs enhanced",
           "Sections 3.2/3.3 under plugin churn and "
           "context-switch storms");

    // --quick shrinks harder than the shared /8: a full run is a
    // million requests.
    if (args.quick()) {
        requests = std::max<std::uint64_t>(240, requests / 2000);
        warm = std::max<std::uint64_t>(120, warm / 100);
        if (churn > 0)
            churn = std::max<std::uint64_t>(40, churn / 1000);
    }

    auto wl = workload::memcachedProfile(args.seed());
    wl.seed = args.seed();

    const auto mc_base = baseMachine(args);
    // Server configuration: ASID-tagged ABTB (§3.3) so the
    // context-switch storm does not wipe the skip unit — leaving
    // the coherence path (§3.2) as the mechanism that keeps
    // churned tenants correct.
    auto mc_enh = enhancedMachine(args);
    mc_enh.asidRetention = true;

    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    const os::ServerParams sp =
        serverParams(args, tenants, churn, warm);
    const auto state =
        warmServerState(args, wl, mc_base, sp, warm, prog);

    // Fan both arms × all shards out of the one warm checkpoint.
    const workload::MachineConfig arm_mcs[2] = {mc_base, mc_enh};
    std::vector<std::function<ShardResult()>> work;
    for (const auto &arm_mc : arm_mcs) {
        for (std::uint32_t sh = 0; sh < shards; ++sh) {
            const std::uint64_t share =
                requests / shards +
                (sh < requests % shards ? 1 : 0);
            work.push_back([&, sh, share, arm_mc] {
                return serveShard(wl, mc_base, arm_mc, args,
                                  state, sp, sh, share, prog);
            });
        }
    }
    auto all = runJobs(args, std::move(work));
    std::vector<ShardResult> baseShards(
        std::make_move_iterator(all.begin()),
        std::make_move_iterator(all.begin() + shards));
    std::vector<ShardResult> enhShards(
        std::make_move_iterator(all.begin() + shards),
        std::make_move_iterator(all.end()));
    const ArmSummary base = mergeShards(baseShards);
    const ArmSummary enh = mergeShards(enhShards);

    JsonOut json("server_traffic", args);
    const auto ctx = [&](const char *machine, std::uint32_t sh) {
        return withSampleContext(
            args,
            {{"workload", "server"},
             {"machine", machine},
             {"requests", std::to_string(requests)},
             {"tenants", std::to_string(tenants)},
             {"churn", std::to_string(churn)},
             {"warm", std::to_string(warm)},
             {"shard", std::to_string(sh) + "/" +
                           std::to_string(shards)}});
    };
    for (std::uint32_t sh = 0; sh < shards; ++sh) {
        const std::string suffix =
            shards > 1 ? ".shard" + std::to_string(sh) : "";
        json.add("server.base" + suffix, baseShards[sh].result,
                 ctx("base", sh));
    }
    for (std::uint32_t sh = 0; sh < shards; ++sh) {
        const std::string suffix =
            shards > 1 ? ".shard" + std::to_string(sh) : "";
        json.add("server.enhanced" + suffix,
                 enhShards[sh].result, ctx("enhanced", sh));
    }
    if (!json.write())
        return 1;

    std::printf("requests served per arm : %llu  (tenants=%u, "
                "churn period=%llu)\n",
                static_cast<unsigned long long>(
                    base.server.requestsServed),
                tenants,
                static_cast<unsigned long long>(churn));
    std::printf("warm checkpoint         : %llu requests, %u "
                "shard(s) per arm\n",
                static_cast<unsigned long long>(warm), shards);
    std::printf("tenant reloads          : %llu  (%llu GOT resets "
                "broadcast, %llu deferred)\n\n",
                static_cast<unsigned long long>(
                    base.server.tenantChurns),
                static_cast<unsigned long long>(
                    base.server.gotResets),
                static_cast<unsigned long long>(
                    base.server.deferredChurns));

    std::printf("%-22s %14s %14s\n", "latency (virt cycles)",
                "base", "enhanced");
    const auto row = [&](const char *name, double b, double e) {
        std::printf("%-22s %14.0f %14.0f   (%+.2f%%)\n", name, b,
                    e, b > 0 ? (e - b) / b * 100.0 : 0.0);
    };
    row("p50", base.p50, enh.p50);
    row("p90", base.p90, enh.p90);
    row("p99", base.p99, enh.p99);

    std::printf("\n%-22s %14s %14s\n", "system activity", "base",
                "enhanced");
    const auto crow = [&](const char *name, std::uint64_t b,
                          std::uint64_t e) {
        std::printf("%-22s %14llu %14llu\n", name,
                    static_cast<unsigned long long>(b),
                    static_cast<unsigned long long>(e));
    };
    crow("asid switches", base.asidSwitches, enh.asidSwitches);
    crow("preemptions", base.preemptions, enh.preemptions);
    crow("snooped stores", base.snoopedStores, enh.snoopedStores);
    crow("coherence flushes", base.coherenceFlushes,
         enh.coherenceFlushes);

    if (args.sample().enabled) {
        std::printf(
            "\nSampled run (%s): kernel scheduling and server "
            "logic are exact;\n"
            "cycle timing (and so latency) is extrapolated from "
            "detail-window CPI.\n",
            args.sample().spec().c_str());
    }
    std::printf(
        "\nEnhanced arm runs an ASID-tagged ABTB (retention, "
        "paper 3.3), so\n"
        "correctness under tenant churn rests on the coherence "
        "path (3.2):\n"
        "every dlclose GOT reset is broadcast to all cores' skip "
        "units.\n"
        "Latency is client-observed round-trip in virtual cycles; "
        "at these\n"
        "quantum sizes trampoline savings are sub-quantum, so "
        "percentile\n"
        "deltas reflect scheduling quantization, not the skip "
        "unit.\n");
    return 0;
}
