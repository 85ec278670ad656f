/**
 * @file
 * Tests for the server measurement machinery: checkpointed warm
 * fan-out (Server::snapshot / restore / resetMeasurement /
 * reconfigure) and sampled server execution (sim::Sampler driven by
 * os::Kernel).
 *
 * The contracts under test, in bench/server_traffic's terms:
 *
 *  1. Exact mode: restoring a warm checkpoint into a fresh
 *     workbench and serving N requests is byte-identical to
 *     serving the same N requests from the live warm server —
 *     for both machine arms, so the warm-once fan-out changes
 *     nothing observable.
 *  2. Identity across host parallelism: the fan-out grid gives the
 *     same merged metrics for any --jobs and either block-dispatch
 *     engine.
 *  3. Sampled mode: kernel scheduling and server logic stay exact
 *     (every KernelStats/ServerStats counter equals the exact
 *     run's on the base machine), only cycle-derived numbers are
 *     extrapolated; the latency-percentile error stays under a
 *     coarse documented bound (docs/performance.md §8).
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.hh"
#include "os/server.hh"
#include "sim/job_runner.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

workload::WorkloadParams
smallWorkload(std::uint64_t seed)
{
    workload::WorkloadParams wl;
    wl.name = "server-sampled-test";
    wl.seed = seed;
    wl.numLibs = 2;
    wl.funcsPerLib = 3;
    wl.libFnInsts = 12;
    wl.unusedImportsPerModule = 4;
    wl.requests = {{"get", 1.0, 1, 2}, {"set", 0.5, 1, 3}};
    wl.stepsPerRequest = 2;
    wl.appWorkInsts = 4;
    wl.calledImports = 4;
    wl.interLibCallProb = 0.2;
    wl.libDataBytes = 1 << 12;
    wl.appDataBytes = 1 << 14;
    wl.hotDataBytes = 512;
    return wl;
}

workload::MachineConfig
serverMachine(bool enhanced, bool blocks)
{
    auto mc = enhanced ? enhancedMachine() : baseMachine();
    if (enhanced)
        mc.asidRetention = true;
    mc.core.blockDispatch = blocks;
    return mc;
}

sim::MultiCoreParams
multiCore(const workload::MachineConfig &mc)
{
    sim::MultiCoreParams mp;
    mp.numCores = 2;
    mp.core = workload::makeCoreParams(mc);
    return mp;
}

os::ServerParams
smallServer(std::uint64_t warm, std::uint64_t churn)
{
    os::ServerParams sp;
    sp.workers = 2;
    sp.clients = 3;
    sp.tenants = 2;
    // Warm budget with headroom: snapshot() requires that no
    // client has finished.
    sp.requests = (warm + 1) * sp.clients;
    sp.churnPeriod = churn;
    sp.backlog = 2;
    sp.seed = 9;
    return sp;
}

/** Observable outcome of one measured serve. */
struct Outcome
{
    os::ServerStats server;
    os::KernelStats kernel;
    std::vector<double> latency;
    std::vector<std::uint32_t> generations;
    std::uint64_t coherenceFlushes = 0;
    std::string json;
};

Outcome
collect(os::Server &server)
{
    Outcome o;
    o.server = server.stats();
    o.kernel = server.kernel().stats();
    o.latency = server.latency().samples();
    for (std::uint32_t t = 0; t < server.params().tenants; ++t)
        o.generations.push_back(server.tenantGeneration(t));
    o.coherenceFlushes = server.system().totalCoherenceFlushes();
    stats::MetricsDocument doc("test_server_sampled");
    auto &run = doc.addRun("serve");
    server.reportMetrics(run.registry, "dlsim.os");
    server.system().reportMetrics(run.registry, "dlsim");
    run.registry.histogram("dlsim.os.server.latency",
                           server.latency());
    o.json = doc.toJson();
    return o;
}

void
expectKernelEqual(const os::KernelStats &a,
                  const os::KernelStats &b)
{
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.threadSwitches, b.threadSwitches);
    EXPECT_EQ(a.asidSwitches, b.asidSwitches);
    EXPECT_EQ(a.idleSlices, b.idleSlices);
    EXPECT_EQ(a.kernelSteps, b.kernelSteps);
    EXPECT_EQ(a.simCalls, b.simCalls);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.wakeups, b.wakeups);
    EXPECT_EQ(a.threadsSpawned, b.threadsSpawned);
    EXPECT_EQ(a.threadsExited, b.threadsExited);
    EXPECT_EQ(a.pipeBlockedReads, b.pipeBlockedReads);
    EXPECT_EQ(a.pipeBlockedWrites, b.pipeBlockedWrites);
    EXPECT_EQ(a.pipeBytesRead, b.pipeBytesRead);
    EXPECT_EQ(a.pipeBytesWritten, b.pipeBytesWritten);
    EXPECT_EQ(a.listens, b.listens);
    EXPECT_EQ(a.connects, b.connects);
    EXPECT_EQ(a.accepts, b.accepts);
    EXPECT_EQ(a.backlogBlocks, b.backlogBlocks);
    EXPECT_EQ(a.connsClosed, b.connsClosed);
}

void
expectServerEqual(const os::ServerStats &a,
                  const os::ServerStats &b)
{
    EXPECT_EQ(a.requestsServed, b.requestsServed);
    EXPECT_EQ(a.tenantChurns, b.tenantChurns);
    EXPECT_EQ(a.gotResets, b.gotResets);
    EXPECT_EQ(a.deferredChurns, b.deferredChurns);
}

constexpr std::uint64_t Warm = 60;
constexpr std::uint64_t Churn = 15;
constexpr std::uint64_t Measured = 90;

/** Warm a base-machine server and return its checkpoint bytes. */
std::vector<std::uint8_t>
warmCheckpoint(const workload::WorkloadParams &wl,
               std::shared_ptr<const workload::BuiltProgram> prog)
{
    const auto mc = serverMachine(false, true);
    workload::Workbench wb(wl, mc, prog);
    os::Server server(wb, multiCore(mc),
                      smallServer(Warm, Churn));
    while (server.stats().requestsServed < Warm) {
        if (server.runRounds(16))
            break;
    }
    EXPECT_EQ(server.params().clients, 3u);
    return server.snapshot();
}

/** Restore the checkpoint and serve `Measured` fresh requests on
 *  the given arm, optionally sampled. */
Outcome
serveRestored(const workload::WorkloadParams &wl,
              std::shared_ptr<const workload::BuiltProgram> prog,
              const std::vector<std::uint8_t> &state,
              bool enhanced, bool blocks,
              const sim::SampleParams &sample = {},
              std::uint32_t shard = 0,
              std::uint64_t measured = Measured)
{
    const auto mc_base = serverMachine(false, true);
    workload::Workbench wb(wl, mc_base, prog,
                           /*for_restore=*/true);
    os::Server server(wb, multiCore(mc_base),
                      smallServer(Warm, Churn), state.data(),
                      state.size());
    server.reconfigure(serverMachine(enhanced, blocks));
    server.resetMeasurement(shard, measured);
    if (sample.enabled)
        server.setSampling(sample);
    server.run();
    return collect(server);
}

} // namespace

/**
 * Contract 1: continuous warm server vs checkpoint-restored server
 * must be indistinguishable, on both arms. The continuous run
 * reconfigures in place (same operation the restored one gets), so
 * any difference isolates the snapshot/restore cycle itself.
 */
TEST(ServerSnapshot, RestoredServeMatchesContinuousServe)
{
    const auto wl = smallWorkload(7);
    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    for (const bool enhanced : {false, true}) {
        SCOPED_TRACE(enhanced ? "enhanced" : "base");

        // Continuous reference: warm, reconfigure in place, serve.
        const auto mc_base = serverMachine(false, true);
        workload::Workbench wb(wl, mc_base, prog);
        os::Server cont(wb, multiCore(mc_base),
                        smallServer(Warm, Churn));
        while (cont.stats().requestsServed < Warm) {
            if (cont.runRounds(16))
                break;
        }
        const auto state = cont.snapshot();
        cont.reconfigure(serverMachine(enhanced, true));
        cont.resetMeasurement(/*shard=*/0, Measured);
        cont.run();
        const auto reference = collect(cont);

        // Restored run from the same checkpoint.
        const auto restored =
            serveRestored(wl, prog, state, enhanced, true);

        expectServerEqual(reference.server, restored.server);
        expectKernelEqual(reference.kernel, restored.kernel);
        EXPECT_EQ(reference.latency, restored.latency);
        EXPECT_EQ(reference.generations, restored.generations);
        EXPECT_EQ(reference.coherenceFlushes,
                  restored.coherenceFlushes);
        EXPECT_EQ(reference.json, restored.json);
        // In-flight warm requests straddle the measurement cut, so
        // the served count lands a deterministic handful around
        // the nominal budget.
        EXPECT_NEAR(
            static_cast<double>(reference.server.requestsServed),
            static_cast<double>(Measured), 3.0);
    }
}

/**
 * Contract 2: the merged fan-out outcome is identical for any
 * JobRunner width and either dispatch engine.
 */
/**
 * Restored, a server is the warm one: saved again before it serves,
 * it gives the checkpoint's bytes. Its cores' caches were allocated
 * without zero-filling (the Workbench is a restore target), so a way
 * or MRU entry the restore did not write would show here.
 */
TEST(ServerSnapshot, RestoredServerSavesTheSourceBytes)
{
    const auto wl = smallWorkload(7);
    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    const auto state = warmCheckpoint(wl, prog);
    const auto mc_base = serverMachine(false, true);
    workload::Workbench wb(wl, mc_base, prog, /*for_restore=*/true);
    ASSERT_TRUE(wb.awaitingRestore());
    os::Server server(wb, multiCore(mc_base),
                      smallServer(Warm, Churn), state.data(),
                      state.size());
    EXPECT_FALSE(wb.awaitingRestore());
    EXPECT_EQ(server.snapshot(), state);
}

TEST(ServerSnapshot, FanOutIdenticalAcrossJobsAndBlocks)
{
    const auto wl = smallWorkload(7);
    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    const auto state = warmCheckpoint(wl, prog);

    const auto grid = [&](unsigned jobs,
                          bool blocks) -> std::vector<std::string> {
        std::vector<std::function<Outcome()>> work;
        for (const bool enhanced : {false, true}) {
            for (std::uint32_t shard = 0; shard < 2; ++shard) {
                work.push_back([&, enhanced, shard] {
                    return serveRestored(wl, prog, state,
                                         enhanced, blocks, {},
                                         shard, Measured / 2);
                });
            }
        }
        sim::JobRunner runner(jobs);
        auto outcomes = runner.run(std::move(work));
        std::vector<std::string> docs;
        for (const auto &o : outcomes)
            docs.push_back(o.json);
        return docs;
    };

    const auto serial = grid(1, true);
    const auto threaded = grid(3, true);
    const auto interp = grid(2, false);
    EXPECT_EQ(serial, threaded);
    EXPECT_EQ(serial, interp);
}

/**
 * Contract 3: on the base machine every kernel and server counter
 * of a sampled run equals the exact run's — scheduling depends
 * only on retired-instruction budgets, which functional
 * fast-forward preserves. Latency percentiles are extrapolated;
 * they must land within the coarse bound docs/performance.md §8
 * documents for this regime (cycle-per-instruction variation
 * across phases).
 */
TEST(ServerSampled, KernelAndServerCountersExactOnBase)
{
    const auto wl = smallWorkload(7);
    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    const auto state = warmCheckpoint(wl, prog);

    const auto exact =
        serveRestored(wl, prog, state, false, true);

    sim::SampleParams sp;
    std::string err;
    ASSERT_TRUE(
        sim::SampleParams::parse("300:1500:6000", sp, &err))
        << err;
    const auto sampled =
        serveRestored(wl, prog, state, false, true, sp);

    expectServerEqual(exact.server, sampled.server);
    expectKernelEqual(exact.kernel, sampled.kernel);
    EXPECT_EQ(exact.generations, sampled.generations);
    EXPECT_EQ(exact.latency.size(), sampled.latency.size());

    // Latency error bound: extrapolation at this tiny scale stays
    // within 35% on the median (documented, deliberately coarse —
    // the bench measures the real error at full scale).
    stats::SampleSet e, s;
    for (const double v : exact.latency)
        e.add(v);
    for (const double v : sampled.latency)
        s.add(v);
    const double p50e = e.percentile(50.0);
    const double p50s = s.percentile(50.0);
    ASSERT_GT(p50e, 0.0);
    EXPECT_LT(std::abs(p50s - p50e) / p50e, 0.35);
}

/**
 * Sampled mode on the enhanced machine: the ABTB-elision
 * perturbation means only request/churn accounting is contractual
 * (docs/performance.md §8); it must still serve every request and
 * reload tenants on schedule.
 */
TEST(ServerSampled, EnhancedArmServesExactRequestCount)
{
    const auto wl = smallWorkload(7);
    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    const auto state = warmCheckpoint(wl, prog);

    const auto exact =
        serveRestored(wl, prog, state, true, true);

    sim::SampleParams sp;
    std::string err;
    ASSERT_TRUE(
        sim::SampleParams::parse("300:1500:6000", sp, &err))
        << err;
    const auto sampled =
        serveRestored(wl, prog, state, true, true, sp);

    EXPECT_EQ(exact.server.requestsServed,
              sampled.server.requestsServed);
    EXPECT_EQ(exact.server.tenantChurns,
              sampled.server.tenantChurns);
    EXPECT_EQ(exact.generations, sampled.generations);
    EXPECT_EQ(exact.latency.size(), sampled.latency.size());
}

/**
 * Shard reseeding: different shards from one checkpoint produce
 * different request streams (the whole point of the fan-out), yet
 * each serves its exact budget.
 */
TEST(ServerSnapshot, ShardsAreIndependentStreams)
{
    const auto wl = smallWorkload(7);
    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    const auto state = warmCheckpoint(wl, prog);

    const auto s0 =
        serveRestored(wl, prog, state, false, true, {}, 0);
    const auto s1 =
        serveRestored(wl, prog, state, false, true, {}, 1);
    EXPECT_NEAR(static_cast<double>(s0.server.requestsServed),
                static_cast<double>(Measured), 3.0);
    EXPECT_EQ(s0.server.requestsServed, s1.server.requestsServed);
    EXPECT_NE(s0.latency, s1.latency);
}

/**
 * Regression: TrampolineSkipUnit::clearStats() must reset the
 * structure-level counters too. It used to reset only its own
 * SkipUnitStats, leaving the Abtb hit/miss/eviction/flush counters
 * and the bloom filter's insertion count accumulating across
 * measurement boundaries — so every post-warmup `<prefix>.abtb.*`
 * and `<prefix>.bloom.insertions` metric silently included warmup
 * work, and the flush-accounting invariant
 * (abtb.flushes == sum of per-cause flush stats) broke after the
 * first resetMeasurement.
 */
TEST(ServerSampled, ClearStatsResetsStructureCounters)
{
    const auto wl = smallWorkload(7);
    workload::MachineConfig mc = serverMachine(true, true);
    workload::Workbench wb(wl, mc);

    // Warm until the skip unit has really engaged: population,
    // hits, and at least one store flush (the app rewrites hot
    // data, and lazy binding writes GOT entries).
    for (int i = 0; i < 120; ++i)
        wb.runRequest();
    const auto *unit = wb.core().skipUnit();
    ASSERT_NE(unit, nullptr);
    ASSERT_GT(unit->abtb().hits(), 0u);
    ASSERT_GT(unit->bloom().insertions(), 0u);
    ASSERT_GT(unit->abtb().flushes(), 0u);

    // The measurement boundary (what Server::resetMeasurement and
    // Workbench::warmup perform).
    wb.core().clearStats();
    EXPECT_EQ(unit->abtb().hits(), 0u);
    EXPECT_EQ(unit->abtb().lookups(), 0u);
    EXPECT_EQ(unit->abtb().inserts(), 0u);
    EXPECT_EQ(unit->abtb().evictions(), 0u);
    EXPECT_EQ(unit->abtb().flushes(), 0u);
    EXPECT_EQ(unit->bloom().insertions(), 0u);

    // Post-boundary accounting is self-consistent: the structure's
    // flush counter equals the per-cause stats breakdown. Under the
    // old bug abtb.flushes() kept its pre-boundary value (> 0 here)
    // while the per-cause stats restarted at zero, so this equality
    // is exactly what broke. (A quiesced steady-state run may add
    // zero new flushes — both sides must then read zero.)
    for (int i = 0; i < 120; ++i)
        wb.runRequest();
    EXPECT_GT(unit->abtb().hits(), 0u);
    const auto s = unit->stats();
    EXPECT_EQ(unit->abtb().flushes(),
              s.storeFlushes + s.coherenceFlushes +
                  s.contextSwitchFlushes + s.explicitFlushes);
}

/**
 * Pinned outputs of one sampled serve on the enhanced arm, asserted
 * against recorded values. The other sampled cases compare against
 * an exact run of the same build; this one fails if a change to the
 * sampler shifts the extrapolated cycles, the fast-forward resolver
 * traffic, the window count or the latency distribution.
 */
TEST(ServerSampled, PinnedOutputsOnEnhanced)
{
    const auto wl = smallWorkload(7);
    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    const auto state = warmCheckpoint(wl, prog);

    sim::SampleParams sp;
    ASSERT_TRUE(sim::SampleParams::parse("300:1500:6000", sp));
    const auto mc_base = serverMachine(false, true);
    workload::Workbench wb(wl, mc_base, prog, /*for_restore=*/true);
    os::Server server(wb, multiCore(mc_base), smallServer(Warm, Churn),
                      state.data(), state.size());
    server.reconfigure(serverMachine(true, true));
    server.resetMeasurement(0, Measured);
    server.setSampling(sp);
    server.run();

    ASSERT_NE(server.sampler(), nullptr);
    const auto &ss = server.sampler()->stats();
    EXPECT_EQ(server.stats().requestsServed, 89u);
    EXPECT_EQ(ss.extrapolatedCycles(), 621652.38910389994);
    EXPECT_EQ(ss.ffResolverTraps, 13u);
    EXPECT_EQ(ss.windows, 8u);
    EXPECT_EQ(server.latency().percentile(50.0), 8518.0);
    EXPECT_EQ(server.latency().percentile(99.0), 644308.0);
}
