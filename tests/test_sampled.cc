/**
 * @file
 * Tests for sim::Sampler with the Workbench as its one-core client:
 * spec parsing, the off-by-default guarantee (disabled sampling is
 * the exact path, byte for byte), accuracy of the extrapolated
 * metrics against exact simulation on the paper's steady-state
 * profiles, determinism, pinned outputs, and the lockstep oracle
 * across fast-forward/detail boundaries.
 */

#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "check/lockstep.hh"
#include "common.hh"
#include "sim/sampled.hh"
#include "workload/profiles.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

/** Sampled-mode parameters small enough that the short test grids
 *  still cross many window boundaries. */
sim::SampleParams
testSample()
{
    sim::SampleParams sp;
    sp.enabled = true;
    sp.warmup = 500;
    sp.detail = 2500;
    sp.fastforward = 7500;
    return sp;
}

std::string
renderJson(const ArmResult &arm, const char *name)
{
    stats::MetricsDocument doc("test_sampled");
    doc.addRun(name).registry = arm.registry;
    return doc.toJson();
}

double
skipRate(const cpu::PerfCounters &c)
{
    const double den = static_cast<double>(c.trampolineJmps +
                                           c.skippedTrampolines);
    return den == 0.0 ? 0.0 : c.skippedTrampolines / den;
}

double
gauge(const ArmResult &arm, const std::string &name)
{
    const auto *m = arm.registry.find(name);
    return m ? m->gauge : 0.0;
}

} // namespace

TEST(SampleParams, ParsesWellFormedSpecs)
{
    sim::SampleParams sp;
    ASSERT_TRUE(sim::SampleParams::parse("100:2000:30000", sp));
    EXPECT_TRUE(sp.enabled);
    EXPECT_EQ(sp.warmup, 100u);
    EXPECT_EQ(sp.detail, 2000u);
    EXPECT_EQ(sp.fastforward, 30000u);
    EXPECT_EQ(sp.spec(), "100:2000:30000");

    // Zero warmup is legal: the first window starts in detail.
    ASSERT_TRUE(sim::SampleParams::parse("0:1:1", sp));
    EXPECT_EQ(sp.warmup, 0u);
}

TEST(SampleParams, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "",          "10",        "10:20",     "10:20:30:40",
        "a:20:30",   "10:b:30",   "10:20:c",   "10::30",
        "-1:20:30",  "10:0:30",   "10:20:0",   " 10:20:30",
    };
    for (const char *spec : bad) {
        sim::SampleParams sp;
        std::string error;
        EXPECT_FALSE(sim::SampleParams::parse(spec, sp, &error))
            << "spec '" << spec << "' should be rejected";
        EXPECT_FALSE(error.empty()) << spec;
        EXPECT_FALSE(sp.enabled) << spec;
    }
}

TEST(Sampled, DisabledSamplingIsTheExactPath)
{
    const auto wl = workload::apacheProfile();
    const auto mc = enhancedMachine();
    const auto exact = runArm(wl, mc, 10, 20);
    // Explicitly-disabled params must take the identical path.
    const auto off = runArm(wl, mc, 10, 20, sim::SampleParams{});
    EXPECT_EQ(renderJson(exact, "arm"), renderJson(off, "arm"));
    EXPECT_EQ(exact.counters.cycles, off.counters.cycles);
    EXPECT_EQ(exact.counters.instructions,
              off.counters.instructions);
    EXPECT_FALSE(off.registry.has("dlsim.sampled.windows"));
}

TEST(Sampled, SampledRunsAreDeterministic)
{
    const auto wl = workload::memcachedProfile();
    const auto a = runArm(wl, enhancedMachine(), 10, 20,
                          testSample());
    const auto b = runArm(wl, enhancedMachine(), 10, 20,
                          testSample());
    EXPECT_EQ(renderJson(a, "arm"), renderJson(b, "arm"));
}

TEST(Sampled, ExtrapolationTracksExactOnSteadyStateProfiles)
{
    // Tolerances: sampling is an estimator, not an oracle. IPC
    // extrapolates detail-window CPI over fast-forwarded
    // instructions; the instruction streams themselves differ
    // slightly because fast-forward executes the PLT jumps the
    // ABTB elides in exact enhanced mode.
    constexpr double kIpcRelTol = 0.25;
    constexpr double kInstRelTol = 0.10;
    constexpr double kSkipAbsTol = 0.15;

    for (const char *name :
         {"apache", "firefox", "memcached", "mysql"}) {
        SCOPED_TRACE(name);
        const auto wl = workload::profileByName(name);
        const auto mc = enhancedMachine();
        const int warmup = 20, requests = 30;

        const auto exact = runArm(wl, mc, warmup, requests);
        const auto sampled =
            runArm(wl, mc, warmup, requests, testSample());

        // The run actually sampled: several windows, and a
        // non-trivial share of instructions fast-forwarded.
        EXPECT_GE(sampled.registry.counterValue(
                      "dlsim.sampled.windows"),
                  2u);
        EXPECT_GT(sampled.registry.counterValue(
                      "dlsim.sampled.ff_instructions"),
                  0u);

        const double exact_ipc = exact.counters.ipc();
        const double sampled_ipc =
            gauge(sampled, "dlsim.sampled.extrapolated_ipc");
        ASSERT_GT(exact_ipc, 0.0);
        ASSERT_GT(sampled_ipc, 0.0);
        EXPECT_LE(std::abs(sampled_ipc - exact_ipc) / exact_ipc,
                  kIpcRelTol)
            << "exact ipc " << exact_ipc << " sampled ipc "
            << sampled_ipc;

        const auto sampled_insts = sampled.registry.counterValue(
            "dlsim.sampled.total_instructions");
        const double exact_insts =
            static_cast<double>(exact.counters.instructions);
        ASSERT_GT(exact_insts, 0.0);
        EXPECT_LE(std::abs(static_cast<double>(sampled_insts) -
                           exact_insts) /
                      exact_insts,
                  kInstRelTol)
            << "exact insts " << exact.counters.instructions
            << " sampled insts " << sampled_insts;

        // ABTB effectiveness seen in the detail windows tracks the
        // exact run's steady-state skip rate.
        EXPECT_LE(std::abs(skipRate(sampled.counters) -
                           skipRate(exact.counters)),
                  kSkipAbsTol)
            << "exact skip " << skipRate(exact.counters)
            << " sampled skip " << skipRate(sampled.counters);
    }
}

TEST(Sampled, LockstepOracleHoldsAcrossPhaseBoundaries)
{
    const auto wl = workload::apacheProfile();
    workload::MachineConfig mc = enhancedMachine();
    workload::Workbench wb(wl, mc);

    sim::SampleParams sp;
    sp.enabled = true;
    sp.warmup = 200;
    sp.detail = 1000;
    sp.fastforward = 5000;
    wb.setSampling(sp);
    wb.warmup(5);

    check::LockstepChecker checker(wb.core());
    wb.core().setRetireObserver(&checker);
    for (int i = 0; i < 30; ++i)
        wb.runRequest(); // LockstepError on any divergence
    wb.core().setRetireObserver(nullptr);

    const auto &ls = checker.stats();
    EXPECT_GT(ls.checkedRetires, 0u);
    EXPECT_GT(ls.fastForwardSyncs, 0u);

    ASSERT_NE(wb.sampler(), nullptr);
    const auto &ss = wb.sampler()->stats();
    EXPECT_GE(ss.windows, 2u);
    EXPECT_GT(ss.ffInsts, 0u);
    EXPECT_GT(ss.detailInsts, 0u);
}

/**
 * Pinned outputs: one fixed profile, seed and spec, asserted against
 * recorded values. The determinism case above only compares a build
 * with itself; this one fails if a change to the sampler shifts any
 * sampled number — instruction and cycle totals, the work split, or
 * the per-request cycle estimates (whose fast-forward share is
 * rounded once per request at the CPI in effect when it returns).
 */
TEST(Sampled, PinnedOutputsOnMemcached)
{
    const auto a = runArm(workload::memcachedProfile(),
                          enhancedMachine(), 10, 20, testSample());
    const auto counter = [&](const char *name) {
        return a.registry.counterValue(std::string("dlsim.sampled.") +
                                       name);
    };
    EXPECT_EQ(a.counters.instructions, 249200u);
    EXPECT_EQ(a.counters.cycles, 613529u);
    EXPECT_EQ(counter("windows"), 83u);
    EXPECT_EQ(counter("detail_instructions"), 207500u);
    EXPECT_EQ(counter("warmup_instructions"), 41700u);
    EXPECT_EQ(counter("ff_instructions"), 622527u);
    EXPECT_EQ(counter("resolver_traps"), 7u);
    EXPECT_EQ(counter("total_instructions"), 871727u);
    EXPECT_EQ(gauge(a, "dlsim.sampled.extrapolated_cycles"),
              2180034.9418891566);

    // Per-kind request count and summed cycle estimate.
    const std::pair<std::size_t, double> expect_lat[] = {
        {19, 2089240.0}, {1, 204090.0}};
    ASSERT_EQ(a.latency.size(), 2u);
    for (std::size_t k = 0; k < a.latency.size(); ++k) {
        SCOPED_TRACE(k);
        double sum = 0.0;
        for (const double v : a.latency[k].samples())
            sum += v;
        EXPECT_EQ(a.latency[k].count(), expect_lat[k].first);
        EXPECT_EQ(sum, expect_lat[k].second);
    }
}
