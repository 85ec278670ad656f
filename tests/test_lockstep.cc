/**
 * @file
 * Tentpole tests for the lockstep architectural oracle: clean runs
 * stay in lockstep on both PLT styles and all invalidation arms, the
 * oracle's divergence reports carry full forensic context, and a
 * deliberately injected flush-suppression bug is caught.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.hh"
#include "check/lockstep.hh"
#include "stats/flags.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"

using namespace dlsim;
using namespace dlsim::workload;
using namespace dlsim::check;

namespace
{

WorkloadParams
smallWorkload(std::uint64_t seed)
{
    WorkloadParams p;
    p.name = "lockstep";
    p.seed = seed;
    p.numLibs = 3;
    p.funcsPerLib = 10;
    p.requests = {{"A", 0.6, 1, 3}, {"B", 0.4, 1, 2}};
    p.stepsPerRequest = 10;
    p.calledImports = 16;
    return p;
}

/** Attach a checker and run `n` requests; return final stats. */
LockstepStats
runChecked(Workbench &wb, int n)
{
    LockstepChecker checker(wb.core());
    wb.core().setRetireObserver(&checker);
    for (int i = 0; i < n; ++i)
        wb.runRequest();
    wb.core().setRetireObserver(nullptr);
    return checker.stats();
}

} // namespace

TEST(Lockstep, CleanRunX86Lazy)
{
    MachineConfig cfg;
    cfg.enhanced = true;
    Workbench wb(smallWorkload(1), cfg);
    const auto st = runChecked(wb, 120);

    EXPECT_GT(st.checkedRetires, 1000u);
    EXPECT_GT(st.resolverReplays, 0u);
    EXPECT_GT(st.verifiedSubstitutions, 0u);
    // Every substitution the core performed was walked and verified.
    EXPECT_EQ(st.verifiedSubstitutions,
              wb.core().skipUnit()->stats().substitutions);
    // The x86 trampoline elides exactly one instruction: jmp *GOT.
    EXPECT_EQ(st.walkedInstructions, st.verifiedSubstitutions);
}

TEST(Lockstep, CleanRunArmPlt)
{
    MachineConfig cfg;
    cfg.enhanced = true;
    cfg.pltStyle = linker::PltStyle::Arm;
    Workbench wb(smallWorkload(2), cfg);
    const auto st = runChecked(wb, 120);

    EXPECT_GT(st.verifiedSubstitutions, 0u);
    EXPECT_EQ(st.verifiedSubstitutions,
              wb.core().skipUnit()->stats().substitutions);
    // ARM trampolines elide the scratch-register prologue too, so
    // each walk covers more than one instruction.
    EXPECT_GT(st.walkedInstructions,
              2 * st.verifiedSubstitutions);
}

TEST(Lockstep, CleanRunExplicitInvalidation)
{
    MachineConfig cfg;
    cfg.enhanced = true;
    cfg.explicitInvalidation = true;
    Workbench wb(smallWorkload(3), cfg);
    const auto st = runChecked(wb, 120);

    EXPECT_GT(st.verifiedSubstitutions, 0u);
    // §3.4: invalidation is the explicit AbtbFlush the resolver
    // issues; no store flushes exist in this arm.
    EXPECT_EQ(wb.core().skipUnit()->stats().storeFlushes, 0u);
    EXPECT_GT(wb.core().skipUnit()->stats().explicitFlushes, 0u);
}

TEST(Lockstep, CleanRunBaseMachineNoSkipUnit)
{
    // The oracle is also valid against the unenhanced machine:
    // no substitutions, pure instruction-by-instruction lockstep.
    Workbench wb(smallWorkload(4), MachineConfig{});
    const auto st = runChecked(wb, 60);
    EXPECT_GT(st.checkedRetires, 500u);
    EXPECT_EQ(st.verifiedSubstitutions, 0u);
}

TEST(Lockstep, CleanRunApacheProfile)
{
    MachineConfig cfg;
    cfg.enhanced = true;
    Workbench wb(apacheProfile(42), cfg);
    const auto st = runChecked(wb, 40);
    EXPECT_GT(st.verifiedSubstitutions, 0u);
}

TEST(Lockstep, MultiCoreCleanUnderCoherence)
{
    FuzzCase c;
    c.seed = 301;
    c.cores = 3;
    c.requests = 8;
    c.eventsMask = EvRebind | EvGotRewriteSame;
    c.eventCount = 6;
    const auto r = runCase(c);
    EXPECT_TRUE(r.passed) << r.failure << "\nreproduce: "
                          << reproLine(r.failingCase);
    EXPECT_GT(r.stats.verifiedSubstitutions, 0u);
    EXPECT_GT(r.coherenceFlushes, 0u);
}

TEST(Lockstep, ServerChurnToFreshAddressesStaysClean)
{
    // Under ASLR each tenant generation is dlopen'd at a fresh
    // address, so its GOT writes reach checkers whose reference
    // memory has no mapping there until the churn's resync.
    FuzzCase c;
    c.seed = 68;
    c.server = true;
    c.cores = 2;
    c.tenants = 2;
    c.aslr = true;
    c.eventsMask = EvTenantChurn;
    c.eventCount = 6;
    c.requests = 9;
    c.stepsPerRequest = 13;
    c.funcsPerLib = 22;
    c.bloomBits = 64;
    c.abtbAssoc = 1;
    const auto r = runCase(c);
    EXPECT_TRUE(r.passed) << r.failure << "\nreproduce: "
                          << reproLine(r.failingCase);
}

TEST(Lockstep, KernelThreadSwitchEndsPopulationPattern)
{
    // A thread preempted right after its call into one trampoline,
    // then another thread resuming at its own trampoline's jump on
    // the same core: the pair must not populate an ABTB entry that
    // maps the first trampoline to the second one's target. With
    // explicit invalidation nothing else would ever flush it.
    FuzzCase c;
    c.seed = 44;
    c.server = true;
    c.tenants = 2;
    c.explicitInvalidation = true;
    c.bindPolicy = dlsim::linker::BindPolicy::Now;
    c.eventsMask = EvTenantChurn | EvNoiseStore;
    c.eventCount = 4;
    c.requests = 4;
    c.stepsPerRequest = 1;
    c.abtbEntries = 8;
    c.abtbAssoc = 1;
    c.bloomHashes = 3;
    c.funcsPerLib = 18;
    c.calledImports = 22;
    const auto r = runCase(c);
    EXPECT_TRUE(r.passed) << r.failure << "\nreproduce: "
                          << reproLine(r.failingCase);
    EXPECT_GT(r.stats.verifiedSubstitutions, 0u);
}

TEST(Lockstep, ExternalRewritesStayClean)
{
    FuzzCase c;
    c.seed = 302;
    c.requests = 12;
    c.eventsMask = EvRebind | EvGotRewriteSame | EvNoiseStore |
                   EvContextSwitch | EvSpuriousFlush;
    c.eventCount = 12;
    const auto r = runCase(c);
    EXPECT_TRUE(r.passed) << r.failure << "\nreproduce: "
                          << reproLine(r.failingCase);
    EXPECT_GT(r.stats.externalWrites, 0u);
}

TEST(Lockstep, InjectedFlushSuppressionIsCaught)
{
    // The acceptance demo: suppress the §3.2 bloom-hit store flush
    // (a broken invalidation path) and prove the harness sees the
    // resulting stale substitution as an architectural divergence.
    FuzzCase c;
    c.seed = 7001;
    c.requests = 14;
    c.eventsMask = EvRebind;
    c.eventCount = 10;
    c.numLibs = 2;
    c.funcsPerLib = 8;
    c.calledImports = 6;
    c.injectFlushSuppression = true;

    const auto caught = runCase(c);
    ASSERT_FALSE(caught.passed)
        << "oracle missed the injected flush-suppression bug";
    EXPECT_NE(caught.failure.find("lockstep divergence"),
              std::string::npos)
        << caught.failure;

    // The same configuration without the bug is clean.
    FuzzCase clean = c;
    clean.injectFlushSuppression = false;
    const auto ok = runCase(clean);
    EXPECT_TRUE(ok.passed) << ok.failure;
    EXPECT_GT(ok.stats.verifiedSubstitutions, 0u);
}

TEST(Lockstep, DivergenceReportCarriesFullContext)
{
    FuzzCase c;
    c.seed = 7001;
    c.requests = 14;
    c.eventsMask = EvRebind;
    c.eventCount = 10;
    c.numLibs = 2;
    c.funcsPerLib = 8;
    c.calledImports = 6;
    c.injectFlushSuppression = true;

    const auto r = runCase(c);
    ASSERT_FALSE(r.passed);
    // Cycle, retire index, pc, disassembly, and the skip-unit dump
    // must all be present for post-mortem debugging.
    EXPECT_NE(r.failure.find("at cycle"), std::string::npos)
        << r.failure;
    EXPECT_NE(r.failure.find("retired instruction"),
              std::string::npos);
    EXPECT_NE(r.failure.find("inst:"), std::string::npos);
    EXPECT_NE(r.failure.find("abtb:"), std::string::npos);
    EXPECT_NE(r.failure.find("INJECTED-BUG"), std::string::npos)
        << "skip-unit dump should flag the armed fault injection";
}

TEST(Lockstep, ShrinkerReducesFailingCase)
{
    FuzzCase c;
    c.seed = 7001;
    c.requests = 56; // Deliberately oversized.
    c.eventsMask = EvRebind;
    c.eventCount = 40;
    c.numLibs = 4;
    c.funcsPerLib = 16;
    c.calledImports = 12;
    c.injectFlushSuppression = true;
    ASSERT_FALSE(runCase(c).passed);

    std::string why;
    const auto small = shrinkCase(c, 48, &why);
    EXPECT_FALSE(runCase(small).passed)
        << "shrunk case must still fail";
    EXPECT_LT(small.requests, c.requests);
    EXPECT_LT(small.eventCount, c.eventCount);
    EXPECT_TRUE(small.injectFlushSuppression)
        << "shrinking must never remove the fault injection";
    EXPECT_FALSE(why.empty());
    // The repro line round-trips every field that matters.
    EXPECT_NE(reproLine(small).find("--inject-bug-config"),
              std::string::npos);
}

/** Parse a repro line back through the shared FuzzCase flag table. */
FuzzCase
parseRepro(const std::string &line)
{
    std::istringstream words(line);
    const std::vector<std::string> args{
        std::istream_iterator<std::string>(words), {}};
    std::vector<const char *> argv;
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    FuzzCase c;
    stats::FlagTable flags("dlsim_fuzz");
    addCaseFlags(flags, c);
    EXPECT_TRUE(
        flags.parse(static_cast<int>(argv.size()), argv.data()).empty());
    return c;
}

TEST(Lockstep, ReproLineRoundTrips)
{
    // Every smoke archetype and a range of seeded cases: the printed
    // command line must parse back into the case it came from.
    std::vector<FuzzCase> cases = smokeCases();
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        cases.push_back(caseFromSeed(seed));
    for (const FuzzCase &c : cases) {
        const std::string line = reproLine(c);
        const FuzzCase parsed = parseRepro(line);
        EXPECT_EQ(reproLine(parsed), line);
        EXPECT_TRUE(parsed == c) << line;
    }
}
