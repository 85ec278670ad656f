/**
 * @file
 * dlsim_fuzz: adversarial fuzzer for the ABTB correctness contract.
 *
 * Every case runs the workload under the LockstepChecker oracle
 * (src/check): a functional reference core re-executes the retired
 * stream and any architectural divergence, stale substitution, or
 * flush-accounting violation fails the case.
 *
 * Modes:
 *   dlsim_fuzz --smoke
 *       Run the deterministic smoke corpus (hand-picked archetypes +
 *       seeded cases) and assert the corpus actually exercised the
 *       mechanism (substitutions, store/coherence flushes > 0).
 *   dlsim_fuzz --inject-bug
 *       Demo: enable the buggySuppressStoreFlush fault injection and
 *       verify the oracle catches it; then verify the same case is
 *       clean without the bug. Exits 0 iff both hold.
 *   dlsim_fuzz --seeds A:B [--shrink-budget N]
 *       Fuzz seeds A..B via caseFromSeed. On failure, greedily
 *       shrink and print a replayable command line.
 *   dlsim_fuzz [case flags]
 *       Replay a single case (the command line printed on failure;
 *       `dlsim_fuzz --help` lists the flags).
 */

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>

#include "check/fuzz.hh"

namespace
{

using dlsim::check::FuzzCase;
using dlsim::check::FuzzResult;

void
printResult(const FuzzCase &c, const FuzzResult &r)
{
    std::cout << "case: " << dlsim::check::reproLine(c) << "\n"
              << "  " << (r.passed ? "PASS" : "FAIL") << "\n"
              << "  checked retires      " << r.stats.checkedRetires
              << "\n"
              << "  verified skips       "
              << r.stats.verifiedSubstitutions << "\n"
              << "  resolver replays     " << r.stats.resolverReplays
              << "\n"
              << "  walked insts         "
              << r.stats.walkedInstructions << "\n"
              << "  external writes      " << r.stats.externalWrites
              << "\n"
              << "  substitutions        " << r.substitutions << "\n"
              << "  store flushes        " << r.storeFlushes << "\n"
              << "  coherence flushes    " << r.coherenceFlushes
              << "\n"
              << "  ctx-switch flushes   " << r.contextSwitchFlushes
              << "\n"
              << "  explicit flushes     " << r.explicitFlushes
              << "\n";
    if (!r.passed)
        std::cout << r.failure << "\n";
}

int
runSmoke()
{
    const auto cases = dlsim::check::smokeCases();
    FuzzResult agg;
    int failures = 0;
    for (const auto &c : cases) {
        const auto r = dlsim::check::runCase(c);
        if (!r.passed) {
            ++failures;
            std::cerr << "smoke FAIL: "
                      << dlsim::check::reproLine(c) << "\n"
                      << r.failure << "\n";
        }
        agg.stats.checkedRetires += r.stats.checkedRetires;
        agg.stats.verifiedSubstitutions +=
            r.stats.verifiedSubstitutions;
        agg.stats.resolverReplays += r.stats.resolverReplays;
        agg.stats.externalWrites += r.stats.externalWrites;
        agg.stats.walkedInstructions += r.stats.walkedInstructions;
        agg.substitutions += r.substitutions;
        agg.storeFlushes += r.storeFlushes;
        agg.coherenceFlushes += r.coherenceFlushes;
        agg.contextSwitchFlushes += r.contextSwitchFlushes;
        agg.explicitFlushes += r.explicitFlushes;
    }

    std::cout << "smoke corpus: " << cases.size() << " cases, "
              << failures << " failures\n"
              << "  checked retires      "
              << agg.stats.checkedRetires << "\n"
              << "  verified skips       "
              << agg.stats.verifiedSubstitutions << "\n"
              << "  resolver replays     "
              << agg.stats.resolverReplays << "\n"
              << "  external writes      " << agg.stats.externalWrites
              << "\n"
              << "  substitutions        " << agg.substitutions
              << "\n"
              << "  store flushes        " << agg.storeFlushes << "\n"
              << "  coherence flushes    " << agg.coherenceFlushes
              << "\n"
              << "  ctx-switch flushes   " << agg.contextSwitchFlushes
              << "\n"
              << "  explicit flushes     " << agg.explicitFlushes
              << "\n";

    if (failures)
        return 1;

    // The corpus must actually exercise the contract, or a silent
    // regression (e.g. the mechanism never engaging) would read as
    // "all clean".
    const auto require = [&](bool ok, const char *what) {
        if (!ok) {
            std::cerr << "smoke corpus too weak: " << what
                      << " is zero\n";
            ++failures;
        }
    };
    require(agg.stats.checkedRetires > 0, "checked retires");
    require(agg.stats.verifiedSubstitutions > 0, "verified skips");
    require(agg.stats.resolverReplays > 0, "resolver replays");
    require(agg.stats.externalWrites > 0, "external writes");
    require(agg.substitutions > 0, "substitutions");
    require(agg.storeFlushes > 0, "store flushes");
    require(agg.coherenceFlushes > 0, "coherence flushes");
    require(agg.contextSwitchFlushes > 0, "context-switch flushes");
    require(agg.explicitFlushes > 0, "explicit flushes");
    return failures ? 1 : 0;
}

int
runInjectBug()
{
    // A hot, small import set keeps ABTB entries live; rebind events
    // rewrite their GOT slots mid-run. With the §3.2 store flush
    // suppressed, a stale entry survives and the next substitution
    // diverges from the architectural path.
    FuzzCase c;
    c.seed = 7001;
    c.requests = 14;
    c.eventsMask = dlsim::check::EvRebind;
    c.eventCount = 10;
    c.numLibs = 2;
    c.funcsPerLib = 8;
    c.calledImports = 6;

    FuzzCase buggy = c;
    buggy.injectFlushSuppression = true;
    const auto caught = dlsim::check::runCase(buggy);
    if (caught.passed) {
        std::cerr << "inject-bug: oracle FAILED to catch the "
                     "suppressed store flush\n";
        printResult(buggy, caught);
        return 1;
    }
    std::cout << "inject-bug: oracle caught the planted bug:\n"
              << caught.failure << "\n";

    const auto clean = dlsim::check::runCase(c);
    if (!clean.passed) {
        std::cerr << "inject-bug: control case (no bug) FAILED:\n"
                  << clean.failure << "\n";
        return 1;
    }
    std::cout << "inject-bug: control case clean ("
              << clean.stats.verifiedSubstitutions
              << " verified skips)\n";
    return 0;
}

int
runSeeds(std::uint64_t lo, std::uint64_t hi,
         std::uint32_t shrink_budget)
{
    int failures = 0;
    for (std::uint64_t seed = lo; seed <= hi; ++seed) {
        const auto c = dlsim::check::caseFromSeed(seed);
        const auto r = dlsim::check::runCase(c);
        if (r.passed) {
            std::cout << "seed " << seed << ": PASS ("
                      << r.stats.checkedRetires << " retires, "
                      << r.stats.verifiedSubstitutions
                      << " verified skips)\n";
            continue;
        }
        ++failures;
        std::string why = r.failure;
        const auto small = dlsim::check::shrinkCase(
            r.failingCase, shrink_budget, &why);
        std::cerr << "seed " << seed << ": FAIL\n"
                  << why << "\n"
                  << "reproduce: " << dlsim::check::reproLine(small)
                  << "\n";
    }
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool inject = false;
    bool have_seeds = false;
    std::uint64_t seed_lo = 0, seed_hi = 0;
    std::uint32_t shrink_budget = 48;
    FuzzCase c;

    dlsim::stats::FlagTable flags(
        "dlsim_fuzz", "--smoke | --inject-bug | --seeds A:B "
                      "[--shrink-budget N] | [case flags]");
    flags.toggle("smoke", "run the deterministic smoke corpus", smoke)
        .toggle("inject-bug",
                "show the oracle catching a planted flush bug", inject)
        .custom("seeds", "A:B", "fuzz seeds A..B; shrink failures",
                [&](const std::string &v) {
                    const auto colon = v.find(':');
                    seed_lo = dlsim::stats::parseUnsigned(
                        v.substr(0, colon), 0, UINT64_MAX);
                    seed_hi = colon == std::string::npos
                                  ? seed_lo
                                  : dlsim::stats::parseUnsigned(
                                        v.substr(colon + 1), 0,
                                        UINT64_MAX);
                    if (seed_lo > seed_hi)
                        throw std::invalid_argument(
                            v + " is an empty range (A > B)");
                    have_seeds = true;
                })
        .integer("shrink-budget",
                 "re-runs spent shrinking a failure (default 48)",
                 shrink_budget);
    dlsim::check::addCaseFlags(flags, c);
    flags.parse(argc, argv);

    if (smoke)
        return runSmoke();
    if (inject)
        return runInjectBug();
    if (have_seeds)
        return runSeeds(seed_lo, seed_hi, shrink_budget);

    const auto r = dlsim::check::runCase(c);
    printResult(c, r);
    return r.passed ? 0 : 1;
}
