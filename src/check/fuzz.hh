/**
 * @file
 * Adversarial fuzz harness for the ABTB correctness contract.
 *
 * A FuzzCase is a fully self-describing experiment: workload shape,
 * machine configuration (PLT style, ABTB/bloom geometry, §3.4
 * explicit-invalidation arm, ASID retention), and a seeded schedule
 * of adversarial events injected between retired instructions —
 * same-value GOT rewrites, lazy-rebind storms (GOT slots reset to
 * their lazy re-entry values mid-run), external noise stores,
 * context switches, spurious explicit flushes, snapshot
 * save/restore at random retire points, and cross-core stores
 * between kernel threads on a sim::MultiCoreSystem.
 *
 * Every case runs under the LockstepChecker oracle, once with block
 * dispatch and once without; any divergence, reference fault,
 * snapshot-equivalence mismatch, metric that differs between the two
 * dispatch engines, or violation of the flush-accounting invariant
 *
 *     Abtb::flushes() == storeFlushes + coherenceFlushes
 *                        + contextSwitchFlushes + explicitFlushes
 *
 * fails the case. Failures are greedily shrunk to a minimal case and
 * reported as a replayable `dlsim_fuzz` command line.
 */

#ifndef DLSIM_CHECK_FUZZ_HH
#define DLSIM_CHECK_FUZZ_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/lockstep.hh"
#include "linker/loader.hh"
#include "stats/flags.hh"

namespace dlsim::check
{

/** Adversarial event kinds (bitmask in FuzzCase::eventsMask). */
enum FuzzEvent : std::uint32_t
{
    /** Rewrite a GOT slot with its current value (no architectural
     *  change; coherence must still be conservative-safe). */
    EvGotRewriteSame = 1u << 0,
    /** Reset a GOT slot to its lazy re-entry value: the next call
     *  must re-trap to the resolver, and any live ABTB entry backed
     *  by the slot must die (§3.2 / §3.4). */
    EvRebind = 1u << 1,
    /** External store of a random value into application data (must
     *  be architecturally visible, must not corrupt the oracle). */
    EvNoiseStore = 1u << 2,
    /** OS context switch with an alternating ASID (§3.3). */
    EvContextSwitch = 1u << 3,
    /** AbtbFlush with no preceding rebind (architectural nop). */
    EvSpuriousFlush = 1u << 4,
    /** Serialize the workbench and continue from a restore into a
     *  fresh one; single-core cases also verify byte-identical
     *  final metrics against a snapshot-free run. */
    EvSnapshot = 1u << 5,
    /** Server mode only: dlclose/dlopen a tenant plugin mid-run
     *  (deferred until quiescent when requests are in flight); the
     *  GOT resets are broadcast as §3.2 coherence traffic. */
    EvTenantChurn = 1u << 6,
    /** Demand policy only: drop every demand-paged text page
     *  (mem::AddressSpace::dropDemandTextPages) mid-run — a
     *  demand-fault storm; the refill must be architecturally
     *  invisible to the oracle. */
    EvDemandDrop = 1u << 7,
    /** Stable policy, server mode: tenant churn that additionally
     *  asserts stable-map coherence afterwards — every surviving
     *  map entry must equal a live export, and no entry may point
     *  into the dlclosed module's former range. */
    EvStableChurn = 1u << 8,
};

/** One self-describing fuzz experiment. */
struct FuzzCase
{
    std::uint64_t seed = 1;

    /** 1 = single-core driver; >1 = one os::Kernel thread per core
     *  of a sim::MultiCoreSystem. */
    std::uint32_t cores = 1;
    std::uint32_t requests = 10;

    /** Drive an os::Server (kernel scheduler + sockets + tenant
     *  plugins) instead of direct request calls: quantum-expiry
     *  context switches inside trampoline sequences, pipe-blocked
     *  thread wakeups, and EvTenantChurn dlclose storms, all under
     *  the per-core lockstep oracle. */
    bool server = false;
    /** Tenant plugin count (server mode). */
    std::uint32_t tenants = 2;
    /**
     * Server mode only: W:D:F sample spec for a sampled twin run.
     * The case runs exact first, then again with
     * Server::setSampling — same schedule, same events, lockstep
     * oracle attached throughout (it verifies the detailed windows
     * and resyncs across each fast-forward). The twin's logical
     * server counters (requests served, tenant churns, GOT resets,
     * deferred churns) must equal exact mode; when the machine has
     * no trampoline elision (baseMachine) every kernel counter must
     * too — scheduling consumes identical instruction budgets
     * either way (see sim::Sampler).
     */
    std::string sample;
    /** Disable the §3 skip unit (MachineConfig::enhanced = false):
     *  the no-elision arm, where sampled scheduling is exact. */
    bool baseMachine = false;

    /** FuzzEvent bitmask and number of scheduled events. */
    std::uint32_t eventsMask = 0;
    std::uint32_t eventCount = 0;

    /** Machine configuration. */
    bool explicitInvalidation = false;
    bool asidRetention = false;
    bool armPlt = false;
    linker::BindPolicy bindPolicy = linker::BindPolicy::Lazy;
    bool aslr = false;
    /**
     * Block dispatch (cpu::CoreParams::blockDispatch). Unset: the
     * case runs with blocks on and again with blocks off, both under
     * the oracle, and their core and skip-unit metrics must be
     * byte-identical. Set: that engine only — the replay of a
     * failure confined to one of them.
     */
    std::optional<bool> blocks;
    std::uint32_t abtbEntries = 256;
    std::uint32_t abtbAssoc = 4;
    std::uint32_t bloomBits = 1024;
    std::uint32_t bloomHashes = 4;

    /** Workload shape. */
    std::uint32_t numLibs = 4;
    std::uint32_t funcsPerLib = 16;
    std::uint32_t calledImports = 24;
    std::uint32_t stepsPerRequest = 12;

    /** Fault injection: suppress the §3.2 store flush, proving the
     *  oracle catches a broken invalidation path. */
    bool injectFlushSuppression = false;

    bool operator==(const FuzzCase &) const = default;
};

/** Outcome of one case (or one shrunk failure). */
struct FuzzResult
{
    bool passed = true;
    /** Divergence / invariant report of the first failure. */
    std::string failure;
    /** The case that failed (after shrinking, when requested). */
    FuzzCase failingCase;

    /** Aggregate oracle work (summed over cores and sub-runs). */
    LockstepStats stats;
    /** Aggregate mechanism activity (summed over cores). */
    std::uint64_t substitutions = 0;
    std::uint64_t storeFlushes = 0;
    std::uint64_t coherenceFlushes = 0;
    std::uint64_t contextSwitchFlushes = 0;
    std::uint64_t explicitFlushes = 0;
};

/** Derive a randomized case from a seed (the fuzzing frontier). */
FuzzCase caseFromSeed(std::uint64_t seed);

/**
 * Declare every FuzzCase field as a flag of `flags`, bound to `c`:
 * the one field<->flag mapping that dlsim_fuzz parses and reproLine
 * renders.
 */
void addCaseFlags(stats::FlagTable &flags, FuzzCase &c);

/** Replayable `dlsim_fuzz` command line reproducing `c`. */
std::string reproLine(const FuzzCase &c);

/** Run one case under the oracle. Never throws; failures land in
 *  FuzzResult::failure. */
FuzzResult runCase(const FuzzCase &c);

/**
 * Greedily shrink a failing case: repeatedly try halving counts and
 * clearing flags, keeping any mutation that still fails, within a
 * budget of `maxRuns` re-executions. @return The smallest failing
 * case found (at worst `c` itself), with *failure set to its report.
 */
FuzzCase shrinkCase(const FuzzCase &c, std::uint32_t maxRuns,
                    std::string *failure);

/** The deterministic --smoke corpus: hand-picked archetypes (both
 *  PLT styles, §3.4 arm, ASID retention, rebind storms, multicore,
 *  snapshot round-trips, undersized bloom, OS-server tenant churn)
 *  plus seeded cases. */
std::vector<FuzzCase> smokeCases();

} // namespace dlsim::check

#endif // DLSIM_CHECK_FUZZ_HH
