/**
 * @file
 * SMARTS-style sampled simulation: one phase machine over N cores.
 *
 * Detailed timing simulation (cpu::Core) costs an order of
 * magnitude more host time per instruction than functional
 * execution. The paper's results only need detailed timing in
 * short, periodic windows, so a sampled run alternates three
 * phases over the retired-instruction stream:
 *
 *   warmup (W insts)   detailed execution, *not* counted into the
 *                      CPI estimate — it re-warms caches, TLBs and
 *                      predictors after a functional gap;
 *   detail (D insts)   detailed execution, measured — these windows
 *                      produce the CPI used for extrapolation;
 *   fast-forward (F)   functional execution on a check::RefCore
 *                      bound directly to the process image: no
 *                      timing, no cache/BTB/ABTB probes, but every
 *                      architectural effect is real — GOT writes,
 *                      resolver traps (serviced functionally, with
 *                      the skip unit snooping the GOT store exactly
 *                      as the architectural data path would), and
 *                      stores all land in the live address space.
 *
 * One Sampler implements this for any number of cores: the phase
 * machine runs over the combined instruction stream of all of
 * them. workload::Workbench drives it with N = 1, request by
 * request; os::Kernel drives it with the N cores of a
 * MultiCoreSystem, slice by slice. The phase machine persists
 * across requests and slices, so the sample grid is laid over the
 * whole run. Cycle counts for fast-forwarded instructions are
 * extrapolated from the measured CPI of completed detail windows;
 * instruction counts are exact up to trampoline elision (the
 * functional engine executes the PLT jumps the enhanced machine's
 * ABTB would skip).
 *
 * Exact mode is untouched: sampling only exists on a Workbench or
 * Server that explicitly called setSampling (BenchArgs
 * --sample W:D:F, default off), and every golden/determinism
 * contract is stated for exact mode.
 */

#ifndef DLSIM_SIM_SAMPLED_HH
#define DLSIM_SIM_SAMPLED_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/ref_core.hh"
#include "cpu/core.hh"
#include "linker/dynamic_linker.hh"
#include "linker/image.hh"
#include "sim/multicore.hh"

namespace dlsim::stats
{
class MetricsRegistry;
}

namespace dlsim::sim
{

/** Sample-grid geometry, in retired instructions. */
struct SampleParams
{
    bool enabled = false;
    /** Detailed, unmeasured re-warm phase (may be 0). */
    std::uint64_t warmup = 2000;
    /** Detailed, measured window (>= 1). */
    std::uint64_t detail = 10000;
    /** Functional fast-forward phase (>= 1). */
    std::uint64_t fastforward = 100000;

    /**
     * Parse a "W:D:F" spec (decimal instruction counts; D and F
     * must be >= 1). On success fills `out` with enabled=true and
     * returns true; on failure returns false with a diagnostic in
     * `*error` (if non-null) and leaves `out` untouched.
     */
    static bool parse(const std::string &spec, SampleParams &out,
                      std::string *error = nullptr);

    /** The "W:D:F" form of this geometry. */
    std::string spec() const;
};

/** Work accounting of one sampled run (since the last clear). */
struct SampledStats
{
    /** Completed detail windows. */
    std::uint64_t windows = 0;
    /** Instructions retired in detail windows. */
    std::uint64_t detailInsts = 0;
    /** Cycles accumulated in detail windows. */
    std::uint64_t detailCycles = 0;
    /** Instructions retired in warmup phases (detailed, unmeasured). */
    std::uint64_t warmupInsts = 0;
    /** Cycles accumulated in warmup phases. */
    std::uint64_t warmupCycles = 0;
    /** Instructions executed functionally (incl. the synthetic
     *  resolver cost, mirroring exact mode's accounting). */
    std::uint64_t ffInsts = 0;
    /** Resolver traps serviced functionally. */
    std::uint64_t ffResolverTraps = 0;

    /** Measured CPI of the detail windows (1.0 until one exists). */
    double cpi() const
    {
        return detailInsts == 0
                   ? 1.0
                   : static_cast<double>(detailCycles) /
                         static_cast<double>(detailInsts);
    }

    std::uint64_t totalInsts() const
    {
        return detailInsts + warmupInsts + ffInsts;
    }

    /** Fraction of instructions executed with detailed timing. */
    double coverage() const
    {
        const auto total = totalInsts();
        return total == 0 ? 1.0
                          : static_cast<double>(detailInsts +
                                                warmupInsts) /
                                static_cast<double>(total);
    }

    /** Measured cycles plus CPI-extrapolated fast-forward cycles. */
    double extrapolatedCycles() const
    {
        return static_cast<double>(detailCycles + warmupCycles) +
               static_cast<double>(ffInsts) * cpi();
    }
};

/**
 * The sampler: one W:D:F phase machine over the combined retired-
 * instruction stream of its cores, plus one direct-memory RefCore
 * per core for the fast-forward phases. It never runs a detailed
 * instruction itself; its client does, and decides how long each
 * slice may be:
 *
 *   while the call has not returned:
 *     if inFastForward(): runFunctionalSlice(core, max_insts)
 *     else:               Core::runQuantum(n); noteDetailed(...)
 *
 * workload::Workbench is the one-core client. It bounds each
 * detailed quantum by the phase budget (phaseLeft()), and rounds a
 * request's fast-forward cycles once, when the request returns
 * (ffCycles over the request's fast-forwarded instructions).
 *
 * os::Kernel is the N-core client. It keeps its scheduling quantum,
 * so a slice may straddle a phase flip. It rounds per slice. Either
 * executor charges the same scheduling budget for the same
 * architectural work, so on a machine without trampoline elision
 * every scheduling decision (dispatch order, preemptions, blocking,
 * wakeups, churn points) is byte-identical to the exact-mode run;
 * only cycle timing is extrapolated. With an ABTB, elision makes
 * detailed windows retire fewer instructions than functional
 * execution of the same code, so quantum boundaries shift; logical
 * server counters remain exact, micro-counters are approximate.
 *
 * Resolver traps inside a fast-forward phase are serviced
 * architecturally: the GOT store lands in the live address space
 * and the executing core's skip unit retires it. A sampler built
 * over a MultiCoreSystem also snoops the store onto every sibling
 * (MultiCoreSystem::snoopStore), so tenant churn and lazy
 * rebinding behave exactly as in exact mode. Ordinary
 * fast-forwarded data stores are not snooped per store (they land
 * in the shared address space directly); the only effect lost is
 * timing-side cache invalidations and conservative bloom-filter
 * false-positive flushes, never a stale skip.
 */
class Sampler
{
  public:
    /** Sample one core (no siblings, nothing to snoop). */
    Sampler(cpu::Core &core, linker::Image &image,
            linker::DynamicLinker &linker, const SampleParams &params);
    /** Sample every core of `sys`. */
    Sampler(MultiCoreSystem &sys, linker::Image &image,
            linker::DynamicLinker &linker, const SampleParams &params);

    /** True while the phase machine is in a fast-forward phase —
     *  the client should run functional slices. */
    bool inFastForward() const
    {
        return phase_ == Phase::FastForward;
    }

    /** Instructions left in the current phase. */
    std::uint64_t phaseLeft() const { return phaseLeft_; }

    /** One functional slice's outcome. */
    struct FfSlice
    {
        /** Instructions executed (incl. synthetic resolver cost). */
        std::uint64_t insts = 0;
        /** The in-progress call returned (or the machine halted). */
        bool done = false;
    };

    /**
     * Run core `core`'s in-progress call functionally for at most
     * `max_insts` instructions or until the current fast-forward
     * phase's budget is spent, whichever is smaller. Syncs register
     * state core -> RefCore on entry and back on exit, services
     * resolver traps architecturally (one reached as `max_insts`
     * lapses is left for the next slice, as in runQuantum), and
     * resyncs every attached retire observer (fast-forwarded stores
     * landed in the shared address space behind their forks' backs).
     */
    FfSlice runFunctionalSlice(std::uint32_t core,
                               std::uint64_t max_insts);

    /**
     * Account a detailed slice (runQuantum on any core) into the
     * phase machine: warmup/detail consumption, CPI measurement,
     * and the Warmup -> Detail -> FastForward transitions.
     */
    void noteDetailed(std::uint64_t insts, std::uint64_t cycles);

    /** Cycle cost of `insts` fast-forwarded instructions at the
     *  measured CPI, rounded to the nearest cycle. */
    std::uint64_t ffCycles(std::uint64_t insts) const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(insts) * stats_.cpi() + 0.5);
    }

    const SampleParams &params() const { return params_; }
    const SampledStats &stats() const { return stats_; }

    /** Zero the stats (phase machine keeps its position). */
    void clearStats() { stats_ = SampledStats{}; }

    /**
     * Register `<prefix>.sampled.*`: the sample-grid work split,
     * measured CPI, coverage, and the extrapolated totals. Only
     * sampled runs carry these keys — exact-mode documents (and the
     * metrics golden) are unchanged.
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

  private:
    Sampler(std::vector<cpu::Core *> cores, MultiCoreSystem *sys,
            linker::Image &image, linker::DynamicLinker &linker,
            const SampleParams &params);

    std::uint64_t serviceResolverFunctional(std::uint32_t core);
    void enterDetailedPhase();

    enum class Phase
    {
        Warmup,
        Detail,
        FastForward
    };

    std::vector<cpu::Core *> cores_;
    /** Set when the cores are a MultiCoreSystem's: resolver GOT
     *  stores are snooped onto the siblings. */
    MultiCoreSystem *sys_;
    linker::DynamicLinker &linker_;
    std::vector<std::unique_ptr<check::RefCore>> refs_;
    SampleParams params_;
    SampledStats stats_;
    Phase phase_ = Phase::Warmup;
    std::uint64_t phaseLeft_ = 0;
};

} // namespace dlsim::sim

#endif // DLSIM_SIM_SAMPLED_HH
