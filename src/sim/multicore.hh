/**
 * @file
 * Multicore system: N cores running threads of one process (shared
 * address space), with write-invalidate coherence between the
 * cores' private caches *and their trampoline-skip units*.
 *
 * This exercises the coherence path of paper §3.2: "When the
 * processor retires a store instruction to an address that hits in
 * the bloom filter (**or an invalidation for such an address is
 * received from the coherence subsystem**), all entries in ABTB and
 * the bloom filter are cleared." When one thread's lazy resolution
 * writes a GOT slot, every other core that memoized a trampoline
 * backed by that slot must drop its ABTB — otherwise a sibling
 * thread could keep skipping into a stale target.
 *
 * The system only owns the machine: it schedules nothing. Threads
 * run on it through os::Kernel, the one scheduler, whose rounds
 * advance the cores in fixed instruction quanta on one host thread,
 * so runs are exactly reproducible.
 */

#ifndef DLSIM_SIM_MULTICORE_HH
#define DLSIM_SIM_MULTICORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "linker/dynamic_linker.hh"
#include "linker/image.hh"
#include "stats/metrics.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::sim
{

/** Multicore configuration. */
struct MultiCoreParams
{
    std::uint32_t numCores = 4;
    /** Per-thread stack bytes (stacks are carved below the
     *  process's main stack). */
    std::uint64_t stackBytes = 1 << 20;
    /** Forward stores to other cores' caches as invalidations. */
    bool cacheCoherence = true;
    cpu::CoreParams core;
};

/**
 * N cores over one shared image (threads of one process).
 */
class MultiCoreSystem
{
  public:
    /**
     * @param main_stack_top Top of the process's stack region;
     *        thread stacks are allocated downward from it.
     * @param for_restore The cores are about to be overwritten by
     *        load() (see cpu::Core::Core).
     */
    MultiCoreSystem(const MultiCoreParams &params,
                    linker::Image &image,
                    linker::DynamicLinker &linker,
                    isa::Addr main_stack_top,
                    bool for_restore = false);

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }
    cpu::Core &core(std::uint32_t i) { return *cores_[i]; }
    const cpu::Core &core(std::uint32_t i) const
    {
        return *cores_[i];
    }

    /**
     * Map one more thread stack (with a guard page) below the ones
     * already carved and return its top. os::Kernel calls this once
     * per thread.
     */
    isa::Addr allocThreadStack();

    /** Broadcast an external GOT write (e.g. dlclose) to every
     *  core's skip unit. */
    void broadcastGotWrite(isa::Addr addr);

    /**
     * Snoop a store by core `from` onto every sibling: cache-line
     * invalidation (when coherence is on), skip-unit coherence
     * invalidate, and the sibling's retire observer. This is the
     * body of the per-core store-snoop hook, exposed so a
     * functional fast-forward engine servicing a resolver trap can
     * issue the same coherence traffic the architectural data path
     * would.
     */
    void snoopStore(std::uint32_t from, isa::Addr addr);

    /**
     * §3.4 software contract on the explicit-invalidation machine:
     * ld.so ends a GOT rewrite with an AbtbFlush on every core.
     * Installed as each core's flush-all hook (so both lazy
     * resolvers reach every hart); dl operations call it directly.
     * No-op on the bloom-filter machine.
     */
    void explicitFlushAll();

    /** Total coherence flushes across all cores' skip units. */
    std::uint64_t totalCoherenceFlushes() const;

    /** Stores snooped onto sibling cores (coherence traffic). */
    std::uint64_t snoopedStores() const { return snoopedStores_; }

    /** Zero every core's statistics and the snooped-store count
     *  (cache/predictor/skip-unit *contents* are kept). */
    void clearStats();

    /**
     * Re-target every core at a sweep arm's parameters: timing
     * scalars, a cold skip unit of the arm's geometry, and the
     * block-dispatch knob. The structural-compatibility contract is
     * the caller's (Workbench::reconfigure validates it).
     */
    void reconfigure(const cpu::CoreParams &cp);

    /**
     * Checkpoint the system: every core (architectural state,
     * counters, cache/predictor/skip-unit contents) plus the
     * thread-stack allocator and snoop accounting. Emitted as
     * struct records into the caller's open section; load() expects
     * a system constructed with the identical MultiCoreParams.
     */
    void save(snapshot::Serializer &s) const;
    void load(snapshot::Deserializer &d);

    /**
     * Register the system-level view under `<prefix>.multicore.*`:
     * core count, snooped stores, and the skip-unit flush
     * causes summed across cores (paper §3.2/§3.3 accounting).
     * Gauges, so documents distinguish them from per-core counters.
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    const MultiCoreParams &params() const { return params_; }

  private:
    MultiCoreParams params_;
    linker::Image &image_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    /** Top of the next stack allocThreadStack() will carve. */
    isa::Addr nextStackTop_ = 0;
    std::uint32_t extraStacks_ = 0;
    std::uint64_t snoopedStores_ = 0;
};

} // namespace dlsim::sim

#endif // DLSIM_SIM_MULTICORE_HH
