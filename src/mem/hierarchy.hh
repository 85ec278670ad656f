/**
 * @file
 * Memory hierarchy: split L1 caches and TLBs over a unified L2/L3.
 *
 * Geometry defaults approximate the paper's testbed class of machine
 * (32KB split L1s, 12MB last-level cache). The hierarchy converts
 * each instruction fetch and data access into TLB and cache lookups
 * and reports the extra cycles the access costs, which the CPU's
 * timing model adds to the cycle count.
 */

#ifndef DLSIM_MEM_HIERARCHY_HH
#define DLSIM_MEM_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace dlsim::mem
{

/** Hierarchy geometry and latencies (cycles). */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 32 * 1024, 8, 64};
    CacheParams l1d{"l1d", 32 * 1024, 8, 64};
    CacheParams l2{"l2", 256 * 1024, 8, 64};
    CacheParams l3{"l3", 12 * 1024 * 1024, 16, 64};
    TlbParams itlb{"itlb", 64, 4};
    TlbParams dtlb{"dtlb", 64, 4};

    std::uint32_t l2Latency = 12;
    std::uint32_t l3Latency = 36;
    std::uint32_t memLatency = 220;
    std::uint32_t walkLatency = 50;

    /**
     * Next-line instruction prefetcher: on every fetch, fill the
     * following line into L1I (latency assumed hidden). Used by
     * the prefetch ablation: streaming prefetch reduces the
     * I-cache pressure of straight-line code but cannot help the
     * trampoline's non-sequential PLT/GOT accesses.
     */
    bool iPrefetchNextLine = false;
};

/** Outcome of one access through the hierarchy. */
struct AccessResult
{
    bool tlbHit = true;
    bool l1Hit = true;
    bool l2Hit = true;
    bool l3Hit = true;
    std::uint32_t extraCycles = 0;
};

/**
 * The full hierarchy. Instruction fetches go through I-TLB and L1I;
 * data accesses through D-TLB and L1D; both share L2 and L3.
 */
class Hierarchy
{
  public:
    /** @param for_restore Build the caches for a load() that
     *         overwrites them (see Cache::Cache). */
    explicit Hierarchy(const HierarchyParams &params = {},
                       bool for_restore = false);

    /** Fetch of the instruction at addr. */
    AccessResult
    fetch(Addr addr, std::uint16_t asid)
    {
        const auto res = accessThrough(itlb_, l1i_, addr, asid);
        if (params_.iPrefetchNextLine)
            l1i_.prefetch(addr + params_.l1i.lineBytes, asid);
        return res;
    }

    /**
     * Repeat-fetch fast path for the block dispatcher: the previous
     * hierarchy operation was an I-side fetch() of an address on the
     * same L1I line (same-line implies same-page whenever lineBytes
     * <= PageBytes, since lines are aligned power-of-two runs), and
     * no prefetch ran (caller must gate on !iPrefetchNextLine). A
     * repeat fetch() is then a guaranteed full hit — the line was
     * just filled or touched, and nothing between two fetches of one
     * basic block touches the I-side structures — costing exactly
     * one itlb and one l1i hit and zero extra cycles, which is
     * precisely what this performs. Byte-identical counters/LRU to
     * calling fetch() again, at a fraction of the cost.
     */
    void fetchRepeat()
    {
        itlb_.touchRepeat();
        l1i_.touchRepeat();
    }

    /** `n` repeat fetches batched; equivalent to n fetchRepeat()s
     *  (the I-side structures are untouched in between, so the
     *  intermediate ticks are unobservable). */
    void fetchRepeatN(std::uint64_t n)
    {
        itlb_.touchRepeatN(n);
        l1i_.touchRepeatN(n);
    }

    /** True when the I-side repeat pointers are usable (nothing
     *  invalidated or flushed the I structures since the last
     *  fetch). Guards the block dispatcher's terminator-fetch
     *  repeat hint. */
    bool
    fetchRepeatReady() const
    {
        return itlb_.canRepeat() && l1i_.canRepeat();
    }

    /** Data access at addr. */
    AccessResult
    data(Addr addr, std::uint16_t asid)
    {
        return accessThrough(dtlb_, l1d_, addr, asid);
    }

    /** TLB entry + L1 way a past walk resolved to; capture after a
     *  full access, re-verify later with dataRepeatAt() or
     *  fetchRepeatAt(). A default-constructed ref never verifies. */
    struct RepeatRef
    {
        Tlb::Entry *tlbEntry = nullptr;
        Cache::Way *l1Way = nullptr;
    };

    /** The slots the most recent data() resolved to. */
    RepeatRef
    dataRef()
    {
        return {dtlb_.lastEntryPtr(), l1d_.lastWayPtr()};
    }

    /** The slots the most recent fetch() resolved to. */
    RepeatRef
    fetchRef()
    {
        return {itlb_.lastEntryPtr(), l1i_.lastWayPtr()};
    }

    /**
     * Verified-touch data access, the D-side fast path: `ref` was
     * captured by dataRef() after some earlier data() walk — there
     * is NO recency precondition, unlike the fetchRepeat() family.
     * Both slots are re-verified by key compare (see
     * Tlb::entryHolds / Cache::wayHolds for why a successful
     * compare proves a real data() would be a dtlb+l1d hit landing
     * on exactly these slots); only then are both touched, in the
     * same dtlb-then-l1d order as accessThrough(). The caller must
     * additionally guarantee addr's line lies within one page
     * (lineBytes <= PageBytes — line-aligned runs can't straddle a
     * page then), since one TLB entry vouches for one page.
     * @return False — with no state touched at all — when either
     *         verification fails; the caller takes the full data()
     *         path, which is exact by definition. Either way every
     *         counter is byte-identical to always calling data().
     */
    bool
    dataRepeatAt(const RepeatRef &ref, Addr addr, std::uint16_t asid)
    {
        if (!dtlb_.entryHolds(ref.tlbEntry, addr, asid) ||
            !l1d_.wayHolds(ref.l1Way, addr, asid))
            return false;
        dtlb_.touchAt(ref.tlbEntry);
        l1d_.touchAt(ref.l1Way);
        return true;
    }

    /**
     * I-side twin of dataRepeatAt(), with one extra caller
     * obligation: fetch() also runs the next-line prefetcher when
     * enabled, which this fast path cannot reproduce, so callers
     * must gate on !iPrefetchNextLine (in addition to lineBytes <=
     * PageBytes). Same verify-both-then-touch-both structure, same
     * byte-identity argument.
     */
    bool
    fetchRepeatAt(const RepeatRef &ref, Addr addr, std::uint16_t asid)
    {
        if (!itlb_.entryHolds(ref.tlbEntry, addr, asid) ||
            !l1i_.wayHolds(ref.l1Way, addr, asid))
            return false;
        itlb_.touchAt(ref.tlbEntry);
        l1i_.touchAt(ref.l1Way);
        return true;
    }

    /** Context-switch without ASID support: flush both TLBs. */
    void flushTlbs();

    /**
     * Coherence write-invalidate from another core: drop the line
     * from the data-side caches in every address space (a physical
     * snoop cannot know which ASIDs map the line).
     *
     * Exact snoop filter: a direct-mapped table of lines known to be
     * absent from L1D, L2 and L3 in every ASID. A line is recorded
     * after a scan (which leaves it absent everywhere) and forgotten
     * when any of the three levels may fill it, which only happens
     * past an L1 miss in accessThrough(). A snoop that hits the
     * table returns without touching a cache: the scan would have
     * found nothing, so it would have changed nothing either, and
     * the per-cache touchRepeat() precondition ("nothing invalidated
     * the way since") still holds, so the caches' repeat pointers
     * stay as they are. Off when the three levels' line sizes
     * differ.
     */
    void invalidateDataLine(Addr addr);

    /** Direct-mapped entries of the snoop filter. */
    static constexpr std::size_t SnoopFilterEntries = 4096;

    /** Snoops the filter answered without a scan (host-side count,
     *  not checkpointed). */
    std::uint64_t filteredSnoops() const { return filteredSnoops_; }

    /** Targeted invalidation of one address space's copy, e.g. when
     *  this core observes a store to a GOT slot it caches. */
    void invalidateDataLine(Addr addr, std::uint16_t asid);

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }
    const Tlb &itlb() const { return itlb_; }
    const Tlb &dtlb() const { return dtlb_; }

    const HierarchyParams &params() const { return params_; }

    /**
     * Override the hierarchy's latency scalars. Used when fanning a
     * machine sweep out from a restored snapshot: latencies are pure
     * timing inputs, so changing them post-restore cannot perturb
     * cache/TLB contents.
     */
    void setLatencies(std::uint32_t l2, std::uint32_t l3,
                      std::uint32_t mem, std::uint32_t walk)
    {
        params_.l2Latency = l2;
        params_.l3Latency = l3;
        params_.memLatency = mem;
        params_.walkLatency = walk;
    }

    /** Checkpoint every level (geometry-checked on load). */
    void save(snapshot::Serializer &s) const;
    void load(snapshot::Deserializer &d);

    void clearStats();

    /** Register every level's counters under `prefix` (e.g.
     *  "dlsim.cpu" yields "dlsim.cpu.l1i.misses", ...). */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** Inline: this is the body of every fetch and data access. */
    AccessResult
    accessThrough(Tlb &tlb, Cache &l1, Addr addr,
                  std::uint16_t asid)
    {
        AccessResult res;
        res.tlbHit = tlb.access(addr, asid);
        if (!res.tlbHit)
            res.extraCycles += params_.walkLatency;
        res.l1Hit = l1.access(addr, asid);
        if (res.l1Hit)
            return res;
        // L1, L2 and L3 fill only past an L1 miss: the line may no
        // longer be absent from the data side.
        std::uint64_t &absent = absentLines_[snoopSlot(addr)];
        if (absent == (addr >> snoopShift_))
            absent = NoLine;
        res.l2Hit = l2_.access(addr, asid);
        if (!res.l2Hit) {
            res.l3Hit = l3_.access(addr, asid);
            res.extraCycles += params_.l3Latency;
            if (!res.l3Hit)
                res.extraCycles += params_.memLatency;
        } else {
            res.extraCycles += params_.l2Latency;
        }
        return res;
    }

    /** absentLines_ value of an empty entry (no line is ~0). */
    static constexpr std::uint64_t NoLine = ~std::uint64_t{0};

    std::size_t
    snoopSlot(Addr addr) const
    {
        return static_cast<std::size_t>(addr >> snoopShift_) &
               (SnoopFilterEntries - 1);
    }

    HierarchyParams params_;
    /** L1D/L2/L3 share one line size: the snoop filter is on. */
    bool snoopFilterOn_;
    std::uint32_t snoopShift_;
    /** Snoop filter: per slot, a line absent from L1D, L2 and L3
     *  in every ASID, or NoLine. Derived state: load() clears it. */
    std::vector<std::uint64_t> absentLines_;
    std::uint64_t filteredSnoops_ = 0;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
    Tlb itlb_;
    Tlb dtlb_;
};

} // namespace dlsim::mem

#endif // DLSIM_MEM_HIERARCHY_HH
