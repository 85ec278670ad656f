/**
 * @file
 * Per-process virtual address space with lazily allocated, reference-
 * counted physical pages and copy-on-write sharing.
 *
 * COW page accounting is load-bearing for the reproduction: §5.5 of
 * the paper argues that a software call-site-patching approach defeats
 * COW sharing of library text (~280 copied pages / 1.1MB per Apache
 * process), while the proposed hardware leaves code pages untouched.
 * fork() and the page-copy counters here regenerate that analysis.
 */

#ifndef DLSIM_MEM_ADDRESS_SPACE_HH
#define DLSIM_MEM_ADDRESS_SPACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/instruction.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::mem
{

using isa::Addr;

/** Page geometry (4KB pages, 64-bit words). */
constexpr Addr PageShift = 12;
constexpr Addr PageBytes = 1ull << PageShift;
constexpr std::size_t WordsPerPage = PageBytes / 8;

/** Page permission bits. */
enum Perm : std::uint8_t
{
    PermNone = 0,
    PermRead = 1,
    PermWrite = 2,
    PermExec = 4,
};

/** Classification of mapped regions, for page-copy accounting. */
enum class RegionKind : std::uint8_t
{
    Text,  ///< Executable code (including PLT sections).
    Got,   ///< Linker lookup tables (GOT / GOTPLT).
    Data,  ///< Module data sections and heap.
    Stack, ///< Thread stack.
};

/** A mapped virtual region. */
struct Region
{
    Addr start = 0;
    Addr size = 0;
    std::uint8_t perms = PermNone;
    RegionKind kind = RegionKind::Data;
    std::string name;

    /**
     * Demand-paged region (the demand-driven-loading baseline,
     * Mururu et al.): pages start absent and fault in on first
     * touch. Content is regenerated deterministically at fault time
     * — word i of [start, start+fillBytes) is the i'th splitmix64
     * draw from fillSeed (exactly fillRandom's sequence); bytes past
     * fillBytes are zero. fillBytes == 0 means an all-zero region
     * (library text, whose code lives in decode slots).
     */
    bool demand = false;
    std::uint64_t fillSeed = 0;
    std::uint64_t fillBytes = 0;

    bool contains(Addr a) const { return a >= start && a - start < size; }
    Addr end() const { return start + size; }
};

/** Faults reported by AddressSpace accesses. */
enum class MemFault : std::uint8_t
{
    None,
    Unmapped,
    Protection,
};

/**
 * A page of backing storage, shareable between address spaces.
 * Default-initialisation leaves the words indeterminate, for a
 * snapshot restore that copies every byte in; first touch creates
 * pages value-initialised, i.e. zeroed.
 */
struct PhysPage
{
    std::array<std::uint64_t, WordsPerPage> words;
};

/**
 * Deduplicating page pool for checkpointing. COW-shared pages are
 * identified by pointer, so a backing page referenced by several
 * address spaces (or several page numbers) is written once and the
 * sharing topology — and with it sharedPages()/privateBytes()
 * accounting — survives a save/load roundtrip exactly.
 *
 * Usage: every AddressSpace::save records page ids through one
 * shared saver, then the saver itself is saved (after all spaces).
 * On restore the loader is loaded first and handed to every
 * AddressSpace::load.
 */
class PagePoolSaver
{
  public:
    /** Id of `page`, registering it on first sight. */
    std::uint32_t idOf(const std::shared_ptr<PhysPage> &page);

    /** Write all registered pages ("pages" struct record). */
    void save(snapshot::Serializer &s) const;

  private:
    std::vector<const PhysPage *> pages_;
    std::unordered_map<const PhysPage *, std::uint32_t> ids_;
};

/** Restores the pool written by PagePoolSaver. */
class PagePoolLoader
{
  public:
    void load(snapshot::Deserializer &d);

    /** Shared page for `id`; throws SnapshotError if out of range. */
    const std::shared_ptr<PhysPage> &page(std::uint32_t id) const;

  private:
    std::vector<std::shared_ptr<PhysPage>> pages_;
};

/**
 * Virtual address space: region list plus a page table mapping page
 * numbers to shared backing pages.
 *
 * Pages are allocated on first touch. fork() produces a child that
 * shares every present page; writable pages are marked copy-on-write
 * in both parent and child, and the first subsequent write to such a
 * page copies it and bumps the per-region-kind copy counters.
 */
class AddressSpace
{
  public:
    AddressSpace() = default;

    /**
     * Map a region. Overlapping an existing region is a usage error.
     * @param demand Demand-page the region (see Region::demand).
     * @return Start address (== start argument).
     */
    Addr map(Addr start, Addr size, std::uint8_t perms, RegionKind kind,
             std::string name, bool demand = false);

    /**
     * Attach a deterministic fill to a demand region: the region's
     * first `bytes` bytes materialise at fault time as the splitmix64
     * stream fillRandom(start, bytes, seed) would have written.
     * @pre The region exists, is demand-paged, and no page of it has
     * faulted in yet.
     */
    void setDemandFill(Addr start, std::uint64_t seed,
                       std::uint64_t bytes);

    /** Change permissions of the region containing addr (mprotect). */
    bool protect(Addr addr, std::uint8_t perms);

    /** Remove the region containing addr; frees this space's refs. */
    bool unmap(Addr addr);

    /** Region lookup; nullptr when unmapped. */
    const Region *findRegion(Addr addr) const;

    /** All current regions (for diagnostics and layout dumps). */
    const std::vector<Region> &regions() const { return regions_; }

    /**
     * Aligned 64-bit load. @param fault receives the fault kind
     * (None on success); the returned value is 0 on fault.
     *
     * Defined inline so the translation-cache hit — the common case
     * in both the timing core and the fast-forward interpreter —
     * compiles to a handful of instructions at the call site.
     */
    std::uint64_t
    read64(Addr addr, MemFault &fault)
    {
        const Addr page_num = addr >> PageShift;
        const CachedPage &e = cache_[page_num & (CacheSlots - 1)];
        if (e.tag == page_num && e.readOk) {
            ++ptcHits_;
            fault = MemFault::None;
            return e.page->words[(addr & (PageBytes - 1)) >> 3];
        }
        return read64Slow(addr, fault);
    }

    /** Aligned 64-bit store. @return Fault kind (None on success). */
    MemFault
    write64(Addr addr, std::uint64_t value)
    {
        const Addr page_num = addr >> PageShift;
        const CachedPage &e = cache_[page_num & (CacheSlots - 1)];
        if (e.tag == page_num && e.writeOk) {
            ++ptcHits_;
            e.page->words[(addr & (PageBytes - 1)) >> 3] = value;
            return MemFault::None;
        }
        return write64Slow(addr, value);
    }

    /**
     * Store that bypasses permission checks (used by the loader to
     * populate GOT/data and by the software patcher after mprotect
     * accounting has been done explicitly). Still honours COW.
     */
    void poke64(Addr addr, std::uint64_t value);

    /** Load that bypasses permission checks (loader/debugger use). */
    std::uint64_t peek64(Addr addr) const;

    /**
     * Fill [start, start+bytes) with deterministic pseudo-random
     * words (page-at-a-time; much faster than per-word poke64).
     * Used to seed workload data sections. @pre page-aligned start.
     */
    void fillRandom(Addr start, std::uint64_t bytes,
                    std::uint64_t seed);

    /**
     * Instruction-fetch touch for demand-paged text. Simulated code
     * lives in decode slots, so fetch never reaches the data path —
     * the core calls this per fetched instruction (when a demand
     * region exists) to give first-touch faults somewhere to happen.
     * Ensures the page backing `addr` is present and PTC-cached;
     * faulting it in when the region is demand-paged.
     * @return true iff this touch took a demand fault.
     *
     * The common (present) case is the inline PTC probe; fills are
     * not counted as PTC read/write traffic.
     */
    bool
    demandTouchFetch(Addr addr)
    {
        const Addr page_num = addr >> PageShift;
        const CachedPage &e = cache_[page_num & (CacheSlots - 1)];
        if (e.tag == page_num && e.readOk)
            return false;
        return demandTouchFetchSlow(addr);
    }

    /** @name Demand-fault accounting @{ */
    std::uint64_t demandFaults() const { return demandFaultsTotal_; }
    std::uint64_t demandFaults(RegionKind kind) const
    {
        return demandFaults_[static_cast<std::size_t>(kind)];
    }
    /** True iff any mapped region is demand-paged. */
    bool hasDemandRegions() const
    {
        for (const Region &r : regions_)
            if (r.demand)
                return true;
        return false;
    }
    /** @} */

    /**
     * Drop every present page of demand-paged TEXT regions so they
     * re-fault on next fetch (adversarial mid-run demand storm).
     * Text pages are never architecturally written — their content
     * regenerates bit-identically — so a drop is invisible to the
     * lockstep oracle. Data regions are exempt: they may hold
     * post-fault architectural stores. @return Pages dropped.
     */
    std::uint64_t dropDemandTextPages();

    /**
     * Fork: duplicate the region table and share all present pages
     * copy-on-write, as the OS does for a child process.
     */
    std::unique_ptr<AddressSpace> fork() const;

    /** @name COW and footprint accounting @{ */
    std::uint64_t cowCopies(RegionKind kind) const;
    std::uint64_t cowCopiesTotal() const;
    /** Pages currently present (allocated) in this space. */
    std::uint64_t presentPages() const { return pages_.size(); }
    /**
     * Pages in this space whose backing is shared with another space.
     */
    std::uint64_t sharedPages() const;
    /** Bytes of backing uniquely owned by this space. */
    std::uint64_t privateBytes() const;
    /** @} */

    /** @name Page-translation-cache statistics @{
     *
     * Hit/miss/flush counts for the inline translation cache, so
     * its effectiveness shows up in --json-out documents
     * (dlsim.mem.ptc.*). Counted on read64/write64 only — peek64/
     * poke64 are harness accessors, not simulated traffic. The
     * counters are NOT serialized: the cache starts cold after a
     * restore, so the hit/miss split is a property of the process,
     * not of the architectural state (snapshot-equivalence
     * comparisons strip the dlsim.mem.ptc. prefix for this reason).
     */
    std::uint64_t ptcHits() const { return ptcHits_; }
    std::uint64_t ptcMisses() const { return ptcMisses_; }
    std::uint64_t ptcFlushes() const { return ptcFlushes_; }
    void clearPtcStats()
    {
        ptcHits_ = ptcMisses_ = ptcFlushes_ = 0;
    }
    /** @} */

    /**
     * Checkpoint regions, the page table (as pool ids), and COW
     * accounting. Backing pages themselves are written once by the
     * shared `pool`.
     */
    void save(snapshot::Serializer &s, PagePoolSaver &pool) const;

    /** Restore from a snapshot; replaces all current state. */
    void load(snapshot::Deserializer &d,
              const PagePoolLoader &pool);

  private:
    struct PageSlot
    {
        std::shared_ptr<PhysPage> page;
        bool cow = false;
    };

    /**
     * Direct-mapped page-translation cache over the region +
     * page-table lookup — the hot-loop cost of every simulated
     * memory access (both the timing core and the fast-forward
     * interpreter). Purely an accelerator: hits reproduce exactly
     * what the slow path would do, so no architectural state or
     * counter can differ.
     *
     * Invariants: an entry is filled only from the slow path;
     * `writeOk` implies the backing page was non-COW at fill time
     * (a hit can therefore store without the COW check or copy
     * accounting — the slow path would not have copied either).
     * Every operation that can change a translation — map, protect,
     * unmap, fork (pages become COW), snapshot load, fillRandom
     * (may COW-copy) — flushes the cache. A COW copy in the write
     * slow path refills the entry, replacing the stale pointer.
     */
    struct CachedPage
    {
        Addr tag = ~Addr{0};
        PhysPage *page = nullptr;
        bool readOk = false;
        bool writeOk = false;
    };
    /** Direct-mapped slot count. 4096 covers a 16MB working set
     *  without conflict aliasing; at 24 bytes/slot the table is
     *  still well under L2-resident. */
    static constexpr std::size_t CacheSlots = 4096;

    void
    flushPageCache() const
    {
        ++ptcFlushes_;
        for (CachedPage &e : cache_)
            e = CachedPage{};
    }

    /** Cache-miss paths: region/permission checks, page touch
     *  (allocation, COW copy), then refill of the cache entry. */
    std::uint64_t read64Slow(Addr addr, MemFault &fault);
    MemFault write64Slow(Addr addr, std::uint64_t value);
    bool demandTouchFetchSlow(Addr addr);

    /** `r`, when given, is the region backing the page — needed to
     *  materialise demand-paged content on first touch. Callers that
     *  only touch eager regions (fillRandom) may pass nullptr. */
    PageSlot &touchPage(Addr page_num, bool for_write,
                        const Region *r = nullptr);
    /** First-touch fill + fault accounting for a demand page. */
    void demandFill(const Region &r, Addr page_num, PhysPage &page);
    RegionKind kindOf(Addr addr) const;

    /** Regions sorted by start address for binary search. */
    std::vector<Region> regions_;
    /** Index of the most recently hit region (locality cache). */
    mutable std::size_t lastRegion_ = 0;
    std::unordered_map<Addr, PageSlot> pages_;
    std::array<std::uint64_t, 4> cowCopies_{};
    /** Demand first-touch faults, per region kind and total.
     *  Serialized (unlike the PTC stats): a fault is architectural
     *  work the demand arm charges cycles for, so a restored run
     *  must agree with an uninterrupted one. */
    std::array<std::uint64_t, 4> demandFaults_{};
    std::uint64_t demandFaultsTotal_ = 0;
    mutable std::array<CachedPage, CacheSlots> cache_{};
    /** Translation-cache statistics. Mutable: flushPageCache() is
     *  const (called from accounting-neutral paths). Not serialized
     *  — see the accessor block's contract. */
    mutable std::uint64_t ptcHits_ = 0;
    mutable std::uint64_t ptcMisses_ = 0;
    mutable std::uint64_t ptcFlushes_ = 0;
};

} // namespace dlsim::mem

#endif // DLSIM_MEM_ADDRESS_SPACE_HH
