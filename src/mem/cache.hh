/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * The model tracks presence only (tags, no data): dlsim is execution-
 * driven but functionally backed by AddressSpace, so caches exist to
 * measure hit/miss behaviour — the quantity the paper's Table 4
 * reports (I-cache and D-cache misses per kilo-instruction).
 *
 * Tags include an address-space id so that multi-process simulations
 * do not alias between processes (approximating physical tagging).
 */

#ifndef DLSIM_MEM_CACHE_HH
#define DLSIM_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "isa/instruction.hh"
#include "mem/set_assoc.hh"

namespace dlsim::stats
{
class MetricsRegistry;
}

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::mem
{

using isa::Addr;

/** Cache geometry and identification. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;
};

/**
 * A single cache level. Allocate-on-miss, LRU replacement, no
 * write-back modelling (dirty state does not affect the counters the
 * reproduction needs).
 */
class Cache
{
  public:
    /**
     * @param for_restore The cache is about to be overwritten by
     *        load(), which writes every way and MRU entry: leave
     *        them uninitialised (see allocateArray()). Such a cache
     *        must not be used before load().
     */
    explicit Cache(const CacheParams &params, bool for_restore = false);

    /**
     * One way: the packed (line, asid, valid) key and its LRU stamp.
     * Public only as an opaque handle for the verified-touch API;
     * the storage itself stays private.
     */
    using Way = AsidWay;

    /**
     * Look up (and on miss, allocate) the line containing addr.
     * Inline so the MRU-compare hit — the overwhelming majority of
     * L1 traffic — resolves at the call site; victim selection and
     * fill live in accessMiss().
     * @param addr Virtual address of the access.
     * @param asid Address-space id of the accessor.
     * @return True on hit.
     */
    bool
    access(Addr addr, std::uint16_t asid)
    {
        const std::uint64_t tick = ways_.advance();
        const std::uint64_t line = lineOf(addr);
        const std::size_t set = ways_.setOf(line);
        const std::uint64_t want = Way::keyOf(line, asid);
        // Fast path: the fetch/data stream revisits the same line
        // back to back, so one compare against the set's MRU way
        // settles back-to-back L1 hits before the full scan.
        Way *base = ways_.set(set);
        Way &mru = base[mruWay_[set]];
        if (mru.key == want) {
            mru.lastUse = tick;
            ++hits_;
            lastWay_ = &mru;
            return true;
        }
        // Full branchless scan inline: sequential code streams
        // through lines, so a hit in a *non*-MRU way (the previous
        // loop iteration's fill) is the second-most-common outcome
        // and is worth settling without a function call. The key
        // carries the valid bit, so one compare is the whole test.
        const std::uint32_t assoc = ways_.assoc();
        std::uint32_t hit = assoc;
        for (std::uint32_t w = 0; w < assoc; ++w)
            hit = base[w].key == want ? w : hit;
        if (hit != assoc) {
            mruWay_[set] = hit;
            Way &way = base[hit];
            way.lastUse = tick;
            ++hits_;
            lastWay_ = &way;
            return true;
        }
        return accessMiss(line, set, asid);
    }

    /** Probe without updating LRU or allocating. */
    bool contains(Addr addr, std::uint16_t asid) const;

    /**
     * Prefetch fill: allocate the line (LRU-updating) without
     * touching the demand hit/miss statistics. Fills are counted in
     * the dedicated prefetches() counter instead.
     */
    void prefetch(Addr addr, std::uint16_t asid);

    /**
     * Targeted invalidation: drop the line containing addr in the
     * given address space only (e.g. after a store to a GOT slot
     * observed by this core's own address space).
     */
    void invalidateLine(Addr addr, std::uint16_t asid);

    /**
     * Coherence invalidation: drop the line containing addr in every
     * address space. Multicore write-invalidate snoops operate on
     * physical lines and cannot know which ASIDs map them, so they
     * genuinely need the all-ASID variant.
     */
    void invalidateLineAllAsids(Addr addr);

    /** Invalidate everything. */
    void invalidateAll();

    /**
     * Repeat-access fast path: re-touch the way the immediately
     * preceding access() resolved to, skipping indexing and tag
     * compare. Precondition: the previous operation on this cache
     * was an access() to the same (line, asid) and nothing has
     * invalidated or refilled that way since (no prefetch, flush,
     * or invalidate in between). Under that precondition the effect
     * on every observable — tick, lastUse, hit count, MRU state,
     * contents — is byte-identical to calling access() again: a
     * repeat access() always takes the MRU-compare hit path, which
     * performs exactly these three updates.
     */
    void touchRepeat() { touchRepeatN(1); }

    /**
     * `n` consecutive touchRepeat()s in one step. Byte-identical to
     * calling touchRepeat() n times (tick advances by n, lastUse
     * lands on the final tick, hits grow by n) under the same
     * precondition, since no other operation on this structure
     * observes the intermediate ticks.
     */
    void touchRepeatN(std::uint64_t n)
    {
        lastWay_->lastUse = ways_.advance(n);
        hits_ += n;
    }

    /** True when touchRepeat()'s way pointer is usable (the last
     *  access() hasn't been followed by an invalidate/flush/load). */
    bool canRepeat() const { return lastWay_ != nullptr; }

    /** @name Verified-touch memoisation
     *
     * Unlike touchRepeat(), no recency precondition: the caller
     * holds a Way pointer captured from an arbitrarily old access
     * (lastWayPtr()), and wayHolds() re-verifies it by key compare
     * before any state is touched. The pointer can never dangle
     * (see SetAssocTable), so staleness just fails the compare.
     * When it succeeds, the way genuinely holds (line, asid) right
     * now: a real access() would hit exactly this way (a key is
     * held by at most one way) and perform exactly touchAt()'s
     * updates — including leaving mruWay_ pointing at it, which
     * both the inline MRU-hit and the scan-hit paths do. Gated on
     * power-of-two associativity so the way→set division is a
     * shift; every shipped geometry qualifies.
     * @{ */

    /** Way the most recent demand access() resolved to. */
    Way *lastWayPtr() { return lastWay_; }

    /** True when `w` holds the line of addr in `asid`. */
    bool
    wayHolds(const Way *w, Addr addr, std::uint16_t asid) const
    {
        return ways_.assocPow2() && w != nullptr &&
               w->key == Way::keyOf(lineOf(addr), asid);
    }

    /** The hit that wayHolds() proved: identical updates to an
     *  access() hit. @pre wayHolds(w, ...) just held. */
    void
    touchAt(Way *w)
    {
        w->lastUse = ways_.advance();
        ++hits_;
        lastWay_ = w;
        mruWay_[ways_.setOfEntry(w)] = ways_.wayOfEntry(w);
    }
    /** @} */

    const CacheParams &params() const { return params_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    std::uint64_t prefetches() const { return prefetches_; }
    std::uint64_t evictions() const { return evictions_; }
    double missRate() const;
    void clearStats();

    /**
     * Register hit/miss/prefetch/eviction counters and the miss-rate
     * gauge under `prefix` (e.g. "dlsim.cpu.l1i").
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    /** Checkpoint contents, LRU state, and counters. */
    void save(snapshot::Serializer &s) const;

    /** Restore; throws SnapshotError on geometry mismatch. */
    void load(snapshot::Deserializer &d);

  private:
    /** access() miss tail: count, fill. */
    bool accessMiss(std::uint64_t line, std::size_t set,
                    std::uint16_t asid);

    /** Allocate (line, asid) into its set, counting evictions;
     *  shared by demand and prefetch fills so they never diverge. */
    Way *fill(std::uint64_t line, std::size_t set, std::uint16_t asid);

    std::uint64_t lineOf(Addr addr) const { return addr >> lineShift_; }

    /** The MRU array as a range (whole-array passes). */
    std::span<std::uint32_t> mruWays() const
    {
        return {mruWay_.get(), ways_.sets()};
    }

    CacheParams params_;
    std::uint32_t lineShift_;
    SetAssocTable<Way> ways_;
    /**
     * Most-recently-used way per set: the fetch stream touches the
     * same line for several consecutive instructions, so a single
     * compare against the MRU way resolves the overwhelming
     * majority of L1 hits without scanning the set. Purely a
     * lookup accelerator — hit/miss/LRU/eviction behaviour (and so
     * every counter) is identical with or without it.
     */
    std::unique_ptr<std::uint32_t[]> mruWay_;
    /**
     * Way the last demand access() resolved to (hit or fill), for
     * touchRepeat(). Transient lookup state like mruWay_, but not
     * serialized: it is only meaningful between back-to-back
     * accesses within one run loop, never across a snapshot.
     */
    Way *lastWay_ = nullptr;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t prefetches_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace dlsim::mem

#endif // DLSIM_MEM_CACHE_HH
