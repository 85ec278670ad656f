/**
 * @file
 * Translation lookaside buffer model.
 *
 * Like Cache, this is a presence model: functional translation is the
 * identity (dlsim runs on virtual addresses), but TLB hit/miss
 * behaviour drives the I-TLB and D-TLB miss counters of the paper's
 * Table 4 and the page-walk cycle penalties of the timing model.
 *
 * Entries are tagged with an address-space id. flushAll() models a
 * context switch without ASIDs; a simulation using ASIDs simply skips
 * the flush, exactly the choice discussed for the ABTB in §3.3 of the
 * paper.
 */

#ifndef DLSIM_MEM_TLB_HH
#define DLSIM_MEM_TLB_HH

#include <cstdint>
#include <string>

#include "isa/instruction.hh"
#include "mem/address_space.hh"
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

/** TLB geometry. */
struct TlbParams
{
    std::string name = "tlb";
    std::uint32_t entries = 64;
    std::uint32_t assoc = 4;
};

/** Set-associative TLB with LRU replacement. */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /**
     * One entry: the packed (vpn, asid, valid) key and its LRU
     * stamp, the same layout as Cache::Way. Public only as an
     * opaque handle for the verified-touch API; the storage itself
     * stays private.
     */
    using Entry = AsidWay;

    /**
     * Translate the page containing addr (allocating on miss).
     * Inline: the hit scan is a 4-entry compare loop on the hot
     * path of every fetch and data access; the miss fill lives in
     * accessMiss().
     * @return True on hit.
     */
    bool
    access(Addr addr, std::uint16_t asid)
    {
        const std::uint64_t vpn = addr >> PageShift;
        const std::size_t set = entries_.setOf(vpn);
        if (Entry *e = entries_.lookup(
                set, Entry::holding(Entry::keyOf(vpn, asid)))) {
            ++hits_;
            lastEntry_ = e;
            return true;
        }
        return accessMiss(vpn, set, asid);
    }

    /** Invalidate all entries (ASID-less context switch). */
    void flushAll();

    /** Invalidate entries of one address space. */
    void flushAsid(std::uint16_t asid);

    /**
     * Repeat-access fast path; the TLB twin of
     * Cache::touchRepeat(). Precondition: the previous operation on
     * this TLB was an access() for the same (page, asid) and no
     * flush happened since. Effect is byte-identical to calling
     * access() again (which would hit and perform exactly these
     * three updates).
     */
    void touchRepeat() { touchRepeatN(1); }

    /** `n` consecutive touchRepeat()s in one step; see
     *  Cache::touchRepeatN for the equivalence argument. */
    void touchRepeatN(std::uint64_t n)
    {
        lastEntry_->lastUse = entries_.advance(n);
        hits_ += n;
    }

    /** True when touchRepeat()'s entry pointer is usable. */
    bool canRepeat() const { return lastEntry_ != nullptr; }

    /** @name Verified-touch memoisation
     *
     * Unlike the touchRepeat() family, these carry NO recency
     * precondition: the caller holds an Entry pointer captured from
     * an arbitrarily old access (lastEntryPtr()), and entryHolds()
     * re-verifies it by key compare before any state is touched.
     * The pointer itself can never dangle (see SetAssocTable), so
     * a stale pointer simply fails the compare. When the compare
     * succeeds the entry genuinely holds (vpn, asid) right now: a
     * real access() would scan, hit exactly this entry (a key is
     * held by at most one entry), and perform exactly touchAt()'s
     * updates. Verification either proves the hit or the caller
     * falls back to access(); the counters are byte-identical
     * either way.
     * @{ */

    /** Entry the most recent access() resolved to (hit or fill). */
    Entry *lastEntryPtr() { return lastEntry_; }

    /** True when `e` holds a valid translation for addr's page in
     *  `asid` — one packed compare, no state change. */
    bool
    entryHolds(const Entry *e, Addr addr, std::uint16_t asid) const
    {
        return e != nullptr &&
               e->key == Entry::keyOf(addr >> PageShift, asid);
    }

    /** The hit that entryHolds() proved: identical updates to the
     *  access() scan-hit path. @pre entryHolds(e, ...) just held. */
    void
    touchAt(Entry *e)
    {
        e->lastUse = entries_.advance();
        ++hits_;
        lastEntry_ = e;
    }
    /** @} */

    const TlbParams &params() const { return params_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    void clearStats();

    /** Register hit/miss/eviction counters under `prefix`. */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    /** Checkpoint contents, LRU state, and counters. */
    void save(snapshot::Serializer &s) const;

    /** Restore; throws SnapshotError on geometry mismatch. */
    void load(snapshot::Deserializer &d);

  private:
    /** access() miss tail: count, evict, fill. */
    bool accessMiss(std::uint64_t vpn, std::size_t set,
                    std::uint16_t asid);

    TlbParams params_;
    SetAssocTable<Entry> entries_;
    /** Entry the last access() resolved to (hit or fill), for
     *  touchRepeat(). Transient; not serialized. */
    Entry *lastEntry_ = nullptr;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace dlsim::mem

#endif // DLSIM_MEM_TLB_HH
