/**
 * @file
 * The one set-associative table behind every cache-like structure:
 * mem::Cache, mem::Tlb, branch::Btb, branch::IndirectPredictor and
 * core::Abtb. It owns the geometry, the storage, the LRU clock, the
 * hit scan, the victim choice, fills and flushes; each structure
 * keeps only its key packing, payload, counters and wire record.
 */

#ifndef DLSIM_MEM_SET_ASSOC_HH
#define DLSIM_MEM_SET_ASSOC_HH

#include <bit>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "snapshot/serializer.hh"

namespace dlsim::mem
{

/** Mark [p, p+bytes) unreadable (poison) or readable again in the
 *  AddressSanitizer build; no-ops otherwise. */
inline void
poison([[maybe_unused]] const void *p, [[maybe_unused]] std::size_t bytes,
       [[maybe_unused]] bool on)
{
#if defined(__SANITIZE_ADDRESS__)
    if (on)
        __asan_poison_memory_region(p, bytes);
    else
        __asan_unpoison_memory_region(p, bytes);
#endif
}

/**
 * An array of `n` elements, value-initialised — or, for a restore
 * target whose load() writes every element, left uninitialised and
 * poisoned until that load() unpoisons it: a 12 MB LLC is 3 MB of
 * ways, so zeroing them first is real work, and a read before the
 * load is a bug the sanitizer build reports.
 */
template <typename T>
std::unique_ptr<T[]>
allocateArray(std::size_t n, bool for_restore)
{
    if (!for_restore)
        return std::make_unique<T[]>(n);
    auto a = std::make_unique_for_overwrite<T[]>(n);
    poison(a.get(), n * sizeof(T), true);
    return a;
}

/** What the table needs of an entry: a validity test, an
 *  invalidation, an LRU stamp and a fixed-size snapshot record. */
template <typename E>
concept SetAssocEntry = requires(E e, const E c, std::uint8_t *out,
                                 const std::uint8_t *in) {
    { c.valid() } -> std::same_as<bool>;
    e.invalidate();
    { e.lastUse } -> std::convertible_to<std::uint64_t>;
    { E::WireBytes } -> std::convertible_to<std::size_t>;
    E::pack(out, c);
    E::unpack(in, e);
};

/**
 * A set-associative table with LRU replacement.
 *
 * Entries are stored set-major in one array, allocated in the
 * constructor and never reallocated: a pointer to an entry names
 * that slot for the table's whole lifetime. A memo pointer (the
 * caches' and TLBs' repeat and verified-touch handles) can go stale,
 * when the slot is refilled or invalidated, but never dangles; a
 * stale one fails its key compare instead of reading freed memory.
 *
 * Recency is a clock: each operation advances tick(), and a hit or
 * fill stamps its entry's lastUse with it, so no two valid entries
 * share a stamp and a full set's LRU entry is unique.
 */
template <SetAssocEntry Entry>
class SetAssocTable
{
  public:
    /** @param for_restore The table is about to be overwritten by
     *         load(): see allocateArray(). */
    SetAssocTable(std::uint64_t sets, std::uint32_t assoc,
                  bool for_restore = false)
        : sets_(sets), assoc_(assoc),
          setsPow2_(std::has_single_bit(sets)),
          assocPow2_(std::has_single_bit(assoc)),
          assocShift_(std::countr_zero(assoc)),
          entries_(allocateArray<Entry>(size(), for_restore))
    {
        assert(sets > 0 && assoc > 0);
    }

    std::uint64_t sets() const { return sets_; }
    std::uint32_t assoc() const { return assoc_; }
    std::size_t size() const { return sets_ * assoc_; }
    bool assocPow2() const { return assocPow2_; }

    /** Set of an index: a mask for power-of-two set counts, else a
     *  modulo (e.g. the 12288-set LLC). */
    std::size_t
    setOf(std::uint64_t index) const
    {
        if (setsPow2_)
            return static_cast<std::size_t>(index & (sets_ - 1));
        return static_cast<std::size_t>(index % sets_);
    }

    /** First way of set `s`; its ways follow contiguously. */
    Entry *set(std::size_t s) { return &entries_[s * assoc_]; }

    /** Set and way of an entry, by shift and mask.
     *  @pre assocPow2(). */
    std::size_t
    setOfEntry(const Entry *e) const
    {
        return static_cast<std::size_t>(e - entries_.get()) >>
               assocShift_;
    }
    std::uint32_t
    wayOfEntry(const Entry *e) const
    {
        return static_cast<std::uint32_t>(e - entries_.get()) &
               (assoc_ - 1);
    }

    /** @name The LRU clock @{ */
    std::uint64_t tick() const { return tick_; }
    std::uint64_t advance(std::uint64_t n = 1) { return tick_ += n; }
    void setTick(std::uint64_t t) { tick_ = t; }
    /** @} */

    /** The entry of set `s` that `match` accepts, or null; no state
     *  changes. `match` must reject invalid entries (a key that
     *  carries the valid bit does so in its one compare). At most
     *  one entry matches a key, since fills only happen after a scan
     *  found none. */
    template <typename Match>
    Entry *
    find(std::size_t s, Match &&match)
    {
        Entry *base = set(s);
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (match(base[w]))
                return &base[w];
        }
        return nullptr;
    }

    template <typename Match>
    const Entry *
    find(std::size_t s, Match &&match) const
    {
        return const_cast<SetAssocTable *>(this)->find(s, match);
    }

    /** Advance the clock, then find() and stamp a hit as the most
     *  recently used entry. */
    template <typename Match>
    Entry *
    lookup(std::size_t s, Match &&match)
    {
        advance();
        Entry *e = find(s, match);
        if (e != nullptr)
            e->lastUse = tick_;
        return e;
    }

    /** Where a fill landed, and whether it displaced a valid
     *  entry. */
    struct Fill
    {
        Entry *entry;
        bool evicted;
    };

    /** Write valid `e` over the victim of set `s`, stamped with the
     *  current tick. */
    Fill
    fill(std::size_t s, const Entry &e)
    {
        Entry *v = victim(s);
        const bool evicted = v->valid();
        *v = e;
        v->lastUse = tick_;
        return {v, evicted};
    }

    /** @name Flushes: invalidate the valid entries that `pred`
     *  accepts, in set `s` or in the whole table, or all of them.
     *  @{ */
    template <typename Pred>
    void
    flushIf(std::size_t s, Pred &&pred)
    {
        flushRange(set(s), assoc_, pred);
    }

    template <typename Pred>
    void
    flushIf(Pred &&pred)
    {
        flushRange(entries_.get(), size(), pred);
    }

    void
    flushAll()
    {
        for (Entry &e : entries())
            e.invalidate();
    }
    /** @} */

    /** Every entry, set-major. */
    std::span<Entry> entries() { return {entries_.get(), size()}; }
    std::span<const Entry> entries() const
    {
        return {entries_.get(), size()};
    }

    /** Write every entry as an Entry::WireBytes record. */
    void
    save(snapshot::Serializer &s) const
    {
        s.records(entries(), Entry::WireBytes,
                  [](std::uint8_t *p, const Entry &e) {
                      Entry::pack(p, e);
                  });
    }

    /** Read save()'s records back in bulk: a sweep restores tens of
     *  thousands of ways per arm, so per-field bounds-checked reads
     *  would be measurable. */
    void
    load(snapshot::Deserializer &d)
    {
        const std::uint8_t *p = d.raw(size() * Entry::WireBytes);
        poison(entries_.get(), size() * sizeof(Entry), false);
        for (Entry &e : entries()) {
            Entry::unpack(p, e);
            p += Entry::WireBytes;
        }
    }

  private:
    /** The replacement policy of every structure: the first invalid
     *  way of the set, else the first way with the least lastUse. */
    Entry *
    victim(std::size_t s)
    {
        Entry *base = set(s);
        Entry *v = base;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (!base[w].valid())
                return &base[w];
            if (base[w].lastUse < v->lastUse)
                v = &base[w];
        }
        return v;
    }

    template <typename Pred>
    static void
    flushRange(Entry *e, std::size_t n, Pred &pred)
    {
        for (; n != 0; --n, ++e) {
            if (e->valid() && pred(*e))
                e->invalidate();
        }
    }

    std::uint64_t sets_;
    std::uint32_t assoc_;
    bool setsPow2_;
    bool assocPow2_;
    std::uint32_t assocShift_;
    std::unique_ptr<Entry[]> entries_;
    std::uint64_t tick_ = 0;
};

/**
 * The entry Cache and Tlb share, packed to 16 bytes so a set scan
 * touches few host cache lines and the tag compare is one 64-bit
 * equality. Layout of `key`: tag[63:17] | asid[16:1] | valid[0]
 * (simulated addresses stay far below 2^53, so a line or page
 * number never truncates). The wire record decomposes the key: u64
 * tag, u16 asid, bool valid, then u64 lastUse.
 */
struct AsidWay
{
    std::uint64_t key;
    std::uint64_t lastUse;

    /** Key a valid (tag, asid) pairing carries. */
    static constexpr std::uint64_t
    keyOf(std::uint64_t tag, std::uint16_t asid)
    {
        return (tag << 17) | (std::uint64_t{asid} << 1) | 1;
    }

    /** Matcher of the way holding `k`, a keyOf() value: the key
     *  carries the valid bit, so one compare is the whole test. */
    static auto
    holding(std::uint64_t k)
    {
        return [k](const AsidWay &w) { return w.key == k; };
    }

    bool valid() const { return (key & 1) != 0; }
    void invalidate() { key &= ~std::uint64_t{1}; }
    std::uint64_t tag() const { return key >> 17; }
    std::uint16_t asid() const
    {
        return static_cast<std::uint16_t>(key >> 1);
    }

    static constexpr std::size_t WireBytes = 19;

    static void
    pack(std::uint8_t *p, const AsidWay &w)
    {
        snapshot::putLe64(p, w.tag());
        snapshot::putLe16(p + 8, w.asid());
        p[10] = static_cast<std::uint8_t>(w.key & 1);
        snapshot::putLe64(p + 11, w.lastUse);
    }

    static void
    unpack(const std::uint8_t *p, AsidWay &w)
    {
        w.key = keyOf(snapshot::le64(p), snapshot::le16(p + 8)) &
                ~std::uint64_t{p[10] == 0};
        w.lastUse = snapshot::le64(p + 11);
    }
};

} // namespace dlsim::mem

#endif // DLSIM_MEM_SET_ASSOC_HH
