#include "mem/cache.hh"

#include <bit>
#include <cassert>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "snapshot/serializer.hh"
#include "stats/metrics.hh"

namespace dlsim::mem
{

namespace
{

/** Snapshot record of one way: u64 tag, u16 asid, bool valid, u64
 *  lastUse — the packed key decomposed into its fields. */
constexpr std::size_t WayWireBytes = 19;

/** Mark [p, p+bytes) unreadable (poison) or readable again in the
 *  AddressSanitizer build; no-ops otherwise. */
void
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

} // namespace

Cache::Cache(const CacheParams &params, bool for_restore)
    : params_(params)
{
    assert(params_.lineBytes > 0 &&
           std::has_single_bit(params_.lineBytes));
    assert(params_.assoc > 0);
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(params_.lineBytes));
    const std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    assert(lines >= params_.assoc);
    numSets_ = lines / params_.assoc;
    setsArePow2_ = std::has_single_bit(numSets_);
    assocPow2_ = std::has_single_bit(params_.assoc);
    if (assocPow2_)
        assocShift_ = static_cast<std::uint32_t>(
            std::countr_zero(params_.assoc));
    numWays_ = numSets_ * params_.assoc;
    // A restore target's load() writes every element of both
    // arrays; a 12 MB LLC is 3 MB of ways, so zeroing them first is
    // real work. Until load() runs they are poisoned: a read is a
    // bug.
    ways_ = for_restore ? std::make_unique_for_overwrite<Way[]>(numWays_)
                        : std::make_unique<Way[]>(numWays_);
    mruWay_ = for_restore
                  ? std::make_unique_for_overwrite<std::uint32_t[]>(
                        numSets_)
                  : std::make_unique<std::uint32_t[]>(numSets_);
    if (for_restore) {
        poison(ways_.get(), numWays_ * sizeof(Way), true);
        poison(mruWay_.get(), numSets_ * sizeof(std::uint32_t), true);
    }
}

Cache::Way *
Cache::findWay(std::uint64_t line, std::size_t set,
               std::uint16_t asid)
{
    Way *base = &ways_[set * params_.assoc];
    // Branchless select over the set: fixed trip count, no
    // data-dependent early exit (at most one way can match).
    const std::uint64_t want = wayKey(line, asid);
    std::uint32_t hit = params_.assoc;
    for (std::uint32_t w = 0; w < params_.assoc; ++w)
        hit = base[w].key == want ? w : hit;
    if (hit == params_.assoc)
        return nullptr;
    mruWay_[set] = hit;
    return &base[hit];
}

Cache::Way *
Cache::findVictim(std::size_t set)
{
    Way *base = &ways_[set * params_.assoc];
    Way *victim = base;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (!(way.key & 1))
            return &way; // first invalid way, deterministically
        if (way.lastUse < victim->lastUse)
            victim = &way;
    }
    return victim;
}

void
Cache::fill(Way *victim, std::uint64_t line, std::uint16_t asid)
{
    if (victim->key & 1)
        ++evictions_;
    victim->key = wayKey(line, asid);
    victim->lastUse = tick_;
    // The filled line is the set's next likely hit.
    const std::size_t slot = static_cast<std::size_t>(
        victim - ways_.get());
    mruWay_[slot / params_.assoc] =
        static_cast<std::uint32_t>(slot % params_.assoc);
}

bool
Cache::accessMiss(std::uint64_t line, std::size_t set,
                  std::uint16_t asid)
{
    ++misses_;
    Way *victim = findVictim(set);
    fill(victim, line, asid);
    lastWay_ = victim;
    return false;
}

void
Cache::prefetch(Addr addr, std::uint16_t asid)
{
    // A prefetch fill can move the MRU hand, so a touchRepeat()
    // after it would no longer mirror a real access().
    lastWay_ = nullptr;
    ++tick_;
    const std::uint64_t line = lineOf(addr);
    const std::size_t set = setOf(line);
    if (Way *way = findWay(line, set, asid)) {
        way->lastUse = tick_;
        return;
    }
    ++prefetches_;
    fill(findVictim(set), line, asid);
}

bool
Cache::contains(Addr addr, std::uint16_t asid) const
{
    const std::uint64_t line = lineOf(addr);
    const std::size_t set = setOf(line);
    const std::uint64_t want = wayKey(line, asid);
    const Way *base = &ways_[set * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].key == want)
            return true;
    }
    return false;
}

void
Cache::invalidateLine(Addr addr, std::uint16_t asid)
{
    lastWay_ = nullptr; // the repeat precondition no longer holds
    const std::uint64_t line = lineOf(addr);
    const std::size_t set = setOf(line);
    const std::uint64_t want = wayKey(line, asid);
    Way *base = &ways_[set * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].key == want)
            base[w].key &= ~std::uint64_t{1};
    }
}

void
Cache::invalidateLineAllAsids(Addr addr)
{
    lastWay_ = nullptr; // the repeat precondition no longer holds
    const std::uint64_t line = lineOf(addr);
    const std::size_t set = setOf(line);
    Way *base = &ways_[set * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((base[w].key & 1) && (base[w].key >> 17) == line)
            base[w].key &= ~std::uint64_t{1};
    }
}

void
Cache::invalidateAll()
{
    lastWay_ = nullptr;
    for (Way &way : ways())
        way.key &= ~std::uint64_t{1};
}

double
Cache::missRate() const
{
    const auto total = hits_ + misses_;
    return total == 0
               ? 0.0
               : static_cast<double>(misses_) /
                     static_cast<double>(total);
}

void
Cache::clearStats()
{
    hits_ = misses_ = prefetches_ = evictions_ = 0;
}

void
Cache::reportMetrics(stats::MetricsRegistry &reg,
                     const std::string &prefix) const
{
    reg.counter(prefix + ".hits", hits_);
    reg.counter(prefix + ".misses", misses_);
    reg.counter(prefix + ".prefetches", prefetches_);
    reg.counter(prefix + ".evictions", evictions_);
    reg.gauge(prefix + ".miss_rate", missRate());
}

void
Cache::save(snapshot::Serializer &s) const
{
    s.beginStruct("cache");
    s.str(params_.name);
    s.u64(params_.sizeBytes);
    s.u32(params_.assoc);
    s.u32(params_.lineBytes);
    s.u64(tick_);
    s.u64(hits_);
    s.u64(misses_);
    s.u64(prefetches_);
    s.u64(evictions_);
    s.records(ways(), WayWireBytes, [](std::uint8_t *p, const Way &w) {
        snapshot::putLe64(p, w.key >> 17);
        snapshot::putLe16(p + 8,
                          static_cast<std::uint16_t>(w.key >> 1));
        p[10] = static_cast<std::uint8_t>(w.key & 1);
        snapshot::putLe64(p + 11, w.lastUse);
    });
    s.records(mruWays(), 4, [](std::uint8_t *p, std::uint32_t m) {
        snapshot::putLe32(p, m);
    });
    s.endStruct();
}

void
Cache::load(snapshot::Deserializer &d)
{
    d.enterStruct("cache");
    const std::string name = d.str();
    if (name != params_.name)
        d.fail("cache name mismatch: snapshot has '" + name +
               "', machine has '" + params_.name + "'");
    d.checkU64(params_.sizeBytes, params_.name + " sizeBytes");
    d.checkU32(params_.assoc, params_.name + " assoc");
    d.checkU32(params_.lineBytes, params_.name + " lineBytes");
    tick_ = d.u64();
    hits_ = d.u64();
    misses_ = d.u64();
    prefetches_ = d.u64();
    evictions_ = d.u64();
    // Bulk-unpack the way array: a sweep restores tens of
    // thousands of ways per arm, so per-field bounds-checked reads
    // would be measurable restore cost.
    const std::uint8_t *p = d.raw(numWays_ * WayWireBytes);
    poison(ways_.get(), numWays_ * sizeof(Way), false);
    for (Way &w : ways()) {
        w.key = (snapshot::le64(p) << 17) |
                (static_cast<std::uint64_t>(snapshot::le16(p + 8))
                 << 1) |
                (p[10] != 0 ? 1 : 0);
        w.lastUse = snapshot::le64(p + 11);
        p += WayWireBytes;
    }
    p = d.raw(numSets_ * 4);
    poison(mruWay_.get(), numSets_ * sizeof(std::uint32_t), false);
    for (std::uint32_t &m : mruWays()) {
        m = snapshot::le32(p);
        p += 4;
    }
    lastWay_ = nullptr; // transient; never valid across a restore
    d.leaveStruct();
}

} // namespace dlsim::mem
