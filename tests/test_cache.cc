/**
 * @file
 * Unit tests for the set-associative cache model: hit/miss
 * behaviour, LRU replacement, ASID isolation, geometry sweeps, and
 * restore targets built without zero-filled arrays; and one
 * reference-LRU differential test for all five set-associative
 * structures (cache, TLB, BTB, ABTB, indirect predictor).
 */

#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "snapshot/serializer.hh"

using namespace dlsim::mem;

namespace
{

CacheParams
tiny()
{
    // 4 sets x 2 ways x 64B lines = 512B.
    return CacheParams{"tiny", 512, 2, 64};
}

} // namespace

TEST(Cache, ColdMissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(0x1000, 0));
    EXPECT_TRUE(c.access(0x1000, 0));
    EXPECT_TRUE(c.access(0x1030, 0)); // same 64B line
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, DistinctLinesMiss)
{
    Cache c(tiny());
    c.access(0x0, 0);
    EXPECT_FALSE(c.access(0x40, 0));
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    Cache c(tiny()); // 2-way: 3 conflicting lines evict the oldest
    // Lines mapping to the same set differ by 4*64 = 256 bytes.
    c.access(0x000, 0);
    c.access(0x100, 0);
    c.access(0x000, 0);      // refresh line 0
    c.access(0x200, 0);      // evicts 0x100 (LRU)
    EXPECT_TRUE(c.contains(0x000, 0));
    EXPECT_FALSE(c.contains(0x100, 0));
    EXPECT_TRUE(c.contains(0x200, 0));
}

TEST(Cache, AsidIsolation)
{
    Cache c(tiny());
    c.access(0x1000, 1);
    EXPECT_FALSE(c.contains(0x1000, 2));
    EXPECT_FALSE(c.access(0x1000, 2)); // different process: miss
}

TEST(Cache, InvalidateLineHonorsAsid)
{
    // Two processes cache the same line; a targeted invalidation of
    // one address space must not clobber the other's copy.
    Cache c(tiny());
    c.access(0x1000, 1);
    c.access(0x1000, 2);
    c.invalidateLine(0x1000, 2);
    EXPECT_TRUE(c.contains(0x1000, 1));
    EXPECT_FALSE(c.contains(0x1000, 2));
}

TEST(Cache, InvalidateLineMissesOtherAsid)
{
    Cache c(tiny());
    c.access(0x1000, 1);
    c.invalidateLine(0x1000, 2); // no-op: asid 2 holds nothing
    EXPECT_TRUE(c.contains(0x1000, 1));
}

TEST(Cache, InvalidateLineAllAsids)
{
    // The coherence variant is the sledgehammer: a physical snoop
    // drops every address space's copy.
    Cache c(tiny());
    c.access(0x1000, 1);
    c.access(0x1000, 2);
    c.invalidateLineAllAsids(0x1000);
    EXPECT_FALSE(c.contains(0x1000, 1));
    EXPECT_FALSE(c.contains(0x1000, 2));
}

TEST(Cache, PrefetchAccounting)
{
    Cache c(tiny());
    c.prefetch(0x1000, 0);
    EXPECT_EQ(c.prefetches(), 1u);
    EXPECT_EQ(c.accesses(), 0u); // demand stats untouched
    c.prefetch(0x1000, 0);       // already present: not a fill
    EXPECT_EQ(c.prefetches(), 1u);
    EXPECT_TRUE(c.access(0x1000, 0)); // demand access hits the fill
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, PrefetchFillsCountEvictions)
{
    Cache c(tiny()); // 2-way; same set every 0x100
    c.access(0x000, 0);
    c.access(0x100, 0);
    c.prefetch(0x200, 0); // set full: the fill evicts the LRU
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_FALSE(c.contains(0x000, 0));
    EXPECT_TRUE(c.contains(0x100, 0));
    EXPECT_TRUE(c.contains(0x200, 0));
}

TEST(Cache, DeterministicFillAfterInvalidation)
{
    // A targeted invalidation opens a hole in a full set; the next
    // fill must take the hole (first invalid way) and leave the
    // surviving entry's LRU position intact.
    Cache c(tiny());
    c.access(0x000, 0);
    c.access(0x100, 0);
    c.invalidateLine(0x000, 0);
    c.access(0x200, 0); // fills the hole, no eviction
    EXPECT_EQ(c.evictions(), 0u);
    EXPECT_TRUE(c.contains(0x100, 0));
    EXPECT_TRUE(c.contains(0x200, 0));
    c.access(0x300, 0); // set full again: evicts 0x100, the LRU
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_FALSE(c.contains(0x100, 0));
    EXPECT_TRUE(c.contains(0x200, 0));
    EXPECT_TRUE(c.contains(0x300, 0));
}

TEST(Cache, HitInLaterWayAfterEarlierInvalidation)
{
    // Regression guard for the two-pass lookup: a hit residing in a
    // later way than an invalidated one must still be found (a
    // single fused hit+victim scan that breaks at the first invalid
    // way would miss it and double-allocate).
    Cache c(tiny());
    c.access(0x000, 0); // way 0
    c.access(0x100, 0); // way 1
    c.invalidateLine(0x000, 0);
    EXPECT_TRUE(c.access(0x100, 0)); // must hit, not refill
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, InvalidateAll)
{
    Cache c(tiny());
    c.access(0x0, 0);
    c.access(0x40, 0);
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0x0, 0));
    EXPECT_FALSE(c.contains(0x40, 0));
}

TEST(Cache, MissRateAndClearStats)
{
    Cache c(tiny());
    c.access(0x0, 0);
    c.access(0x0, 0);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
    c.clearStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.0);
    EXPECT_TRUE(c.contains(0x0, 0)); // contents survive
}

TEST(Cache, NonPowerOfTwoSets)
{
    // 12 sets (e.g. a 12MB LLC shape) must index correctly.
    Cache c(CacheParams{"llc", 12 * 64 * 2, 2, 64});
    for (Addr a = 0; a < 64 * 1024; a += 64)
        c.access(a, 0);
    EXPECT_GT(c.misses(), 0u);
    // Re-touch the last lines: they must still be present.
    EXPECT_TRUE(c.contains(64 * 1024 - 64, 0));
}

TEST(Cache, FullyUsedCapacityNoEvictionWithinWorkingSet)
{
    // Working set exactly equal to capacity, accessed round-robin,
    // never conflicts with LRU in a set-assoc cache when lines map
    // uniformly.
    Cache c(CacheParams{"c", 4096, 4, 64}); // 64 lines
    for (int round = 0; round < 3; ++round) {
        for (Addr a = 0; a < 4096; a += 64)
            c.access(a, 0);
    }
    EXPECT_EQ(c.misses(), 64u); // only the cold round misses
}

/** Geometry sweep: every configuration behaves sanely. */
struct Geometry
{
    std::uint64_t size;
    std::uint32_t assoc;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometry, ColdThenWarm)
{
    const auto g = GetParam();
    Cache c(CacheParams{"g", g.size, g.assoc, 64});
    const Addr span = g.size / 2; // half capacity: must all fit
    for (Addr a = 0; a < span; a += 64)
        EXPECT_FALSE(c.access(a, 0));
    for (Addr a = 0; a < span; a += 64)
        EXPECT_TRUE(c.access(a, 0)) << "addr " << a;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometry,
    ::testing::Values(Geometry{1024, 1}, Geometry{4096, 2},
                      Geometry{32 * 1024, 8},
                      Geometry{256 * 1024, 8},
                      Geometry{12 * 1024 * 1024, 16}));

/**
 * Differential property tests: the cache and the four other
 * set-associative structures must agree, operation for operation,
 * with a naive reference LRU model over random streams — hit or
 * miss, payload, eviction count and which entry a fill evicted.
 */
#include <list>
#include <map>
#include <optional>

#include "branch/btb.hh"
#include "branch/indirect.hh"
#include "core/abtb.hh"
#include "mem/tlb.hh"
#include "stats/rng.hh"

namespace
{

/** Textbook set-associative LRU, kept deliberately naive: each set
 *  is a list of (tag, asid) keys, most recent first, and a key's
 *  set is its index modulo the set count. */
class ReferenceLru
{
  public:
    using Key = std::pair<std::uint64_t, std::uint16_t>;

    ReferenceLru(std::uint64_t sets, std::uint32_t assoc)
        : assoc_(assoc), sets_(sets)
    {
    }

    /** Outcome of one access: hit, or the key a fill evicted. */
    struct Outcome
    {
        bool hit = false;
        std::optional<Key> victim;
    };

    /** Look `key` up in the set of `index`; a hit becomes most
     *  recent, and with `fill` a miss inserts it, evicting the least
     *  recent key of a full set. */
    Outcome
    access(std::uint64_t index, Key key, bool fill = true)
    {
        auto &set = sets_[index % sets_.size()];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == key) {
                set.splice(set.begin(), set, it);
                return {true, std::nullopt};
            }
        }
        if (!fill)
            return {};
        set.push_front(key);
        if (set.size() <= assoc_)
            return {};
        const Key victim = set.back();
        set.pop_back();
        return {false, victim};
    }

    /** Invalidate every key `drop` accepts. */
    template <typename Pred>
    void
    erase(Pred drop)
    {
        for (auto &set : sets_)
            set.remove_if(drop);
    }

  private:
    std::uint32_t assoc_;
    std::vector<std::list<Key>> sets_;
};

} // namespace

class CacheVsReference : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheVsReference, AgreesOnRandomStream)
{
    const auto g = GetParam();
    Cache cache(CacheParams{"dut", g.size, g.assoc, 64});
    ReferenceLru ref(g.size / 64 / g.assoc, g.assoc);
    dlsim::stats::Rng rng(g.size ^ g.assoc);
    std::uint64_t evictions = 0;

    for (int i = 0; i < 20000; ++i) {
        // Mix of hot region (locality) and cold sweeps.
        const Addr addr = rng.nextBool(0.7)
                              ? (rng.nextBelow(64) * 64)
                              : (rng.nextBelow(1 << 16) * 64);
        const std::uint16_t asid =
            static_cast<std::uint16_t>(rng.nextBelow(2));
        const std::uint64_t line = addr >> 6;
        if (rng.nextBool(0.05)) {
            cache.invalidateLine(addr, asid);
            ref.erase([&](auto k) { return k == std::pair{line, asid}; });
            continue;
        }
        if (rng.nextBool(0.02)) {
            cache.invalidateLineAllAsids(addr);
            ref.erase([&](auto k) { return k.first == line; });
            continue;
        }
        const auto want = ref.access(line, {line, asid});
        ASSERT_EQ(cache.access(addr, asid), want.hit)
            << "access " << i << " addr " << addr;
        if (want.victim) {
            ++evictions;
            ASSERT_FALSE(cache.contains(want.victim->first << 6,
                                        want.victim->second))
                << "access " << i << ": wrong victim";
        }
        ASSERT_EQ(cache.evictions(), evictions) << "access " << i;
    }
    EXPECT_GT(evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheVsReference,
    ::testing::Values(Geometry{1024, 1}, Geometry{1024, 2},
                      Geometry{4096, 4}, Geometry{32 * 1024, 8},
                      Geometry{12 * 4 * 64, 4}));

/** Entries and associativity of a structure under test. */
struct Shape
{
    std::uint32_t entries;
    std::uint32_t assoc;
};

class TableVsReference : public ::testing::TestWithParam<Shape>
{
};

TEST_P(TableVsReference, TlbAgrees)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(TlbParams{"dut", entries, assoc});
    ReferenceLru ref(entries / assoc, assoc);
    dlsim::stats::Rng rng(entries * 31 + assoc);
    // Where each key lives, from lastEntryPtr(): a fill must land
    // on the evicted key's entry, or on one no key holds.
    std::map<ReferenceLru::Key, const Tlb::Entry *> slot;
    std::uint64_t evictions = 0;

    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t vpn = rng.nextBelow(3 * entries);
        const auto asid = static_cast<std::uint16_t>(rng.nextBelow(3));
        if (rng.nextBool(0.01)) {
            tlb.flushAsid(asid);
            ref.erase([&](auto k) { return k.second == asid; });
            std::erase_if(slot,
                          [&](auto &kv) { return kv.first.second == asid; });
            continue;
        }
        const ReferenceLru::Key key{vpn, asid};
        const auto want = ref.access(vpn, key);
        ASSERT_EQ(tlb.access(vpn << PageShift, asid), want.hit)
            << "access " << i;
        const Tlb::Entry *at = tlb.lastEntryPtr();
        if (want.hit) {
            ASSERT_EQ(at, slot[key]) << "access " << i;
        } else if (want.victim) {
            ++evictions;
            ASSERT_EQ(at, slot[*want.victim])
                << "access " << i << ": wrong victim";
            slot.erase(*want.victim);
        } else {
            for (const auto &[k, e] : slot)
                ASSERT_NE(at, e) << "access " << i << ": evicted a key";
        }
        slot[key] = at;
        ASSERT_EQ(tlb.evictions(), evictions) << "access " << i;
    }
    EXPECT_GT(evictions, 0u);
}

TEST_P(TableVsReference, BtbAgrees)
{
    const auto [entries, assoc] = GetParam();
    dlsim::branch::Btb btb(dlsim::branch::BtbParams{entries, assoc});
    ReferenceLru ref(entries / assoc, assoc);
    dlsim::stats::Rng rng(entries * 37 + assoc);
    std::map<Addr, Addr> target;
    std::uint64_t evictions = 0;

    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x400000 + rng.nextBelow(3 * entries) * 4;
        const ReferenceLru::Key key{pc >> 2, 0};
        const auto op = rng.nextBelow(100);
        if (op < 45) {
            const auto got = btb.lookup(pc);
            ASSERT_EQ(got.has_value(), ref.access(pc >> 2, key, false).hit)
                << "lookup " << i;
            if (got) {
                ASSERT_EQ(*got, target[pc]) << "lookup " << i;
            }
        } else if (op < 97) { // a hit retargets the entry in place
            target[pc] = 0x800000 + rng.nextBelow(4) * 16;
            btb.update(pc, target[pc]);
            const auto want = ref.access(pc >> 2, key);
            if (want.victim) {
                ++evictions;
                ASSERT_FALSE(btb.lookup(want.victim->first << 2))
                    << "update " << i << ": wrong victim";
            }
            ASSERT_EQ(btb.evictions(), evictions) << "update " << i;
        } else {
            btb.invalidate(pc);
            ref.erase([&](auto k) { return k == key; });
        }
    }
    EXPECT_GT(evictions, 0u);
}

TEST_P(TableVsReference, AbtbAgrees)
{
    const auto [entries, assoc] = GetParam();
    dlsim::core::Abtb abtb(dlsim::core::AbtbParams{entries, assoc});
    ReferenceLru ref(entries / assoc, assoc);
    dlsim::stats::Rng rng(entries * 41 + assoc);
    std::map<ReferenceLru::Key, Addr> function;
    std::uint64_t evictions = 0;

    for (int i = 0; i < 20000; ++i) {
        const Addr tramp = 0x401000 + rng.nextBelow(2 * entries) * 16;
        const auto asid = static_cast<std::uint16_t>(rng.nextBelow(2));
        const ReferenceLru::Key key{tramp, asid};
        const auto op = rng.nextBelow(100);
        if (op < 50) {
            const auto got = abtb.lookup(tramp, asid);
            ASSERT_EQ(got.has_value(),
                      ref.access(tramp >> 4, key, false).hit)
                << "lookup " << i;
            if (got) {
                ASSERT_EQ(got->function, function[key]) << "lookup " << i;
            }
        } else if (op < 99) { // a hit remaps the entry in place
            function[key] = 0x7f0000000000 + rng.nextBelow(4);
            abtb.insert(tramp, function[key], 0x600000, asid);
            const auto want = ref.access(tramp >> 4, key);
            if (want.victim) {
                ++evictions;
                ASSERT_FALSE(abtb.lookup(want.victim->first,
                                         want.victim->second))
                    << "insert " << i << ": wrong victim";
            }
            ASSERT_EQ(abtb.evictions(), evictions) << "insert " << i;
        } else {
            abtb.flushAll();
            ref.erase([](auto) { return true; });
        }
    }
    EXPECT_GT(evictions, 0u);
}

TEST_P(TableVsReference, IndirectPredictorAgrees)
{
    const auto [entries, assoc] = GetParam();
    dlsim::branch::IndirectPredictorParams p;
    p.enabled = true;
    p.entries = entries;
    p.assoc = assoc;
    dlsim::branch::IndirectPredictor ip(p);
    ReferenceLru ref(entries / assoc, assoc);
    dlsim::stats::Rng rng(entries * 43 + assoc);
    std::map<Addr, Addr> target;
    std::uint64_t evictions = 0;

    // With an empty path history and pc < 2^19 the predictor's tag
    // is pc >> 2, so the model can key and index by it.
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x1000 + rng.nextBelow(3 * entries) * 4;
        const ReferenceLru::Key key{pc >> 2, 0};
        const auto op = rng.nextBelow(100);
        if (op < 50) {
            const auto got = ip.predict(pc);
            ASSERT_EQ(got.has_value(), ref.access(pc >> 2, key, false).hit)
                << "predict " << i;
            if (got) {
                ASSERT_EQ(*got, target[pc]) << "predict " << i;
            }
        } else if (op < 99) {
            target[pc] = 0x900000 + rng.nextBelow(4) * 16;
            ip.update(pc, target[pc]);
            const auto want = ref.access(pc >> 2, key);
            if (want.victim) {
                ++evictions;
                ASSERT_FALSE(ip.predict(want.victim->first << 2))
                    << "update " << i << ": wrong victim";
            }
        } else {
            ip.reset();
            ref.erase([](auto) { return true; });
        }
    }
    EXPECT_GT(evictions, 0u);
}

// 12 sets exercise the modulo indexing the LLC needs.
INSTANTIATE_TEST_SUITE_P(Shapes, TableVsReference,
                         ::testing::Values(Shape{8, 1}, Shape{16, 2},
                                           Shape{64, 4}, Shape{48, 4},
                                           Shape{96, 8}));

namespace
{

std::vector<std::uint8_t>
savedCache(const Cache &c)
{
    return dlsim::snapshot::serialize(
        0, [&](dlsim::snapshot::Serializer &s) {
            s.beginSection("c");
            c.save(s);
            s.endSection();
        });
}

} // namespace

TEST(Cache, RestoreTargetLoadsEveryByte)
{
    Cache warm(CacheParams{"c", 4096, 4, 64});
    dlsim::stats::Rng rng(5);
    for (int i = 0; i < 500; ++i)
        warm.access(rng.nextBelow(1 << 12) * 64,
                    static_cast<std::uint16_t>(rng.nextBelow(2)));
    const auto bytes = savedCache(warm);

    // Built without zero-filling its arrays: load() must write
    // every way and MRU entry, or the saved bytes would differ.
    Cache restored(CacheParams{"c", 4096, 4, 64},
                   /*for_restore=*/true);
    dlsim::snapshot::Deserializer d(bytes.data(), bytes.size());
    d.enterSection("c");
    restored.load(d);
    d.leaveSection();
    EXPECT_EQ(savedCache(restored), bytes);
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.nextBelow(1 << 12) * 64;
        ASSERT_EQ(restored.access(a, 0), warm.access(a, 0));
    }
}

#if defined(__SANITIZE_ADDRESS__)
// The sanitizer build poisons a restore target's arrays until load()
// writes them: reading one first is reported, not silently served
// from uninitialised memory.
TEST(CacheDeathTest, RestoreTargetIsPoisonedUntilLoad)
{
    Cache target(tiny(), /*for_restore=*/true);
    EXPECT_DEATH(target.contains(0x1000, 0), "use-after-poison");
}
#endif
