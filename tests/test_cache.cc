/**
 * @file
 * Unit tests for the set-associative cache model: hit/miss
 * behaviour, LRU replacement, ASID isolation, geometry sweeps, and
 * restore targets built without zero-filled arrays.
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
 * Differential property test: the cache must agree, access for
 * access, with a naive reference LRU model over random streams.
 */
#include <list>

#include "stats/rng.hh"

namespace
{

/** Textbook set-associative LRU, kept deliberately naive. */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t size, std::uint32_t assoc)
        : assoc_(assoc), sets_(size / 64 / assoc)
    {
    }

    bool
    access(Addr addr, std::uint16_t asid)
    {
        const std::uint64_t line = addr >> 6;
        auto &set = sets_[line % sets_.size()];
        const auto key = std::make_pair(line, asid);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == key) {
                set.erase(it);
                set.push_front(key); // most recent first
                return true;
            }
        }
        set.push_front(key);
        if (set.size() > assoc_)
            set.pop_back();
        return false;
    }

  private:
    std::uint32_t assoc_;
    std::vector<std::list<std::pair<std::uint64_t,
                                    std::uint16_t>>> sets_;
};

} // namespace

class CacheVsReference : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheVsReference, AgreesOnRandomStream)
{
    const auto g = GetParam();
    Cache cache(CacheParams{"dut", g.size, g.assoc, 64});
    ReferenceCache ref(g.size, g.assoc);
    dlsim::stats::Rng rng(g.size ^ g.assoc);

    for (int i = 0; i < 20000; ++i) {
        // Mix of hot region (locality) and cold sweeps.
        const Addr addr = rng.nextBool(0.7)
                              ? (rng.nextBelow(64) * 64)
                              : (rng.nextBelow(1 << 16) * 64);
        const std::uint16_t asid =
            static_cast<std::uint16_t>(rng.nextBelow(2));
        ASSERT_EQ(cache.access(addr, asid), ref.access(addr, asid))
            << "access " << i << " addr " << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheVsReference,
    ::testing::Values(Geometry{1024, 1}, Geometry{1024, 2},
                      Geometry{4096, 4}, Geometry{32 * 1024, 8}));

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
