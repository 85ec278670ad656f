/**
 * @file
 * Tests for the assembled memory hierarchy: inclusion-free fill
 * behaviour, latency accounting, TLB flush integration, and the
 * snoop filter against an always-scanning reference.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"
#include "snapshot/serializer.hh"
#include "stats/rng.hh"

using namespace dlsim;
using namespace dlsim::mem;

namespace
{

HierarchyParams
smallParams()
{
    HierarchyParams p;
    p.l1i = CacheParams{"l1i", 1024, 2, 64};
    p.l1d = CacheParams{"l1d", 1024, 2, 64};
    p.l2 = CacheParams{"l2", 4096, 4, 64};
    p.l3 = CacheParams{"l3", 16384, 8, 64};
    p.itlb = TlbParams{"itlb", 4, 2};
    p.dtlb = TlbParams{"dtlb", 4, 2};
    return p;
}

} // namespace

TEST(Hierarchy, ColdFetchCostsFullMissChain)
{
    Hierarchy h(smallParams());
    const auto r = h.fetch(0x400000, 0);
    EXPECT_FALSE(r.tlbHit);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_FALSE(r.l2Hit);
    EXPECT_FALSE(r.l3Hit);
    EXPECT_EQ(r.extraCycles, smallParams().walkLatency +
                                 smallParams().l3Latency +
                                 smallParams().memLatency);
}

TEST(Hierarchy, WarmFetchIsFree)
{
    Hierarchy h(smallParams());
    h.fetch(0x400000, 0);
    const auto r = h.fetch(0x400000, 0);
    EXPECT_TRUE(r.tlbHit);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.extraCycles, 0u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    Hierarchy h(smallParams());
    // Fill L1I (1KB, 2-way, 8 sets): lines at stride 512 conflict.
    h.fetch(0x0, 0);
    h.fetch(0x200, 0);
    h.fetch(0x400, 0); // evicts 0x0 from L1, still in L2
    const auto r = h.fetch(0x0, 0);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l2Hit);
    EXPECT_EQ(r.extraCycles, smallParams().l2Latency);
}

TEST(Hierarchy, SplitL1SharedL2)
{
    Hierarchy h(smallParams());
    h.fetch(0x1000, 0);
    // The same line through the D side: L1D misses but L2 hits.
    const auto r = h.data(0x1000, 0);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l2Hit);
}

TEST(Hierarchy, DataAndInstTlbsAreSeparate)
{
    Hierarchy h(smallParams());
    h.fetch(0x2000, 0);
    const auto r = h.data(0x2000, 0);
    EXPECT_FALSE(r.tlbHit); // D-TLB was not warmed by the fetch
}

TEST(Hierarchy, FlushTlbsKeepsCaches)
{
    Hierarchy h(smallParams());
    h.fetch(0x3000, 0);
    h.flushTlbs();
    const auto r = h.fetch(0x3000, 0);
    EXPECT_FALSE(r.tlbHit);
    EXPECT_TRUE(r.l1Hit); // caches unaffected (physical tags)
}

TEST(Hierarchy, ClearStatsKeepsContents)
{
    Hierarchy h(smallParams());
    h.fetch(0x1000, 0);
    h.clearStats();
    EXPECT_EQ(h.l1i().misses(), 0u);
    EXPECT_TRUE(h.fetch(0x1000, 0).l1Hit);
}

TEST(Hierarchy, DefaultGeometryMatchesPaperTestbedClass)
{
    const HierarchyParams p;
    EXPECT_EQ(p.l1i.sizeBytes, 32u * 1024);
    EXPECT_EQ(p.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(p.l3.sizeBytes, 12u * 1024 * 1024); // 12MB LLC
}

namespace
{

/**
 * The hierarchy without a snoop filter: the same six structures,
 * walked the way Hierarchy::fetch()/data() walk them, where every
 * all-ASID snoop scans L1D, L2 and L3.
 */
struct Reference
{
    explicit Reference(const HierarchyParams &params)
        : p(params), l1i(p.l1i), l1d(p.l1d), l2(p.l2), l3(p.l3),
          itlb(p.itlb), dtlb(p.dtlb)
    {
    }

    AccessResult
    through(Tlb &tlb, Cache &l1, Addr addr, std::uint16_t asid)
    {
        AccessResult res;
        res.tlbHit = tlb.access(addr, asid);
        if (!res.tlbHit)
            res.extraCycles += p.walkLatency;
        res.l1Hit = l1.access(addr, asid);
        if (res.l1Hit)
            return res;
        res.l2Hit = l2.access(addr, asid);
        if (!res.l2Hit) {
            res.l3Hit = l3.access(addr, asid);
            res.extraCycles += p.l3Latency;
            if (!res.l3Hit)
                res.extraCycles += p.memLatency;
        } else {
            res.extraCycles += p.l2Latency;
        }
        return res;
    }

    AccessResult fetch(Addr a, std::uint16_t asid)
    {
        return through(itlb, l1i, a, asid);
    }
    AccessResult data(Addr a, std::uint16_t asid)
    {
        return through(dtlb, l1d, a, asid);
    }
    void
    snoop(Addr a)
    {
        l1d.invalidateLineAllAsids(a);
        l2.invalidateLineAllAsids(a);
        l3.invalidateLineAllAsids(a);
    }
    void
    invalidate(Addr a, std::uint16_t asid)
    {
        l1d.invalidateLine(a, asid);
        l2.invalidateLine(a, asid);
        l3.invalidateLine(a, asid);
    }

    /** The same record order as Hierarchy::save(). */
    void
    save(snapshot::Serializer &s) const
    {
        l1i.save(s);
        l1d.save(s);
        l2.save(s);
        l3.save(s);
        itlb.save(s);
        dtlb.save(s);
    }
    void
    load(snapshot::Deserializer &d)
    {
        l1i.load(d);
        l1d.load(d);
        l2.load(d);
        l3.load(d);
        itlb.load(d);
        dtlb.load(d);
    }

    HierarchyParams p;
    Cache l1i, l1d, l2, l3;
    Tlb itlb, dtlb;
};

template <typename T>
std::vector<std::uint8_t>
saved(const T &structure)
{
    return snapshot::serialize(0, [&](snapshot::Serializer &s) {
        s.beginSection("h");
        structure.save(s);
        s.endSection();
    });
}

template <typename T>
void
loadInto(T &structure, const std::vector<std::uint8_t> &bytes)
{
    snapshot::Deserializer d(bytes.data(), bytes.size());
    d.enterSection("h");
    structure.load(d);
    d.leaveSection();
}

void
expectSameCounters(const Cache &a, const Cache &b)
{
    EXPECT_EQ(a.hits(), b.hits()) << a.params().name;
    EXPECT_EQ(a.misses(), b.misses()) << a.params().name;
    EXPECT_EQ(a.prefetches(), b.prefetches()) << a.params().name;
    EXPECT_EQ(a.evictions(), b.evictions()) << a.params().name;
}

void
expectSameResult(const AccessResult &a, const AccessResult &b)
{
    EXPECT_EQ(a.tlbHit, b.tlbHit);
    EXPECT_EQ(a.l1Hit, b.l1Hit);
    EXPECT_EQ(a.l2Hit, b.l2Hit);
    EXPECT_EQ(a.l3Hit, b.l3Hit);
    EXPECT_EQ(a.extraCycles, b.extraCycles);
}

/**
 * Drive a Hierarchy and the Reference with one random sequence and
 * require identical state after every step. The line pool puts
 * lines SnoopFilterEntries apart, so they share a filter entry, and
 * is larger than L3 across the three ASIDs, so lines come and go.
 * Midway the hierarchy is rewound to a checkpoint in place, and
 * later replaced by a restore target loaded from its bytes.
 * @param filtered Set to the hierarchy's filteredSnoops().
 */
void
runAgainstReference(const HierarchyParams &params, std::uint64_t seed,
                    std::uint64_t &filtered)
{
    constexpr int Steps = 3000;
    const Addr alias = Hierarchy::SnoopFilterEntries * 64;
    std::vector<Addr> pool;
    for (Addr k = 0; k < 8; ++k) {
        for (Addr line = 0; line < 16; ++line)
            pool.push_back(0x10000000 + k * alias + line * 64);
    }

    auto h = std::make_unique<Hierarchy>(params);
    Reference ref(params);
    dlsim::stats::Rng rng(seed);
    Hierarchy::RepeatRef memo;
    Addr memoAddr = 0;
    std::uint16_t memoAsid = 0;
    bool lastWasFetch = false;
    Addr lastFetch = 0;
    std::uint16_t lastFetchAsid = 0;
    Addr lastSnoop = pool[0];
    std::vector<std::uint8_t> checkpoint;

    for (int step = 0; step < Steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const Addr addr =
            pool[rng.nextBelow(pool.size())] + rng.nextBelow(64);
        const auto asid = static_cast<std::uint16_t>(rng.nextBelow(3));
        const std::uint64_t op = rng.nextBelow(16);
        bool fetched = false;
        if (step == Steps / 4) {
            checkpoint = saved(*h);
        } else if (step == Steps / 4 + 300) {
            // Rewind in place: the filter's facts about the
            // contents since the checkpoint must not survive.
            loadInto(*h, checkpoint);
            loadInto(ref, checkpoint);
            memo = {};
        } else if (step == Steps / 2) {
            // The hierarchy continues as a restore target
            // (uninitialised caches, empty filter).
            const auto bytes = saved(*h);
            ASSERT_EQ(bytes, saved(ref));
            h = std::make_unique<Hierarchy>(params,
                                            /*for_restore=*/true);
            loadInto(*h, bytes);
            loadInto(ref, bytes);
            memo = {};
        } else if (op < 3) {
            expectSameResult(h->fetch(addr, asid),
                             ref.fetch(addr, asid));
            fetched = true;
            lastFetch = addr;
            lastFetchAsid = asid;
        } else if (op < 4 && lastWasFetch) {
            // Same-line repeat fetch (fetchRepeat's precondition:
            // the previous operation fetched this line).
            h->fetchRepeat();
            ref.fetch(lastFetch, lastFetchAsid);
            fetched = true;
        } else if (op < 7) {
            expectSameResult(h->data(addr, asid),
                             ref.data(addr, asid));
            memo = h->dataRef();
            memoAddr = addr;
            memoAsid = asid;
        } else if (op < 8) {
            // Verified-touch repeat of an older data access.
            const bool hit = h->dataRepeatAt(memo, memoAddr, memoAsid);
            const AccessResult r = ref.data(memoAddr, memoAsid);
            if (hit) {
                EXPECT_TRUE(r.tlbHit && r.l1Hit);
            } else {
                // The fast path touched nothing; take the walk.
                h->data(memoAddr, memoAsid);
            }
        } else if (op < 14) {
            // Snoops, half of them repeating the previous line so
            // the filter has something to answer.
            const Addr s = rng.nextBool(0.5) ? lastSnoop : addr;
            h->invalidateDataLine(s);
            ref.snoop(s);
            lastSnoop = s;
        } else if (op < 15) {
            h->invalidateDataLine(addr, asid);
            ref.invalidate(addr, asid);
        } else {
            h->flushTlbs();
            ref.itlb.flushAll();
            ref.dtlb.flushAll();
        }
        lastWasFetch = fetched;

        expectSameCounters(h->l1i(), ref.l1i);
        expectSameCounters(h->l1d(), ref.l1d);
        expectSameCounters(h->l2(), ref.l2);
        expectSameCounters(h->l3(), ref.l3);
        EXPECT_EQ(h->itlb().hits(), ref.itlb.hits());
        EXPECT_EQ(h->itlb().misses(), ref.itlb.misses());
        EXPECT_EQ(h->dtlb().hits(), ref.dtlb.hits());
        EXPECT_EQ(h->dtlb().misses(), ref.dtlb.misses());
        for (const Addr line : pool) {
            for (std::uint16_t a = 0; a < 3; ++a) {
                ASSERT_EQ(h->l1i().contains(line, a),
                          ref.l1i.contains(line, a));
                ASSERT_EQ(h->l1d().contains(line, a),
                          ref.l1d.contains(line, a));
                ASSERT_EQ(h->l2().contains(line, a),
                          ref.l2.contains(line, a));
                ASSERT_EQ(h->l3().contains(line, a),
                          ref.l3.contains(line, a));
            }
        }
        ASSERT_EQ(saved(*h), saved(ref));
        filtered = h->filteredSnoops();
    }
}

} // namespace

TEST(SnoopFilter, MatchesAlwaysScanningReference)
{
    for (const std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        // The filter must have answered a good share of the ~1100
        // snoops, or this test proves nothing.
        std::uint64_t filtered = 0;
        runAgainstReference(smallParams(), seed, filtered);
        EXPECT_GT(filtered, 200u);
    }
}

TEST(SnoopFilter, OffWhenLineSizesDiffer)
{
    HierarchyParams p = smallParams();
    p.l2 = CacheParams{"l2", 4096, 4, 128};
    std::uint64_t filtered = 1;
    runAgainstReference(p, 4, filtered);
    EXPECT_EQ(filtered, 0u);
}
