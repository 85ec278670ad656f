/**
 * @file
 * Unit tests for the TrampolineSkipUnit: the retire-time population
 * heuristic, target substitution, and all four invalidation paths
 * of paper §3.2-§3.4.
 */

#include <gtest/gtest.h>

#include "core/skip_unit.hh"

using namespace dlsim::core;
using dlsim::isa::Opcode;

namespace
{

constexpr Addr Tramp = 0x401020;
constexpr Addr Func = 0x7f0000001000;
constexpr Addr GotSlot = 0x403010;

SkipUnitParams
smallParams()
{
    SkipUnitParams p;
    p.abtb.entries = 16;
    p.abtb.assoc = 4;
    return p;
}

/** Feed the canonical trampoline retire pattern. */
void
feedPattern(TrampolineSkipUnit &unit, Addr tramp = Tramp,
            Addr func = Func, Addr got = GotSlot)
{
    unit.retireControl(Opcode::CallRel, tramp, 0);
    unit.retireControl(Opcode::JmpIndMem, func, got);
}

} // namespace

TEST(SkipUnit, CallThenMemIndirectJumpPopulates)
{
    TrampolineSkipUnit unit(smallParams());
    feedPattern(unit);
    const auto e = unit.substituteTarget(Tramp);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->function, Func);
    EXPECT_EQ(unit.stats().populations, 1u);
    EXPECT_EQ(unit.stats().substitutions, 1u);
}

TEST(SkipUnit, ThreadSwitchBreaksPattern)
{
    // One thread's call must not pair with another thread's first
    // indirect jump: the kernel code between them ends the pattern.
    TrampolineSkipUnit unit(smallParams());
    unit.retireControl(Opcode::CallRel, Tramp, 0);
    unit.threadSwitch();
    unit.retireControl(Opcode::JmpIndMem, Func, GotSlot);
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
    EXPECT_EQ(unit.stats().populations, 0u);
}

TEST(SkipUnit, GeometryErrorNamesTheFlag)
{
    const auto geometry = [](std::uint32_t entries,
                             std::uint32_t assoc, std::uint32_t bits,
                             std::uint32_t hashes) {
        SkipUnitParams p;
        p.abtb.entries = entries;
        p.abtb.assoc = assoc;
        p.bloomBits = bits;
        p.bloomHashes = hashes;
        return geometryError(p);
    };
    EXPECT_EQ(geometry(256, 4, 1024, 4), "");
    EXPECT_EQ(geometry(4, 4, 64, 1), "");
    EXPECT_EQ(geometry(8, 16, 1024, 4).rfind("--abtb-assoc:", 0), 0u);
    EXPECT_EQ(geometry(8, 0, 1024, 4).rfind("--abtb-assoc:", 0), 0u);
    // 3 sets, and 8 entries that 3-way sets cannot hold exactly.
    EXPECT_EQ(geometry(12, 4, 1024, 4).rfind("--abtb-entries:", 0),
              0u);
    EXPECT_EQ(geometry(8, 3, 1024, 4).rfind("--abtb-entries:", 0),
              0u);
    EXPECT_EQ(geometry(256, 4, 100, 4).rfind("--bloom-bits:", 0), 0u);
    EXPECT_EQ(geometry(256, 4, 32, 4).rfind("--bloom-bits:", 0), 0u);
    EXPECT_EQ(geometry(256, 4, 1024, 0).rfind("--bloom-hashes:", 0),
              0u);
}

TEST(SkipUnit, RegisterIndirectJumpDoesNotPopulate)
{
    // No guarded load source -> must not populate (§3.2).
    TrampolineSkipUnit unit(smallParams());
    unit.retireControl(Opcode::CallRel, Tramp, 0);
    unit.retireControl(Opcode::JmpIndReg, Func, 0);
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
    EXPECT_EQ(unit.stats().populations, 0u);
}

TEST(SkipUnit, ReturnAfterCallDoesNotPopulate)
{
    // call f; f: ret — a return is indirect but not a trampoline.
    TrampolineSkipUnit unit(smallParams());
    unit.retireControl(Opcode::CallRel, Tramp, 0);
    unit.retireControl(Opcode::Ret, 0x400100, 0x7ffffff0);
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
}

TEST(SkipUnit, InterveningInstructionBreaksPattern)
{
    TrampolineSkipUnit unit(smallParams());
    unit.retireControl(Opcode::CallRel, Tramp, 0);
    unit.retireOther(); // e.g. the callee starts with push
    unit.retireControl(Opcode::JmpIndMem, Func, GotSlot);
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
}

TEST(SkipUnit, CallAfterCallRearmsPattern)
{
    TrampolineSkipUnit unit(smallParams());
    unit.retireControl(Opcode::CallRel, 0x111110, 0);
    unit.retireControl(Opcode::CallRel, Tramp, 0); // new pattern
    unit.retireControl(Opcode::JmpIndMem, Func, GotSlot);
    EXPECT_FALSE(unit.substituteTarget(0x111110).has_value());
    EXPECT_TRUE(unit.substituteTarget(Tramp).has_value());
}

TEST(SkipUnit, IndirectCallAlsoArmsPattern)
{
    // call *reg to a trampoline-shaped callee memoizes too.
    TrampolineSkipUnit unit(smallParams());
    unit.retireControl(Opcode::CallIndReg, Tramp, 0);
    unit.retireControl(Opcode::JmpIndMem, Func, GotSlot);
    EXPECT_TRUE(unit.substituteTarget(Tramp).has_value());
}

TEST(SkipUnit, StoreToGuardedSlotFlushes)
{
    TrampolineSkipUnit unit(smallParams());
    feedPattern(unit);
    unit.retireStore(GotSlot);
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
    EXPECT_EQ(unit.stats().storeFlushes, 1u);
}

TEST(SkipUnit, StoreElsewhereDoesNotFlush)
{
    TrampolineSkipUnit unit(smallParams());
    feedPattern(unit);
    // A stack push far from the GOT: overwhelmingly a bloom miss;
    // assert no flush was recorded for a non-colliding address.
    for (Addr a = 0x7ffffff000; a < 0x7ffffff100; a += 8) {
        if (unit.bloom().mayContain(a))
            continue; // skip the (rare) colliding address
        unit.retireStore(a);
    }
    EXPECT_TRUE(unit.substituteTarget(Tramp).has_value());
    EXPECT_EQ(unit.stats().storeFlushes, 0u);
}

TEST(SkipUnit, StoreBreaksCallPattern)
{
    TrampolineSkipUnit unit(smallParams());
    unit.retireControl(Opcode::CallRel, Tramp, 0);
    unit.retireStore(0x7ffffff000);
    unit.retireControl(Opcode::JmpIndMem, Func, GotSlot);
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
}

TEST(SkipUnit, CoherenceInvalidationFlushes)
{
    TrampolineSkipUnit unit(smallParams());
    feedPattern(unit);
    unit.coherenceInvalidate(GotSlot);
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
    EXPECT_EQ(unit.stats().coherenceFlushes, 1u);
}

TEST(SkipUnit, ContextSwitchFlushesByDefault)
{
    TrampolineSkipUnit unit(smallParams());
    feedPattern(unit);
    unit.contextSwitch();
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
    EXPECT_EQ(unit.stats().contextSwitchFlushes, 1u);
}

TEST(SkipUnit, AsidRetentionSurvivesContextSwitch)
{
    auto params = smallParams();
    params.asidRetention = true;
    TrampolineSkipUnit unit(params);
    unit.setAsid(1);
    feedPattern(unit);
    unit.contextSwitch();
    unit.setAsid(2);
    // Another process's identical trampoline address must miss.
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
    unit.setAsid(1);
    EXPECT_TRUE(unit.substituteTarget(Tramp).has_value());
    EXPECT_EQ(unit.stats().contextSwitchFlushes, 0u);
}

TEST(SkipUnit, ExplicitFlush)
{
    TrampolineSkipUnit unit(smallParams());
    feedPattern(unit);
    unit.explicitFlush();
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
    EXPECT_EQ(unit.stats().explicitFlushes, 1u);
}

TEST(SkipUnit, ExplicitInvalidationModeIgnoresStores)
{
    // §3.4 alternate implementation: no bloom filter; software must
    // invalidate explicitly.
    auto params = smallParams();
    params.explicitInvalidation = true;
    TrampolineSkipUnit unit(params);
    feedPattern(unit);
    unit.retireStore(GotSlot); // would flush in the default mode
    EXPECT_TRUE(unit.substituteTarget(Tramp).has_value());
    EXPECT_EQ(unit.stats().storeFlushes, 0u);
    unit.explicitFlush();
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
}

TEST(SkipUnit, ExplicitModeHardwareBytesExcludeBloom)
{
    auto params = smallParams();
    const auto with_bloom =
        TrampolineSkipUnit(params).hardwareBytes();
    params.explicitInvalidation = true;
    const auto without =
        TrampolineSkipUnit(params).hardwareBytes();
    EXPECT_GT(with_bloom, without);
    EXPECT_EQ(without, 16u * AbtbEntryBytes);
}

TEST(SkipUnit, ChainedTrampolineCollapse)
{
    // tramp -> f where f itself begins with jmp*m to g: the retire
    // stream after a skip is call(tramp-target), jmp*m(g), which
    // legally collapses the chain. Both slots end up guarded.
    TrampolineSkipUnit unit(smallParams());
    feedPattern(unit); // tramp -> Func guarded by GotSlot
    // Later: the skip happens, and Func's own first instruction is
    // a memory-indirect jump to G via SlotB.
    constexpr Addr G = 0x7f0000009000, SlotB = 0x403018;
    unit.retireControl(Opcode::CallRel, Tramp, 0);
    unit.retireControl(Opcode::JmpIndMem, G, SlotB);
    EXPECT_EQ(unit.substituteTarget(Tramp)->function, G);
    // A store to EITHER slot must flush (both are in the bloom).
    unit.retireStore(GotSlot);
    EXPECT_FALSE(unit.substituteTarget(Tramp).has_value());
}

TEST(SkipUnit, FlushClearsBloomToo)
{
    TrampolineSkipUnit unit(smallParams());
    feedPattern(unit);
    unit.explicitFlush();
    EXPECT_FALSE(unit.bloom().mayContain(GotSlot));
}

TEST(SkipUnit, StatsClearPreservesContents)
{
    TrampolineSkipUnit unit(smallParams());
    feedPattern(unit);
    unit.clearStats();
    EXPECT_EQ(unit.stats().populations, 0u);
    EXPECT_TRUE(unit.substituteTarget(Tramp).has_value());
}

#include "stats/rng.hh"

/**
 * Fuzz property: over random retire streams, the unit maintains its
 * invariants — occupancy bounded by capacity, substitutions only
 * for previously populated keys, flushes empty everything.
 */
class SkipUnitFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SkipUnitFuzz, InvariantsHoldOnRandomStreams)
{
    dlsim::stats::Rng rng(GetParam());
    auto params = smallParams();
    params.patternWindow =
        static_cast<std::uint32_t>(GetParam() % 3);
    TrampolineSkipUnit unit(params);

    std::uint64_t prev_pops = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto roll = rng.nextBelow(100);
        const Addr addr = 0x400000 + rng.nextBelow(64) * 16;
        const Addr got = 0x600000 + rng.nextBelow(64) * 8;
        if (roll < 30) {
            unit.retireControl(dlsim::isa::Opcode::CallRel, addr,
                               0);
        } else if (roll < 55) {
            unit.retireControl(dlsim::isa::Opcode::JmpIndMem,
                               addr, got);
        } else if (roll < 70) {
            unit.retireStore(got);
        } else if (roll < 90) {
            unit.retireOther();
        } else if (roll < 95) {
            const auto e = unit.substituteTarget(addr);
            if (e) {
                // A hit implies a prior population survived.
                EXPECT_GT(unit.stats().populations, 0u);
            }
        } else if (roll < 97) {
            unit.contextSwitch();
        } else {
            unit.explicitFlush();
            EXPECT_EQ(unit.abtb().occupancy(), 0u);
        }
        // Capacity invariant.
        ASSERT_LE(unit.abtb().occupancy(),
                  params.abtb.entries);
        // Populations are monotone.
        ASSERT_GE(unit.stats().populations, prev_pops);
        prev_pops = unit.stats().populations;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipUnitFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));
