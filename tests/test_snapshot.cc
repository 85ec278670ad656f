/**
 * @file
 * Tests for the snapshot/checkpoint subsystem: the container format
 * (golden header bytes, CRC framing, corruption/truncation
 * rejection), per-structure save/load roundtrips, COW topology
 * preservation through the page pool, Workbench- and System-level
 * roundtrips, and the restore-then-run == keep-running determinism
 * contract the warm-up-once benches rely on.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "branch/btb.hh"
#include "common.hh"
#include "linker/loader.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "sim/system.hh"
#include "sim_fixture.hh"
#include "snapshot/format.hh"
#include "snapshot/io.hh"
#include "snapshot/serializer.hh"
#include "stats/rng.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"

using namespace dlsim;
using namespace dlsim::isa;
using namespace dlsim::snapshot;
using dlsim::test::Sim;

namespace
{

/** Unique temp path per test. */
std::string
tmpPath(const std::string &tag)
{
    return ::testing::TempDir() + "dlsim_snap_" + tag + ".bin";
}

/** A small, fast workload for Workbench-level tests. */
workload::WorkloadParams
tinyParams()
{
    workload::WorkloadParams p;
    p.name = "tiny";
    p.seed = 7;
    p.numLibs = 3;
    p.funcsPerLib = 8;
    p.libFnInsts = 10;
    p.requests = {{"A", 0.5, 1, 2}, {"B", 0.5, 1, 3}};
    p.stepsPerRequest = 6;
    p.appWorkInsts = 4;
    p.calledImports = 12;
    p.libDataBytes = 4096;
    p.appDataBytes = 8192;
    p.ifuncSymbols = 2;
    p.tailJumpFrac = 0.2;
    p.virtualCallFrac = 0.2;
    return p;
}

std::uint32_t
readLe32(const std::vector<std::uint8_t> &b, std::size_t off)
{
    return static_cast<std::uint32_t>(b[off]) |
           static_cast<std::uint32_t>(b[off + 1]) << 8 |
           static_cast<std::uint32_t>(b[off + 2]) << 16 |
           static_cast<std::uint32_t>(b[off + 3]) << 24;
}

std::uint64_t
readLe64(const std::vector<std::uint8_t> &b, std::size_t off)
{
    return static_cast<std::uint64_t>(readLe32(b, off)) |
           static_cast<std::uint64_t>(readLe32(b, off + 4)) << 32;
}

elf::Module
counterExe()
{
    elf::ModuleBuilder mb("app");
    mb.setDataSize(4096);
    auto &f = mb.function("f");
    f.movDataAddr(4, 0);
    f.load(RegRet, 4, 0);
    f.aluImm(AluKind::Add, RegRet, RegRet, 1);
    f.store(RegRet, 4, 0);
    f.callExternal("libfn");
    f.ret();
    return mb.build();
}

elf::Module
lib()
{
    elf::ModuleBuilder mb("lib");
    auto &f = mb.function("libfn");
    f.nop(); // must not clobber RegRet: f() returns the counter
    f.ret();
    return mb.build();
}

} // namespace

// --------------------------------------------------------------
// Container format.
// --------------------------------------------------------------

/**
 * Golden header: pins the on-disk layout of format version 1. If
 * this test fails, the format changed — bump FormatVersion and add
 * a migration path instead of silently breaking old snapshots.
 */
TEST(SnapshotFormat, GoldenHeaderLayout)
{
    EXPECT_EQ(Magic, 0x4e534c44u); // "DLSN"
    EXPECT_EQ(FormatVersion, 1u);
    EXPECT_EQ(HeaderBytes, 24u);
    EXPECT_EQ(TableEntryBytes, 40u);

    Serializer s(0x1122334455667788ull);
    s.beginSection("alpha");
    s.beginStruct("x");
    s.u32(0xdeadbeefu);
    s.endStruct();
    s.endSection();
    const auto b = s.finish();

    ASSERT_GE(b.size(), HeaderBytes + TableEntryBytes);
    // "DLSN" as raw bytes.
    EXPECT_EQ(b[0], 'D');
    EXPECT_EQ(b[1], 'L');
    EXPECT_EQ(b[2], 'S');
    EXPECT_EQ(b[3], 'N');
    EXPECT_EQ(readLe32(b, 0), Magic);
    EXPECT_EQ(readLe32(b, 4), FormatVersion);
    EXPECT_EQ(readLe64(b, 8), 0x1122334455667788ull);
    EXPECT_EQ(readLe32(b, 16), 1u); // section count
    // Section table entry: 16-byte NUL-padded tag.
    EXPECT_EQ(b[HeaderBytes + 0], 'a');
    EXPECT_EQ(b[HeaderBytes + 4], 'a');
    EXPECT_EQ(b[HeaderBytes + 5], 0);
    EXPECT_EQ(b[HeaderBytes + 15], 0);
    // Payload offset points past header + table.
    EXPECT_EQ(readLe64(b, HeaderBytes + 16),
              HeaderBytes + TableEntryBytes);

    Deserializer d(b.data(), b.size());
    EXPECT_EQ(d.fingerprint(), 0x1122334455667788ull);
    EXPECT_TRUE(d.hasSection("alpha"));
    EXPECT_FALSE(d.hasSection("beta"));
    d.enterSection("alpha");
    d.enterStruct("x");
    EXPECT_EQ(d.u32(), 0xdeadbeefu);
    d.leaveStruct();
    d.leaveSection();
}

TEST(SnapshotFormat, PrimitiveRoundTrip)
{
    Serializer s;
    s.beginSection("p");
    s.beginStruct("all");
    s.u8(0xab);
    s.u16(0xcdef);
    s.u32(0x12345678u);
    s.u64(0xfedcba9876543210ull);
    s.i64(-42);
    s.f64(3.25);
    s.boolean(true);
    s.boolean(false);
    s.str("hello snapshot");
    const std::uint8_t raw[3] = {1, 2, 3};
    s.bytes(raw, sizeof raw);
    s.endStruct();
    s.endSection();
    const auto b = s.finish();

    Deserializer d(b.data(), b.size());
    d.enterSection("p");
    d.enterStruct("all");
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u16(), 0xcdef);
    EXPECT_EQ(d.u32(), 0x12345678u);
    EXPECT_EQ(d.u64(), 0xfedcba9876543210ull);
    EXPECT_EQ(d.i64(), -42);
    EXPECT_EQ(d.f64(), 3.25);
    EXPECT_TRUE(d.boolean());
    EXPECT_FALSE(d.boolean());
    EXPECT_EQ(d.str(), "hello snapshot");
    std::uint8_t out[3] = {};
    d.bytes(out, sizeof out);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[2], 3);
    d.leaveStruct();
    d.leaveSection();
}

TEST(SnapshotFormat, RejectsBadMagicAndVersion)
{
    Serializer s;
    s.beginSection("a");
    s.beginStruct("x");
    s.u32(1);
    s.endStruct();
    s.endSection();
    auto good = s.finish();

    auto bad = good;
    bad[0] ^= 0xff;
    EXPECT_THROW(Deserializer(bad.data(), bad.size()),
                 SnapshotError);

    bad = good;
    bad[4] += 1; // future format version
    EXPECT_THROW(Deserializer(bad.data(), bad.size()),
                 SnapshotError);
}

TEST(SnapshotFormat, DetectsBitFlipAnywhere)
{
    Serializer s;
    s.beginSection("a");
    s.beginStruct("x");
    for (std::uint32_t i = 0; i < 64; ++i)
        s.u32(i * 2654435761u);
    s.endStruct();
    s.endSection();
    const auto good = s.finish();

    // Flip one bit in every byte position in turn; every flip must
    // be caught by header validation, the table CRC, the section
    // CRC, the struct CRC, or — for the header's fingerprint field,
    // which the Deserializer exposes rather than interprets — by
    // the fingerprint comparison every restore path performs.
    const auto origFp = Deserializer(good.data(), good.size())
                            .fingerprint();
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
        auto bad = good;
        bad[pos] ^= 0x01;
        bool caught = false;
        try {
            Deserializer d(bad.data(), bad.size());
            if (d.fingerprint() != origFp)
                caught = true;
            d.enterSection("a");
            d.enterStruct("x");
            for (std::uint32_t i = 0; i < 64; ++i)
                (void)d.u32();
            d.leaveStruct();
            d.leaveSection();
        } catch (const SnapshotError &) {
            caught = true;
        }
        EXPECT_TRUE(caught) << "bit flip at byte " << pos
                            << " went undetected";
    }
}

TEST(SnapshotFormat, RejectsTruncation)
{
    Serializer s;
    s.beginSection("a");
    s.beginStruct("x");
    s.u64(7);
    s.endStruct();
    s.endSection();
    const auto good = s.finish();

    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{8}, HeaderBytes,
          HeaderBytes + TableEntryBytes, good.size() - 1}) {
        auto bad = good;
        bad.resize(keep);
        bool caught = false;
        try {
            Deserializer d(bad.data(), bad.size());
            d.enterSection("a");
            d.enterStruct("x");
            (void)d.u64();
            d.leaveStruct();
            d.leaveSection();
        } catch (const SnapshotError &) {
            caught = true;
        }
        EXPECT_TRUE(caught)
            << "truncation to " << keep << " bytes undetected";
    }
}

TEST(SnapshotFormat, FileRoundTrip)
{
    const auto path = tmpPath("file");
    Serializer s(99);
    s.beginSection("a");
    s.beginStruct("x");
    s.u32(123);
    s.endStruct();
    s.endSection();
    const auto bytes = s.finish();
    writeFile(path, bytes);
    EXPECT_EQ(readFile(path), bytes);
    std::remove(path.c_str());
    EXPECT_THROW(readFile(path), SnapshotError);
}

// --------------------------------------------------------------
// Per-structure roundtrips. The pattern: exercise the structure,
// save, load into a freshly built twin, re-save — the two byte
// streams must be identical (state equality without needing deep
// comparison operators), and counters must survive.
// --------------------------------------------------------------

namespace
{

template <typename T>
std::vector<std::uint8_t>
saveOne(const T &t)
{
    Serializer s;
    s.beginSection("t");
    t.save(s);
    s.endSection();
    return s.finish();
}

template <typename T>
void
loadOne(T &t, const std::vector<std::uint8_t> &bytes)
{
    Deserializer d(bytes.data(), bytes.size());
    d.enterSection("t");
    t.load(d);
    d.leaveSection();
}

} // namespace

TEST(SnapshotStructures, CacheRoundTrip)
{
    mem::CacheParams p;
    p.name = "l1t";
    p.sizeBytes = 4096;
    p.assoc = 2;
    p.lineBytes = 64;
    mem::Cache a(p);
    for (Addr addr = 0; addr < 64 * 200; addr += 72)
        a.access(addr, addr % 3 ? 1 : 2);
    const auto bytes = saveOne(a);

    mem::Cache b(p);
    loadOne(b, bytes);
    EXPECT_EQ(b.hits(), a.hits());
    EXPECT_EQ(b.misses(), a.misses());
    EXPECT_EQ(b.evictions(), a.evictions());
    EXPECT_EQ(saveOne(b), bytes);

    // The restored cache behaves identically from here on.
    for (Addr addr = 0; addr < 64 * 50; addr += 24) {
        EXPECT_EQ(a.contains(addr, 1), b.contains(addr, 1));
        EXPECT_EQ(a.access(addr, 1), b.access(addr, 1));
    }
    EXPECT_EQ(saveOne(a), saveOne(b));
}

TEST(SnapshotStructures, CacheRejectsGeometryMismatch)
{
    mem::CacheParams p;
    p.sizeBytes = 4096;
    p.assoc = 2;
    mem::Cache a(p);
    a.access(0x1000, 1);
    const auto bytes = saveOne(a);

    p.assoc = 4;
    mem::Cache b(p);
    EXPECT_THROW(loadOne(b, bytes), SnapshotError);
}

TEST(SnapshotStructures, TlbRoundTrip)
{
    mem::TlbParams p;
    p.name = "itlb";
    p.entries = 16;
    p.assoc = 4;
    mem::Tlb a(p);
    for (Addr addr = 0; addr < (64u << mem::PageShift);
         addr += mem::PageBytes + 8)
        a.access(addr, 1);
    a.flushAsid(2);
    const auto bytes = saveOne(a);

    mem::Tlb b(p);
    loadOne(b, bytes);
    EXPECT_EQ(b.hits(), a.hits());
    EXPECT_EQ(b.misses(), a.misses());
    EXPECT_EQ(saveOne(b), bytes);

    p.entries = 32;
    mem::Tlb c(p);
    EXPECT_THROW(loadOne(c, bytes), SnapshotError);
}

TEST(SnapshotStructures, BtbRoundTrip)
{
    branch::BtbParams p;
    p.entries = 64;
    p.assoc = 4;
    branch::Btb a(p);
    for (Addr pc = 0x400000; pc < 0x400000 + 8 * 300; pc += 8) {
        a.update(pc, pc + 0x1000);
        a.lookup(pc);
        a.lookup(pc + 4);
    }
    const auto bytes = saveOne(a);

    branch::Btb b(p);
    loadOne(b, bytes);
    EXPECT_EQ(b.hits(), a.hits());
    EXPECT_EQ(b.lookups(), a.lookups());
    EXPECT_EQ(saveOne(b), bytes);
    for (Addr pc = 0x400000; pc < 0x400000 + 8 * 40; pc += 4)
        EXPECT_EQ(a.lookup(pc), b.lookup(pc));
}

TEST(SnapshotStructures, RngStreamContinuation)
{
    stats::Rng a(1234);
    for (int i = 0; i < 1000; ++i)
        a.next();
    const auto bytes = saveOne(a);

    stats::Rng b(999); // deliberately different seed
    loadOne(b, bytes);
    // The restored generator continues the original stream exactly.
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(b.next(), a.next());
}

/**
 * A slot record whose fields would later index past modules_,
 * imports() or the register file, or name no enumerator, is
 * rejected at load. Each sub-case corrupts one field, saves (so the
 * CRCs are valid) and loads into a fresh image.
 */
TEST(SnapshotStructures, ImageRejectsHostileSlotRecords)
{
    const auto make_image = [] {
        linker::Loader loader;
        return loader.load(counterExe(), {lib()});
    };
    struct Case
    {
        const char *what;
        void (*corrupt)(linker::Slot &);
        bool onTrampoline;
    };
    const Case cases[] = {
        {"moduleId", [](linker::Slot &s) { s.moduleId = 99; }, false},
        {"pltIndex", [](linker::Slot &s) { s.pltIndex = 500; }, true},
        {"dst", [](linker::Slot &s) { s.inst.dst = NumRegs; }, false},
        {"src1", [](linker::Slot &s) { s.inst.src1 = 200; }, false},
        {"src2", [](linker::Slot &s) { s.inst.src2 = 16; }, false},
        {"memBase", [](linker::Slot &s) { s.inst.memBase = 17; },
         false},
        {"op",
         [](linker::Slot &s) { s.inst.op = static_cast<Opcode>(0x7f); },
         false},
        {"alu",
         [](linker::Slot &s) {
             s.inst.alu = static_cast<AluKind>(0x50);
         },
         false},
        {"cond",
         [](linker::Slot &s) {
             s.inst.cond = static_cast<CondKind>(0x40);
         },
         false},
        {"size", [](linker::Slot &s) { s.inst.size = 0; }, false},
        {"flags", [](linker::Slot &s) { s.flags = 0x80; }, false},
    };

    // The untouched image round-trips.
    {
        auto a = make_image();
        auto b = make_image();
        EXPECT_NO_THROW(loadOne(*b, saveOne(*a)));
    }
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        auto a = make_image();
        const Addr va = c.onTrampoline
                            ? a->moduleAt(0).pltEntryVas.at(0)
                            : a->symbolAddress("f");
        linker::Slot *slot = a->decodeMutable(va);
        ASSERT_NE(slot, nullptr);
        c.corrupt(*slot);
        const auto bytes = saveOne(*a);
        auto b = make_image();
        EXPECT_THROW(loadOne(*b, bytes), SnapshotError);
    }
}

TEST(SnapshotStructures, AddressSpaceCowTopologySurvives)
{
    using namespace dlsim::mem;
    AddressSpace parent;
    parent.map(0x1000, 4 * PageBytes, PermRead | PermExec,
               RegionKind::Text, "text");
    parent.map(0x100000, 4 * PageBytes, PermRead | PermWrite,
               RegionKind::Data, "data");
    for (Addr a = 0x1000; a < 0x1000 + 4 * PageBytes; a += 512)
        parent.poke64(a, a * 3);
    parent.poke64(0x100000, 11);
    parent.poke64(0x100000 + PageBytes, 22);

    auto child = parent.fork();
    // One COW copy in the child: the first data page diverges.
    ASSERT_EQ(child->write64(0x100000, 1111), MemFault::None);

    Serializer s;
    PagePoolSaver pool;
    s.beginSection("spaces");
    parent.save(s, pool);
    child->save(s, pool);
    s.endSection();
    s.beginSection("pages");
    pool.save(s);
    s.endSection();
    const auto bytes = s.finish();

    AddressSpace p2, c2;
    {
        // Scoped: the loader holds a reference to every pool page,
        // which would skew sharedPages()/privateBytes() accounting
        // if it outlived the restore.
        Deserializer d(bytes.data(), bytes.size());
        PagePoolLoader loader;
        d.enterSection("pages");
        loader.load(d);
        d.leaveSection();
        d.enterSection("spaces");
        p2.load(d, loader);
        c2.load(d, loader);
        d.leaveSection();
    }

    // Contents, COW accounting, and the sharing topology all match.
    MemFault fault;
    EXPECT_EQ(p2.read64(0x100000, fault), 11u);
    EXPECT_EQ(c2.peek64(0x100000), 1111u);
    EXPECT_EQ(p2.peek64(0x1000 + 512), parent.peek64(0x1000 + 512));
    EXPECT_EQ(p2.presentPages(), parent.presentPages());
    EXPECT_EQ(c2.presentPages(), child->presentPages());
    EXPECT_EQ(p2.sharedPages(), parent.sharedPages());
    EXPECT_EQ(c2.sharedPages(), child->sharedPages());
    EXPECT_EQ(p2.privateBytes(), parent.privateBytes());
    EXPECT_EQ(c2.privateBytes(), child->privateBytes());
    EXPECT_EQ(c2.cowCopiesTotal(), child->cowCopiesTotal());

    // COW semantics still work after restore: a write in the
    // restored child copies instead of mutating the shared page.
    const Addr shared = 0x100000 + PageBytes;
    ASSERT_EQ(c2.write64(shared, 7777), MemFault::None);
    EXPECT_EQ(p2.peek64(shared), 22u);
}

// --------------------------------------------------------------
// Composer-level roundtrips.
// --------------------------------------------------------------

TEST(SnapshotWorkbench, RestoreThenRunEqualsKeepRunning)
{
    using namespace dlsim::workload;
    const auto wl = tinyParams();
    const MachineConfig mc{};

    Workbench a(wl, mc);
    a.warmup(8);
    const auto bytes = snapshotWorkbench(a);

    Workbench b(wl, mc);
    restoreWorkbench(b, bytes.data(), bytes.size());
    // Identical state => identical re-serialization...
    EXPECT_EQ(snapshotWorkbench(b), bytes);
    // ...and identical behaviour from here on, including the
    // request mix RNG stream.
    for (int i = 0; i < 20; ++i) {
        const auto ra = a.runRequest();
        const auto rb = b.runRequest();
        EXPECT_EQ(ra.kind, rb.kind);
        EXPECT_EQ(ra.cycles, rb.cycles);
        EXPECT_EQ(ra.instructions, rb.instructions);
    }
    EXPECT_EQ(a.core().counters().cycles,
              b.core().counters().cycles);
    EXPECT_EQ(a.core().counters().l1iMisses,
              b.core().counters().l1iMisses);
    EXPECT_EQ(a.core().counters().mispredicts,
              b.core().counters().mispredicts);
}

TEST(SnapshotWorkbench, RejectsFingerprintMismatch)
{
    using namespace dlsim::workload;
    const auto wl = tinyParams();
    const MachineConfig mc{};
    Workbench a(wl, mc);
    a.warmup(2);
    const auto bytes = snapshotWorkbench(a);

    checkSnapshotCompatible(bytes, wl, mc); // same params: fine

    auto wl2 = wl;
    wl2.seed = 8;
    EXPECT_THROW(checkSnapshotCompatible(bytes, wl2, mc),
                 SnapshotError);
    Workbench b(wl2, mc);
    EXPECT_THROW(restoreWorkbench(b, bytes.data(), bytes.size()),
                 SnapshotError);

    MachineConfig mc2;
    mc2.enhanced = true;
    EXPECT_THROW(checkSnapshotCompatible(bytes, wl, mc2),
                 SnapshotError);
}

TEST(SnapshotWorkbench, ReconfigureAppliesTimingRejectsStructure)
{
    using namespace dlsim::workload;
    const auto wl = tinyParams();
    MachineConfig ref;
    ref.enhanced = true;

    Workbench a(wl, ref);
    a.warmup(6);
    const auto bytes = snapshotWorkbench(a);

    // Timing and skip-unit geometry may vary per arm.
    Workbench b(wl, ref);
    restoreWorkbench(b, bytes.data(), bytes.size());
    MachineConfig arm = ref;
    arm.abtbEntries = 16;
    arm.abtbAssoc = 4;
    arm.core.mispredictPenalty += 5;
    b.reconfigure(arm);
    const auto r = b.runRequest();
    EXPECT_GT(r.instructions, 0u);

    // Structural divergence (cache geometry) must be rejected.
    Workbench c(wl, ref);
    restoreWorkbench(c, bytes.data(), bytes.size());
    MachineConfig badArm = ref;
    badArm.core.mem.l1i.sizeBytes *= 2;
    EXPECT_THROW(c.reconfigure(badArm), SnapshotError);
}

TEST(SnapshotSystem, RoundTripPreservesProcessesAndCow)
{
    using dlsim::sim::System;

    Sim simA(counterExe(), {lib()});
    System sysA(*simA.core, *simA.image, *simA.linker);
    auto &parent = sysA.initialProcess();
    simA.call("f"); // counter -> 1 in the parent
    auto &child = sysA.fork(parent);
    sysA.switchTo(child);
    simA.call("f"); // child counter -> 2 (private COW copy)
    simA.core->state().regs[9] = 4242;

    Serializer s;
    sysA.save(s);
    const auto bytes = s.finish();
    const auto statsA = sysA.memoryStats();

    // A freshly built twin system adopts the checkpointed state.
    Sim simB(counterExe(), {lib()});
    System sysB(*simB.core, *simB.image, *simB.linker);
    Deserializer d(bytes.data(), bytes.size());
    sysB.load(d);

    ASSERT_EQ(sysB.numProcesses(), 2u);
    const auto statsB = sysB.memoryStats();
    EXPECT_EQ(statsB.totalCowCopies(), statsA.totalCowCopies());
    EXPECT_EQ(statsB.sharedPages, statsA.sharedPages);
    EXPECT_EQ(statsB.privateBytes, statsA.privateBytes);
    EXPECT_EQ(simB.core->state().regs[9], 4242u);

    // Execution continues exactly where the original would: the
    // restored current process is the child with counter == 2.
    EXPECT_EQ(simB.call("f").returnValue, 3u);
    sysB.switchTo(sysB.initialProcess());
    EXPECT_EQ(simB.call("f").returnValue, 2u);
}

/**
 * The contract the warm-up-once benches (and their --jobs flag)
 * rely on: many arms restoring concurrently from ONE shared byte
 * buffer produce exactly what a serial sweep produces. This is the
 * snapshot path's TSan smoke test — the buffer is only ever read.
 */
TEST(SnapshotSweep, ConcurrentRestoresMatchSerialSweep)
{
    using namespace dlsim::bench;
    const auto wl = tinyParams();
    workload::MachineConfig ref;
    ref.enhanced = true;

    workload::Workbench warm(wl, ref);
    warm.warmup(10);
    const auto state = workload::snapshotWorkbench(warm);

    const std::uint32_t sizes[] = {4u, 16u, 64u, 256u};
    auto makeWork = [&] {
        std::vector<std::function<ArmResult()>> work;
        for (const std::uint32_t entries : sizes) {
            work.push_back([&state, &wl, &ref, entries] {
                auto mc = ref;
                mc.abtbEntries = entries;
                mc.abtbAssoc = std::min(entries, 4u);
                return runArmFromState(state, wl, ref, mc, 25);
            });
        }
        return work;
    };

    auto render = [&](const std::vector<ArmResult> &arms) {
        stats::MetricsDocument doc("test_snapshot sweep");
        for (std::size_t i = 0; i < arms.size(); ++i) {
            auto &run = doc.addRun("entries" +
                                   std::to_string(sizes[i]));
            run.registry = arms[i].registry;
        }
        return doc.toJson();
    };

    sim::JobRunner serial(1);
    sim::JobRunner threaded(4);
    const auto a = render(serial.run(makeWork()));
    const auto b = render(threaded.run(makeWork()));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}
