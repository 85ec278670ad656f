/**
 * @file
 * Tests for the Image code index, the one va -> slot table that
 * decode(), decodeMutable(), block building and the trampoline census
 * probe: found/not-found accounting, patch visibility through
 * decodeMutable, dlclose removal, snapshot restore never serving
 * pre-restore slots, many distinct vas, and exactness under
 * dlopen/dlclose/dlmopen churn with and without ASLR.
 */

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "elf/builder.hh"
#include "linker/loader.hh"
#include "snapshot/serializer.hh"
#include "stats/rng.hh"

using namespace dlsim;
using namespace dlsim::linker;

namespace
{

std::unique_ptr<Image>
makeImage(Loader &loader)
{
    elf::ModuleBuilder app("app");
    app.setDataSize(4096);
    auto &f = app.function("f");
    f.nop();
    f.movImm(1, 5);
    f.callExternal("g");
    f.ret();

    elf::ModuleBuilder lib("lib");
    auto &g = lib.function("g");
    g.ret();

    return loader.load(app.build(), {lib.build()});
}

} // namespace

TEST(CodeIndex, CountsFoundAndNotFoundLookups)
{
    Loader loader;
    auto image = makeImage(loader);
    const Addr f = image->symbolAddress("f");

    const auto hits0 = image->decodeCacheHits();
    const auto misses0 = image->decodeCacheMisses();
    const Slot *first = image->decode(f);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->va, f);
    EXPECT_EQ(image->decode(f), first);
    EXPECT_EQ(image->decodeCacheHits(), hits0 + 2);

    // f+2 is mid-instruction: not decodable, counted as not found.
    EXPECT_EQ(image->decode(f + 2), nullptr);
    EXPECT_EQ(image->decode(f + 2), nullptr);
    EXPECT_EQ(image->decodeCacheMisses(), misses0 + 2);
    EXPECT_EQ(image->decodeCacheHits(), hits0 + 2);
}

TEST(CodeIndex, DecodeMutableReturnsIndexedSlotAndFlushesBlocks)
{
    Loader loader;
    auto image = makeImage(loader);
    const Addr f = image->symbolAddress("f");

    const Slot *slot = image->decode(f);
    ASSERT_NE(slot, nullptr);
    ASSERT_GE(image->blockIndex(f), 0);
    const auto gen0 = image->blockGeneration();

    // The patcher edits the indexed slot itself; the index is not
    // touched, but every cached block is dropped.
    EXPECT_EQ(image->decodeMutable(f), slot);
    EXPECT_EQ(image->blockGeneration(), gen0 + 1);
    EXPECT_EQ(image->liveBlocks(), 0u);
    EXPECT_EQ(image->decode(f), slot);
    EXPECT_EQ(image->decodeMutable(f + 2), nullptr);
}

TEST(CodeIndex, PatcherRewriteIsVisible)
{
    Loader loader;
    auto image = makeImage(loader);
    const Addr f = image->symbolAddress("f");

    const Slot *before = image->decode(f);
    ASSERT_NE(before, nullptr);
    const auto original_op = before->inst.op;

    Slot *patched = image->decodeMutable(f);
    ASSERT_NE(patched, nullptr);
    patched->inst.op = isa::Opcode::MovImm;

    const Slot *after = image->decode(f);
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->inst.op, isa::Opcode::MovImm);
    EXPECT_NE(after->inst.op, original_op);
}

TEST(CodeIndex, DlcloseDropsModuleSlots)
{
    Loader loader;
    auto image = makeImage(loader);
    const Addr f = image->symbolAddress("f");
    const Addr g = image->symbolAddress("g");

    const Slot *survivor = image->decode(f);
    ASSERT_NE(survivor, nullptr);
    ASSERT_NE(image->decode(g), nullptr);

    loader.dlclose(*image, "lib");

    EXPECT_EQ(image->decode(g), nullptr);
    EXPECT_EQ(image->decode(f), survivor);
}

TEST(CodeIndex, SnapshotRestoreNeverServesPreRestoreSlots)
{
    Loader loader;
    auto image = makeImage(loader);
    const Addr f = image->symbolAddress("f");
    const Addr g = image->symbolAddress("g");

    const Slot *before = image->decode(f);
    ASSERT_NE(before, nullptr);
    const auto original_op = before->inst.op;
    ASSERT_NE(image->decode(g), nullptr);

    const auto bytes =
        snapshot::serialize(0, [&](snapshot::Serializer &s) {
            s.beginSection("image");
            image->save(s);
            s.endSection();
        });

    // Mutate past the checkpoint: patch f's first instruction and
    // unload the library.
    Slot *patched = image->decodeMutable(f);
    ASSERT_NE(patched, nullptr);
    patched->inst.op = isa::Opcode::MovImm;
    loader.dlclose(*image, "lib");
    ASSERT_EQ(image->decode(f)->inst.op, isa::Opcode::MovImm);
    ASSERT_EQ(image->decode(g), nullptr);

    // Restore: f decodes to the snapshotted opcode, g is decodable
    // again.
    snapshot::Deserializer d(bytes.data(), bytes.size());
    d.enterSection("image");
    image->load(d);
    d.leaveSection();

    const Slot *restored = image->decode(f);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->inst.op, original_op);
    const Slot *g_restored = image->decode(g);
    ASSERT_NE(g_restored, nullptr);
    EXPECT_EQ(g_restored->inst.op, isa::Opcode::Ret);
}

TEST(CodeIndex, ManyDistinctVasStayConsistent)
{
    Loader loader;
    elf::ModuleBuilder app("app");
    app.setDataSize(4096);
    auto &f = app.function("f");
    for (int i = 0; i < 200; ++i)
        f.movImm(1, i);
    f.ret();
    auto image = loader.load(app.build(), {});

    // Walk every slot of the function by fall-through, then look
    // each one up again by va: every lookup must find the same slot.
    std::vector<const Slot *> first_pass;
    Addr va = image->symbolAddress("f");
    while (true) {
        const Slot *s = image->decode(va);
        ASSERT_NE(s, nullptr);
        first_pass.push_back(s);
        if (s->inst.op == isa::Opcode::Ret)
            break;
        va += s->inst.size;
    }
    ASSERT_GE(first_pass.size(), 201u);

    const auto hits0 = image->decodeCacheHits();
    const auto misses0 = image->decodeCacheMisses();
    for (const Slot *slot : first_pass)
        EXPECT_EQ(image->decode(slot->va), slot);
    EXPECT_EQ(image->decodeCacheHits(), hits0 + first_pass.size());
    EXPECT_EQ(image->decodeCacheMisses(), misses0);
}

namespace
{

/** A churn library: `funcs` functions calling `imports` imports of
 *  the base library, so libraries differ in size (first-fit reuse
 *  places a smaller one into a larger one's hole). */
elf::Module
churnLib(const std::string &name, int funcs, int imports)
{
    elf::ModuleBuilder lib(name);
    lib.setDataSize(4096);
    for (int i = 0; i < funcs; ++i) {
        auto &fn = lib.function(name + "_f" + std::to_string(i));
        for (int k = 0; k <= i % 3; ++k)
            fn.movImm(1, i + k);
        fn.callExternal("g" + std::to_string(i % imports));
        fn.ret();
    }
    return lib.build();
}

/** Expected contents of the index for one loaded module. */
struct Expected
{
    /** Every slot va the module emits -> its opcode. */
    std::map<Addr, isa::Opcode> slots;
    /** Trampoline va -> the name trampolineSymbol must give. */
    std::map<Addr, std::string> trampolines;
};

Expected
expectedFor(const LoadedModule &lm)
{
    Expected e;
    const auto &fns = lm.module.functions();
    for (std::size_t i = 0; i < fns.size(); ++i) {
        for (std::size_t j = 0; j < fns[i].code.size(); ++j)
            e.slots[lm.funcAddrs[i] + fns[i].offsets[j]] =
                fns[i].code[j].op;
    }
    // PLT0 (push; jmp *GOT[1]), then per entry jmp *GOT; push k;
    // jmp PLT0 (x86 style).
    const Addr push_bytes = isa::makePushImm(0).size;
    e.slots[lm.pltBase] = isa::Opcode::PushImm;
    e.slots[lm.pltBase + push_bytes] = isa::Opcode::JmpIndMem;
    for (std::size_t k = 0; k < lm.pltEntryVas.size(); ++k) {
        const Addr entry = lm.pltEntryVas[k];
        const Addr lazy = entry + lm.lazyEntryOffset;
        e.slots[entry] = isa::Opcode::JmpIndMem;
        e.slots[lazy] = isa::Opcode::PushImm;
        e.slots[lazy + push_bytes] = isa::Opcode::JmpRel;
        e.trampolines[entry] =
            lm.module.imports()[k] + "@" + lm.module.name();
    }
    return e;
}

void
runChurn(bool aslr)
{
    LoaderOptions opts;
    opts.aslr = aslr;
    opts.aslrSeed = 7;
    Loader loader(opts);

    elf::ModuleBuilder app("app");
    app.setDataSize(4096);
    auto &main = app.function("main");
    main.callExternal("g0");
    main.halt();
    elf::ModuleBuilder base("base");
    for (int i = 0; i < 4; ++i)
        base.function("g" + std::to_string(i)).ret();
    auto image = loader.load(app.build(), {base.build()});

    // One isolated namespace, live for the whole run.
    const std::uint16_t ns =
        loader.dlmopen(*image, {churnLib("iso", 3, 1)});
    ASSERT_NE(ns, 0u);

    // Four churn libraries of different sizes.
    const int funcs[] = {2, 40, 6, 90};
    std::vector<bool> open(4, false);
    std::set<Addr> closed_vas;  // every va a closed module covered
    std::set<Addr> closed_text; // textBase of every closed module
    int reuses = 0;
    stats::Rng rng(11);

    for (int cycle = 0; cycle < 50; ++cycle) {
        const auto pick = static_cast<std::size_t>(rng.nextBelow(4));
        const std::string name = "churn" + std::to_string(pick);
        if (open[pick]) {
            const auto id = image->findModule(name);
            ASSERT_NE(id, SIZE_MAX);
            const Expected e = expectedFor(image->moduleAt(id));
            for (const auto &[va, op] : e.slots)
                closed_vas.insert(va);
            closed_text.insert(image->moduleAt(id).textBase);
            loader.dlclose(*image, name);
        } else {
            const auto id = loader.dlopen(
                *image, churnLib(name, funcs[pick], 4));
            if (closed_text.count(image->moduleAt(id).textBase))
                ++reuses;
        }
        open[pick] = !open[pick];

        // The loaded set's union, checked against the index.
        std::map<Addr, isa::Opcode> live;
        std::map<Addr, std::string> live_tramps;
        for (const LoadedModule &lm : image->modules()) {
            if (!lm.loaded)
                continue;
            const Expected e = expectedFor(lm);
            for (const auto &[va, op] : e.slots) {
                const Slot *s = image->decode(va);
                ASSERT_NE(s, nullptr) << "cycle " << cycle;
                EXPECT_EQ(s->va, va);
                EXPECT_EQ(s->moduleId, lm.id);
                EXPECT_EQ(s->inst.op, op);
                live[va] = op;
            }
            live_tramps.insert(e.trampolines.begin(),
                               e.trampolines.end());
        }
        for (const auto &[va, sym] : live_tramps)
            EXPECT_EQ(image->trampolineSymbol(va), sym);
        for (const Addr va : closed_vas) {
            if (live.count(va))
                continue;
            EXPECT_EQ(image->decode(va), nullptr)
                << "cycle " << cycle << " va 0x" << std::hex << va;
            EXPECT_EQ(image->trampolineSymbol(va), "");
        }
    }

    // Without ASLR, dlopen reuses released ranges first fit, so
    // some reload landed on an old module's addresses.
    if (!aslr) {
        EXPECT_GT(reuses, 0);
    }
}

} // namespace

TEST(CodeIndex, ExactUnderChurnWithFirstFitReuse)
{
    runChurn(false);
}

TEST(CodeIndex, ExactUnderChurnWithAslr)
{
    runChurn(true);
}
