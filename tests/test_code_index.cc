/**
 * @file
 * Tests for the Image code index, the one va -> slot table that
 * decode(), decodeMutable(), block building and the trampoline census
 * probe: found/not-found accounting, patch visibility through
 * decodeMutable, dlclose removal, snapshot restore never serving
 * pre-restore slots, many distinct vas, exactness under
 * dlopen/dlclose/dlmopen churn with and without ASLR (against a
 * wholesale rebuild after every step, across table growth), and
 * backward-shift deletion in clusters that wrap past the table's
 * end.
 */

#include <algorithm>
#include <bit>
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

/** Code-index capacity for `slots` slots ever added: the rule a
 *  wholesale rebuild sizes the table by. */
std::uint64_t
capacityFor(std::uint64_t slots)
{
    return std::bit_ceil(std::max<std::uint64_t>(16, 2 * slots));
}

std::uint64_t
slotsEverAdded(const Image &image)
{
    return image.modules().back().slotEnd;
}

/** `image`'s index, incrementally maintained, must answer every va
 *  exactly as `fresh`'s, rebuilt wholesale by a save/load round
 *  trip of `image`. */
void
expectSameAsRebuilt(Image &image, Image &fresh,
                    const std::set<Addr> &vas)
{
    const auto bytes =
        snapshot::serialize(0, [&](snapshot::Serializer &s) {
            s.beginSection("image");
            image.save(s);
            s.endSection();
        });
    snapshot::Deserializer d(bytes.data(), bytes.size());
    d.enterSection("image");
    fresh.load(d);
    d.leaveSection();
    for (const Addr va : vas) {
        const Slot *a = image.decode(va);
        const Slot *b = fresh.decode(va);
        ASSERT_EQ(a == nullptr, b == nullptr)
            << "va 0x" << std::hex << va;
        if (a == nullptr)
            continue;
        EXPECT_EQ(a->va, b->va);
        EXPECT_EQ(a->moduleId, b->moduleId);
        EXPECT_EQ(a->flags, b->flags);
        EXPECT_EQ(a->inst.op, b->inst.op);
    }
}

void
runChurn(bool aslr)
{
    LoaderOptions opts;
    opts.aslr = aslr;
    opts.aslrSeed = 7;
    Loader loader(opts);
    // The same history replayed as layout only, the way a restore
    // target is built: its index comes from Image::load alone.
    LoaderOptions skeleton = opts;
    skeleton.skeletonForRestore = true;
    Loader mirror(skeleton);

    const auto build = [](Loader &l) {
        elf::ModuleBuilder app("app");
        app.setDataSize(4096);
        auto &main = app.function("main");
        main.callExternal("g0");
        main.halt();
        elf::ModuleBuilder base("base");
        for (int i = 0; i < 4; ++i)
            base.function("g" + std::to_string(i)).ret();
        return l.load(app.build(), {base.build()});
    };
    auto image = build(loader);
    auto fresh = build(mirror);

    // One isolated namespace, live for the whole run.
    const std::uint16_t ns =
        loader.dlmopen(*image, {churnLib("iso", 3, 1)});
    ASSERT_NE(ns, 0u);
    mirror.dlmopen(*fresh, {churnLib("iso", 3, 1)});
    std::set<Addr> every_va; // every va any module ever covered
    for (const LoadedModule &lm : image->modules()) {
        for (const auto &[va, op] : expectedFor(lm).slots)
            every_va.insert(va);
    }
    int growths = 0;     // dlopens that crossed the growth threshold
    int incremental = 0; // dlopens that did not

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
            mirror.dlclose(*fresh, name);
        } else {
            const std::uint64_t before =
                capacityFor(slotsEverAdded(*image));
            const auto id = loader.dlopen(
                *image, churnLib(name, funcs[pick], 4));
            mirror.dlopen(*fresh, churnLib(name, funcs[pick], 4));
            if (closed_text.count(image->moduleAt(id).textBase))
                ++reuses;
            for (const auto &[va, op] :
                 expectedFor(image->moduleAt(id)).slots)
                every_va.insert(va);
            if (capacityFor(slotsEverAdded(*image)) != before)
                ++growths;
            else
                ++incremental;
        }
        open[pick] = !open[pick];
        expectSameAsRebuilt(*image, *fresh, every_va);

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
    // The run crossed the table-growth threshold mid-churn, and
    // also took the incremental path.
    EXPECT_GT(growths, 0);
    EXPECT_GT(incremental, 0);
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

namespace
{

/** `count` vas, above `from`, whose home bucket in a table of
 *  `capacity` buckets is `bucket`. */
std::vector<Addr>
homedAt(std::uint64_t bucket, std::uint64_t capacity, int count,
        Addr from)
{
    std::vector<Addr> vas;
    for (Addr va = from; static_cast<int>(vas.size()) < count; ++va) {
        if ((CodeIndex::hash(va) & (capacity - 1)) == bucket)
            vas.push_back(va);
    }
    return vas;
}

} // namespace

TEST(CodeIndex, EraseClosesAClusterThatWrapsPastTheEnd)
{
    CodeIndex index;
    index.reset(16);
    // Three vas homed at the last bucket and two at bucket 0: the
    // cluster fills buckets 15, 0, 1, 2, 3.
    const auto last = homedAt(15, 16, 3, 0x1000);
    const auto first = homedAt(0, 16, 2, 0x1000);
    const std::vector<Addr> order = {last[0], last[1], first[0],
                                     last[2], first[1]};
    std::map<Addr, std::uint32_t> live;
    for (std::uint32_t i = 0; i < order.size(); ++i) {
        index.insert(order[i], i);
        live[order[i]] = i;
    }
    // First slot wins: re-inserting a present va changes nothing.
    index.insert(last[1], 99);
    // The wrong slot number does not erase.
    index.erase(last[0], 7);
    EXPECT_EQ(index.find(last[0]), 0u);

    // Erase the cluster's head (bucket 15): the entries that wrapped
    // past the end must move back across it and stay reachable.
    for (const Addr gone : {last[0], first[0], last[1]}) {
        index.erase(gone, live.at(gone));
        live.erase(gone);
        EXPECT_EQ(index.find(gone), CodeIndex::None);
        for (const auto &[va, slot] : live)
            EXPECT_EQ(index.find(va), slot) << "va 0x" << std::hex << va;
    }
}

TEST(CodeIndex, InsertAndEraseMatchAMap)
{
    // A 16-bucket table kept at most half full, with a key pool
    // dense in the last and first buckets so clusters often wrap.
    std::vector<Addr> pool = homedAt(15, 16, 6, 0x40000);
    for (const Addr va : homedAt(0, 16, 4, 0x40000))
        pool.push_back(va);
    for (const Addr va : homedAt(7, 16, 2, 0x40000))
        pool.push_back(va);
    CodeIndex index;
    index.reset(16);
    std::map<Addr, std::uint32_t> model;
    stats::Rng rng(3);
    for (std::uint32_t step = 0; step < 20000; ++step) {
        const Addr va = pool[rng.nextBelow(pool.size())];
        const auto it = model.find(va);
        if (it != model.end()) {
            index.erase(va, it->second);
            model.erase(it);
        } else if (model.size() < 8) {
            index.insert(va, step);
            model[va] = step;
        }
        for (const Addr probe : pool) {
            const auto m = model.find(probe);
            ASSERT_EQ(index.find(probe),
                      m == model.end() ? CodeIndex::None : m->second)
                << "step " << step;
        }
    }
}
