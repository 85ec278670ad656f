/**
 * @file
 * Regression tests for the basic-block translation cache's
 * invalidation contract: every path that changes decoded code —
 * a software patcher write, a dlclose+reload landing at the same
 * virtual addresses, a snapshot restore — must flush the cache, and
 * a same-value GOT rewrite (which changes no code) must not. Each
 * mutation lands in the middle of code whose blocks are already
 * cached and hot, and every run executes under the LockstepChecker
 * oracle, so a stale block being dispatched is caught as an
 * architectural divergence at the first wrong retire — the test
 * does not rely on the mutation happening to change a return value.
 *
 * The same holds for the blocks' memoized indirect successor (the
 * last landing of a return, an indirect call or an ABTB
 * substitution): it lives in the block arena and must die with it
 * when different code appears at a memoized landing, and it must
 * follow a landing that the ABTB later substitutes.
 */

#include <gtest/gtest.h>

#include "check/lockstep.hh"
#include "linker/patcher.hh"
#include "sim_fixture.hh"
#include "stats/metrics.hh"
#include "workload/engine.hh"

using namespace dlsim;
using namespace dlsim::workload;
using namespace dlsim::check;

namespace
{

WorkloadParams
smallWorkload(std::uint64_t seed)
{
    WorkloadParams p;
    p.name = "blockinv";
    p.seed = seed;
    p.numLibs = 3;
    p.funcsPerLib = 10;
    p.requests = {{"A", 0.6, 1, 3}, {"B", 0.4, 1, 2}};
    p.stepsPerRequest = 12;
    p.calledImports = 16;
    return p;
}

MachineConfig
blockMachine()
{
    MachineConfig mc;
    mc.enhanced = true;
    mc.core.blockDispatch = true;
    return mc;
}

/** Run `n` lockstep-checked requests (divergence throws). */
void
runChecked(Workbench &wb, int n)
{
    for (int i = 0; i < n; ++i)
        wb.runRequest();
}

} // namespace

TEST(BlockInvalidation, PatcherWriteMidRequestFlushesBlocks)
{
    auto mc = blockMachine();
    mc.nearLibraries = true; // call sites within rel32 reach
    mc.collectCallSiteTrace = true;
    Workbench wb(smallWorkload(11), mc);
    LockstepChecker checker(wb.core());
    wb.core().setRetireObserver(&checker);

    // Warm: resolve imports, collect the call-site trace, and let
    // the dispatcher cache blocks spanning the call sites.
    runChecked(wb, 40);
    ASSERT_GT(wb.image().liveBlocks(), 0u);
    ASSERT_FALSE(wb.core().callSiteTrace().empty());

    const auto flushes0 = wb.image().blockCacheFlushes();
    const auto gen0 = wb.image().blockGeneration();

    // Pause mid-request, with the core stopped inside hot cached
    // blocks, and patch every profiled call site from
    // `call trampoline` to `call function`.
    wb.beginRequest();
    bool done = wb.stepRequest(40);
    linker::Patcher patcher;
    const auto ps =
        patcher.apply(wb.image(), wb.core().callSiteTrace());
    EXPECT_GT(ps.sitesPatched, 0u);

    // The patched sites sit mid-block in cached blocks; if any of
    // those blocks survived, the core would retire the stale
    // `call trampoline` while the oracle decodes the patched slot
    // — an immediate divergence.
    EXPECT_GT(wb.image().blockCacheFlushes(), flushes0);
    EXPECT_GT(wb.image().blockGeneration(), gen0);

    while (!done)
        done = wb.stepRequest(100000);
    runChecked(wb, 40);
    EXPECT_GT(checker.stats().checkedRetires, 1000u);
    wb.core().setRetireObserver(nullptr);
}

TEST(BlockInvalidation, SameValueGotRewriteNeedsNoFlush)
{
    Workbench wb(smallWorkload(12), blockMachine());
    LockstepChecker checker(wb.core());
    wb.core().setRetireObserver(&checker);

    runChecked(wb, 30);
    ASSERT_GT(wb.image().liveBlocks(), 0u);

    const auto flushes0 = wb.image().blockCacheFlushes();
    const auto gen0 = wb.image().blockGeneration();

    // Mid-request, rewrite every GOT slot with its current value.
    // The block cache holds decoded code only — no GOT values — so
    // this must not flush anything (the ABTB-side conservative
    // coherence handling is exercised separately).
    wb.beginRequest();
    bool done = wb.stepRequest(40);
    auto &as = wb.image().addressSpace();
    for (const auto &m : wb.image().modules()) {
        for (const isa::Addr slot : m.gotSlotAddrs) {
            as.poke64(slot, as.peek64(slot));
            wb.core().onExternalGotWrite(slot);
            checker.onExternalWrite(slot);
        }
    }
    EXPECT_EQ(wb.image().blockCacheFlushes(), flushes0);
    EXPECT_EQ(wb.image().blockGeneration(), gen0);

    while (!done)
        done = wb.stepRequest(100000);
    runChecked(wb, 30);
    EXPECT_EQ(wb.image().blockCacheFlushes(), flushes0);
    EXPECT_GT(checker.stats().externalWrites, 0u);
    wb.core().setRetireObserver(nullptr);
}

TEST(BlockInvalidation, DlcloseReloadAtSameVaFlushesBlocks)
{
    // app calls libfn repeatedly; v1 returns 1, v2 returns 2. The
    // loader reuses the dlclose'd region, so v2's different code
    // lands at exactly v1's virtual addresses — the same-VA reload
    // hazard: a stale cached block at those addresses would retire
    // v1's instructions against v2's slots.
    elf::ModuleBuilder app("app");
    app.setDataSize(4096);
    auto &f = app.function("f");
    f.callExternal("libfn");
    f.callExternal("libfn");
    f.ret();

    auto lib = [](const std::string &name, std::int64_t value) {
        elf::ModuleBuilder mb(name);
        auto &fn = mb.function("libfn");
        fn.movImm(isa::RegRet, value);
        fn.ret();
        return mb.build();
    };

    cpu::CoreParams params = test::enhancedParams();
    params.blockDispatch = true;
    test::Sim sim(app.build(), {lib("libv1", 1)}, params);
    LockstepChecker checker(*sim.core);
    sim.core->setRetireObserver(&checker);

    EXPECT_EQ(sim.call("f").returnValue, 1u);
    EXPECT_EQ(sim.call("f").returnValue, 1u); // blocks now hot
    ASSERT_GT(sim.image->liveBlocks(), 0u);
    const isa::Addr v1_fn = sim.image->symbolAddress("libfn");
    const auto flushes0 = sim.image->blockCacheFlushes();

    sim.loader.dlclose(*sim.image, "libv1", [&](isa::Addr a) {
        sim.core->onExternalGotWrite(a);
        checker.onExternalWrite(a);
    });
    sim.loader.dlopen(*sim.image, lib("libv2", 2));
    // The reload really did land at the same addresses.
    ASSERT_EQ(sim.image->symbolAddress("libfn"), v1_fn);
    EXPECT_GT(sim.image->blockCacheFlushes(), flushes0);

    // The fork-based reference cannot see pages mapped after it was
    // forked; a dlopen between calls is a quiescent point, so
    // resyncing is the checker's documented contract. The block
    // cache is shared, not forked — a stale block would still
    // diverge on its first retire.
    checker.resync();
    EXPECT_EQ(sim.call("f").returnValue, 2u);
    EXPECT_EQ(sim.call("f").returnValue, 2u);
    EXPECT_GT(sim.image->liveBlocks(), 0u);
    sim.core->setRetireObserver(nullptr);
}

TEST(BlockInvalidation, SnapshotRestoreDropsBlocksOfPatchedCode)
{
    auto mc = blockMachine();
    mc.nearLibraries = true;
    mc.collectCallSiteTrace = true;
    const auto wl = smallWorkload(13);
    Workbench wb(wl, mc);
    LockstepChecker checker(wb.core());
    wb.core().setRetireObserver(&checker);

    // Warm, then checkpoint the unpatched machine.
    runChecked(wb, 30);
    const auto bytes = snapshotWorkbench(wb);

    // Diverge from the checkpoint: patch every profiled call site
    // and keep running, so the cache fills with blocks of the
    // *patched* code.
    linker::Patcher patcher;
    const auto ps =
        patcher.apply(wb.image(), wb.core().callSiteTrace());
    ASSERT_GT(ps.sitesPatched, 0u);
    runChecked(wb, 30);
    ASSERT_GT(wb.image().liveBlocks(), 0u);
    const auto flushes0 = wb.image().blockCacheFlushes();

    // Restore the unpatched snapshot into the same workbench. The
    // cached blocks still describe patched code; serving any of
    // them after the restore would retire a direct call where the
    // restored slots hold `call trampoline` — the oracle, resynced
    // per its snapshot contract, would diverge instantly.
    restoreWorkbench(wb, bytes.data(), bytes.size());
    EXPECT_GT(wb.image().blockCacheFlushes(), flushes0);
    EXPECT_EQ(wb.image().liveBlocks(), 0u);
    checker.resync();

    runChecked(wb, 30);
    EXPECT_GT(wb.image().liveBlocks(), 0u);
    EXPECT_GT(checker.stats().checkedRetires, 1000u);
    wb.core().setRetireObserver(nullptr);
}

TEST(BlockInvalidation, DlopenBetweenPerInstructionQuantaIsSafe)
{
    // The per-instruction loop keeps no slot pointer across run()
    // calls: a dlopen between two quanta grows the slot table (and
    // may move it), and the next step must decode afresh. Under
    // ASan a pointer kept into the old table reads freed memory.
    elf::ModuleBuilder app("app");
    app.setDataSize(4096);
    auto &f = app.function("f");
    for (int i = 0; i < 20; ++i)
        f.movImm(isa::RegRet, i);
    f.ret();

    elf::ModuleBuilder big("libbig");
    auto &g = big.function("g");
    for (int i = 0; i < 5000; ++i)
        g.nop();
    g.ret();

    cpu::CoreParams params;
    params.blockDispatch = false;
    test::Sim sim(app.build(), {}, params);
    sim.core->beginCall(sim.image->symbolAddress("f"));
    EXPECT_FALSE(sim.core->runQuantum(3));
    sim.loader.dlopen(*sim.image, big.build());
    EXPECT_TRUE(sim.core->runQuantum(1000));
    EXPECT_EQ(sim.core->state().regs[isa::RegRet], 19u);
}

namespace
{

/** The va just past the first instruction with opcode `op` in the
 *  function at `fn` (a return landing after a call). */
isa::Addr
afterFirst(const linker::Image &image, isa::Addr fn, isa::Opcode op)
{
    for (isa::Addr va = fn;;) {
        const linker::Slot *s = image.decode(va);
        if (s == nullptr)
            return 0;
        va += s->inst.size;
        if (s->inst.op == op)
            return va;
    }
}

/** Indirect-successor memo of the block headed at `head`. */
std::pair<isa::Addr, std::int32_t>
indirectMemo(const linker::Image &image, isa::Addr head)
{
    const auto &b = image.block(image.blockIndex(head));
    return {b.succIndirectVa, b.succIndirect};
}

/** main -> lib outer -> app cb by register; cb's Ret lands in
 *  outer, whose code after the call adds `add`. */
elf::Module
callbackApp()
{
    elf::ModuleBuilder app("app");
    app.setDataSize(4096);
    auto &f = app.function("main");
    f.callExternal("outer");
    f.ret();
    auto &cb = app.function("cb");
    cb.aluImm(isa::AluKind::Add, isa::RegRet, isa::RegRet, 1);
    cb.ret();
    return app.build();
}

elf::Module
callbackLib(const std::string &name, std::int64_t add)
{
    elf::ModuleBuilder mb(name);
    auto &fn = mb.function("outer");
    fn.movImm(isa::RegRet, 0);
    fn.movFuncAddr(2, "cb");
    fn.callReg(2);
    fn.aluImm(isa::AluKind::Add, isa::RegRet, isa::RegRet, add);
    fn.ret();
    return mb.build();
}

} // namespace

TEST(BlockInvalidation, ReturnLandingMemoDiesWithDlcloseReload)
{
    // cb's Ret memoizes its landing inside lib's outer. dlclose +
    // dlopen puts different code at exactly that va; the memo must
    // die with the block cache, or the core would enter v1's landing
    // block while the oracle decodes v2's slots.
    cpu::CoreParams params = test::enhancedParams();
    params.blockDispatch = true;
    test::Sim sim(callbackApp(), {callbackLib("libv1", 10)}, params);
    LockstepChecker checker(*sim.core);
    sim.core->setRetireObserver(&checker);

    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(sim.call("main").returnValue, 11u);
    const isa::Addr cb = sim.image->symbolAddress("cb");
    const isa::Addr landing =
        afterFirst(*sim.image, sim.image->symbolAddress("outer"),
                   isa::Opcode::CallIndReg);
    const auto memo = indirectMemo(*sim.image, cb);
    EXPECT_EQ(memo.first, landing);
    EXPECT_GE(memo.second, 0);

    sim.loader.dlclose(*sim.image, "libv1", [&](isa::Addr a) {
        sim.core->onExternalGotWrite(a);
        checker.onExternalWrite(a);
    });
    sim.loader.dlopen(*sim.image, callbackLib("libv2", 20));
    ASSERT_EQ(afterFirst(*sim.image, sim.image->symbolAddress("outer"),
                         isa::Opcode::CallIndReg),
              landing);
    EXPECT_EQ(sim.image->liveBlocks(), 0u);
    checker.resync();

    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(sim.call("main").returnValue, 21u);
    EXPECT_EQ(indirectMemo(*sim.image, cb).first, landing);
    EXPECT_GT(checker.stats().checkedRetires, 30u);
    sim.core->setRetireObserver(nullptr);
}

TEST(BlockInvalidation, ReturnLandingMemoDiesWithPatcherWrite)
{
    // cb's Ret lands on `call libg@plt` in main. The patcher turns
    // that landing into `call libg`; a surviving memo would keep
    // entering the stale block that calls the trampoline.
    elf::ModuleBuilder app("app");
    app.setDataSize(4096);
    auto &f = app.function("main");
    f.movFuncAddr(2, "cb");
    f.callReg(2);
    f.callExternal("libg");
    f.ret();
    auto &cb = app.function("cb");
    cb.movImm(isa::RegArg0, 4);
    cb.ret();
    elf::ModuleBuilder lib("lib");
    auto &g = lib.function("libg");
    g.aluImm(isa::AluKind::Mul, isa::RegRet, isa::RegArg0, 5);
    g.ret();

    cpu::CoreParams params;
    params.collectCallSiteTrace = true;
    params.blockDispatch = true;
    linker::LoaderOptions near;
    near.nearLibraries = true;
    test::Sim sim(app.build(), {lib.build()}, params, near);
    LockstepChecker checker(*sim.core);
    sim.core->setRetireObserver(&checker);

    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(sim.call("main").returnValue, 20u);
    const isa::Addr landing =
        afterFirst(*sim.image, sim.image->symbolAddress("main"),
                   isa::Opcode::CallIndReg);
    EXPECT_EQ(indirectMemo(*sim.image, sim.image->symbolAddress("cb"))
                  .first,
              landing);

    linker::Patcher patcher;
    const auto ps =
        patcher.apply(*sim.image, sim.core->callSiteTrace());
    ASSERT_EQ(ps.sitesPatched, 1u);
    EXPECT_EQ(sim.image->liveBlocks(), 0u);

    const auto tramp0 = sim.core->counters().trampolineInsts;
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(sim.call("main").returnValue, 20u);
    // The patched landing calls libg directly.
    EXPECT_EQ(sim.core->counters().trampolineInsts, tramp0);
    EXPECT_GT(checker.stats().checkedRetires, 30u);
    sim.core->setRetireObserver(nullptr);
}

TEST(BlockInvalidation, MemoizedLandingLaterAbtbSubstituted)
{
    // main calls libfn's trampoline through a register: the landing
    // is first the trampoline, then — once the ABTB holds the
    // trampoline — libfn itself, then the trampoline again after a
    // flush. The memo follows every switch; blocks on and off agree
    // on every counter.
    const auto run = [](bool blocks) {
        elf::ModuleBuilder app("app");
        app.setDataSize(4096);
        auto &f = app.function("main");
        f.movImm(2, 0); // the trampoline va, set below
        f.callReg(2);
        f.ret();
        app.declareImport("libfn");
        elf::ModuleBuilder lib("lib");
        auto &g = lib.function("libfn");
        g.aluImm(isa::AluKind::Add, isa::RegRet, isa::RegArg0, 100);
        g.ret();

        cpu::CoreParams params = test::enhancedParams();
        params.blockDispatch = blocks;
        test::Sim sim(app.build(), {lib.build()}, params);
        const isa::Addr main = sim.image->symbolAddress("main");
        const isa::Addr tramp = sim.image->moduleAt(0).pltEntryVas[0];
        const isa::Addr libfn = sim.image->symbolAddress("libfn");
        sim.image->decodeMutable(main)->inst.imm =
            static_cast<std::int64_t>(tramp);
        LockstepChecker checker(*sim.core);
        sim.core->setRetireObserver(&checker);

        EXPECT_EQ(sim.call("main", 1).returnValue, 101u);
        if (blocks) {
            EXPECT_EQ(indirectMemo(*sim.image, main).first, tramp);
        }
        for (std::uint64_t i = 2; i < 6; ++i)
            EXPECT_EQ(sim.call("main", i).returnValue, 100 + i);
        EXPECT_GT(sim.core->counters().skippedTrampolines, 0u);
        if (blocks) {
            EXPECT_EQ(indirectMemo(*sim.image, main).first, libfn);
        }

        sim.core->skipUnit()->explicitFlush();
        EXPECT_EQ(sim.call("main", 7).returnValue, 107u);
        if (blocks) {
            EXPECT_EQ(indirectMemo(*sim.image, main).first, tramp);
        }
        EXPECT_EQ(sim.call("main", 8).returnValue, 108u);
        sim.core->setRetireObserver(nullptr);
        stats::MetricsRegistry reg;
        sim.core->reportMetrics(reg, "dlsim");
        stats::MetricsDocument doc("memo");
        doc.addRun("run").registry = reg;
        return doc.toJson();
    };
    EXPECT_EQ(run(true), run(false));
}
