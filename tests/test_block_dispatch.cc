/**
 * @file
 * Differential determinism for the basic-block dispatch engine: a
 * Figure-5-style grid run with block dispatch ON must produce
 * byte-identical metric documents to the same grid with block
 * dispatch OFF, at --jobs 1 and --jobs 4 — the dispatch engine is
 * an execution strategy, never a model change. The same grid with a
 * lockstep checker attached (the observed block loop) must match
 * too, and so must sampled execution. RefCore's block-chained
 * fast-forward is pinned against its own step(). A hand-built
 * program that emits every body-op handler form (including the
 * ones no workload generator emits), a Halt terminator and a block
 * capped at MaxBlockOps pins the compiled block form: blocks on,
 * off, under the lockstep checker and in every quantum size agree
 * on registers, memory and counters, and the blocks' I-line runs
 * match their vas. Runs under the TSan smoke build (ctest -L
 * tsan-smoke) and the block-smoke and sanitize-smoke labels.
 */

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/lockstep.hh"
#include "check/ref_core.hh"
#include "common.hh"
#include "sim_fixture.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

/**
 * A reduced fig5 grid: 2 ABTB sizes x 2 profiles. `observed`
 * attaches a lockstep checker for the whole arm, which routes block
 * dispatch through the observed (per-op bookkeeping) block loop.
 */
std::vector<std::function<ArmResult()>>
makeGrid(bool blocks, bool observed = false)
{
    std::vector<std::function<ArmResult()>> work;
    for (const std::uint32_t entries : {4u, 64u}) {
        for (const char *name : {"apache", "memcached"}) {
            work.push_back([entries, name, blocks, observed] {
                auto mc = enhancedMachine();
                mc.abtbEntries = entries;
                mc.abtbAssoc = std::min(entries, 4u);
                mc.core.blockDispatch = blocks;
                workload::Workbench wb(workload::profileByName(name),
                                       mc);
                std::unique_ptr<check::LockstepChecker> checker;
                if (observed) {
                    checker = std::make_unique<check::LockstepChecker>(
                        wb.core());
                    wb.core().setRetireObserver(checker.get());
                }
                wb.warmup(20);
                ArmResult r = measureArm(wb, 30);
                wb.core().setRetireObserver(nullptr);
                return r;
            });
        }
    }
    return work;
}

/** `strip_ptc` drops the page-translation-cache counters: process-
 *  local accelerator statistics, not part of the model. */
std::string
renderJson(const std::vector<ArmResult> &arms, bool strip_ptc = false)
{
    stats::MetricsDocument doc("test_block_dispatch");
    for (std::size_t i = 0; i < arms.size(); ++i) {
        auto &run = doc.addRun("arm" + std::to_string(i));
        run.registry = arms[i].registry;
        if (strip_ptc)
            run.registry.erasePrefix("dlsim.mem.ptc.");
    }
    return doc.toJson();
}

std::string
runGridJson(bool blocks, unsigned jobs, bool observed = false,
            bool strip_ptc = false)
{
    return renderJson(
        sim::JobRunner(jobs).run(makeGrid(blocks, observed)),
        strip_ptc);
}

} // namespace

TEST(BlockDispatch, OnVsOffByteIdenticalSingleThreaded)
{
    EXPECT_EQ(runGridJson(true, 1), runGridJson(false, 1));
}

TEST(BlockDispatch, OnVsOffByteIdenticalAcrossJobCounts)
{
    const std::string on1 = runGridJson(true, 1);
    EXPECT_EQ(on1, runGridJson(true, 4));
    EXPECT_EQ(on1, runGridJson(false, 4));
}

TEST(BlockDispatch, ObservedBlockLoopIsTimingInvisible)
{
    // The observed and unobserved block loops differ only in
    // per-op versus batched bookkeeping. Under the checker, block
    // dispatch matches the per-instruction loop outright. Against
    // the unobserved arms every model counter matches; only the
    // page-translation-cache counters move, because the checker's
    // copy-on-write fork of memory cools that host-side cache
    // whichever loop runs.
    EXPECT_EQ(runGridJson(true, 4, true), runGridJson(false, 4, true));
    const std::string observed = runGridJson(true, 4, true, true);
    EXPECT_EQ(observed, runGridJson(true, 4, false, true));
    EXPECT_EQ(observed, runGridJson(false, 4, false, true));
}

TEST(BlockDispatch, SampledFastForwardOnVsOffByteIdentical)
{
    // Sampled mode: detailed windows run either core loop, the
    // fast-forward phases RefCore's one engine.
    const auto run = [](bool blocks) {
        sim::SampleParams sp;
        sim::SampleParams::parse("2000:2000:20000", sp);
        auto mc = enhancedMachine();
        mc.core.blockDispatch = blocks;
        std::vector<ArmResult> arms = {
            runArm(workload::profileByName("apache"), mc, 20, 30,
                   sp)};
        return renderJson(arms);
    };
    EXPECT_EQ(run(true), run(false));
}

namespace
{

using check::FastStop;
using check::RefCore;

/**
 * runFast's contract spelled out with step(): check the stops
 * (halt, stop_pc, resolver trap) before every step, stop on the
 * budget only when none applies.
 */
RefCore::FastRun
stepRun(RefCore &ref, std::uint64_t budget, isa::Addr stop_pc)
{
    RefCore::FastRun r;
    for (;; ++r.steps) {
        const cpu::MachineState &st = ref.state();
        if (st.halted) {
            r.stop = FastStop::Halted;
        } else if (st.pc == stop_pc) {
            r.stop = FastStop::StopPc;
        } else if (st.pc == linker::ResolverVa) {
            r.stop = FastStop::Resolver;
        } else if (r.steps == budget) {
            r.stop = FastStop::Budget;
        } else {
            ref.step();
            continue;
        }
        return r;
    }
}

/** Two reference cores forked from one workbench state. */
struct RefPair
{
    RefCore fast;
    RefCore stepped;

    explicit RefPair(workload::Workbench &wb)
        : fast(&wb.image()), stepped(&wb.image())
    {
        fast.sync(wb.core().state());
        stepped.sync(wb.core().state());
    }

    /** Run both engines for `budget`; expect identical outcomes. */
    FastStop
    run(std::uint64_t budget, isa::Addr stop_pc = cpu::MagicReturnVa)
    {
        const RefCore::FastRun f = fast.runFast(budget, stop_pc);
        const RefCore::FastRun s = stepRun(stepped, budget, stop_pc);
        EXPECT_EQ(f.steps, s.steps) << "budget " << budget;
        EXPECT_EQ(f.stop, s.stop) << "budget " << budget;
        EXPECT_EQ(fast.state().regs, stepped.state().regs);
        EXPECT_EQ(fast.state().pc, stepped.state().pc);
        EXPECT_EQ(fast.state().halted, stepped.state().halted);
        return f.stop;
    }
};

} // namespace

TEST(BlockDispatch, RefCoreFastForwardMatchesStep)
{
    const auto wl = workload::profileByName("apache");
    {
        // Cold: the handler's first lazy import traps to the
        // resolver.
        workload::Workbench cold(wl, enhancedMachine());
        cold.beginRequest(0);
        RefPair p(cold);
        EXPECT_EQ(p.run(UINT64_MAX), FastStop::Resolver);
    }

    // Warm: the imports are bound, the request runs to its return.
    workload::Workbench wb(wl, enhancedMachine());
    wb.warmup(20);
    wb.beginRequest(0);
    const isa::Addr entry = wb.core().state().pc;
    const linker::Image::Block head =
        wb.image().block(wb.image().blockIndex(entry));
    ASSERT_TRUE(head.hasTerm);
    ASSERT_GE(head.bodyOps, 2u);
    {
        RefPair p(wb);
        // The budget lapses mid-body of the entry block.
        EXPECT_EQ(p.run(1), FastStop::Budget);
    }
    {
        RefPair p(wb);
        // The budget lapses exactly before the entry terminator.
        EXPECT_EQ(p.run(head.bodyOps), FastStop::Budget);
    }
    {
        RefPair p(wb);
        EXPECT_EQ(p.run(UINT64_MAX), FastStop::StopPc);
    }
    {
        // A whole request in uneven slices: budgets lapse at every
        // kind of block offset, and one run ends on the stop pc.
        RefPair p(wb);
        FastStop stop = FastStop::Budget;
        for (std::uint64_t i = 0; stop == FastStop::Budget; ++i)
            stop = p.run(1 + i % 7);
        EXPECT_EQ(stop, FastStop::StopPc);
    }
}

namespace
{

using isa::AluKind;
using linker::Handler;

/** Byte offset in the app's data of the absolute-address word. */
constexpr std::int64_t AbsWordOffset = 16;

/**
 * A program that executes every body-op handler form, built by hand
 * because the workload generators never emit several of them
 * (register-register Mul/Shr, immediate Xor/Or, absolute loads and
 * stores, Pop). main loops its body `iterations` times: ALU ops in
 * both operand forms, base-relative and absolute memory ops, push,
 * push-immediate and pops, two PLT calls and an AbtbFlush, a
 * local call, an indirect call, and a straight run longer than
 * MaxBlockOps; it ends in Halt.
 */
elf::Module
allHandlersApp()
{
    using namespace isa;
    elf::ModuleBuilder mb("app");
    mb.setDataSize(4096);
    auto &helper = mb.function("helper");
    helper.aluImm(AluKind::Add, RegRet, RegArg0, 3);
    helper.ret();

    auto &f = mb.function("main");
    f.movImm(12, 5); // loop counter
    f.movImm(2, 0x0123456789abcdefll);
    const elf::Label top = f.newLabel();
    f.bind(top);
    f.movImm(3, 13);
    f.alu(AluKind::Add, 4, 2, 3);
    f.aluImm(AluKind::Add, 5, 4, -5);
    f.alu(AluKind::Sub, 6, 5, 3);
    f.aluImm(AluKind::Sub, 7, 6, 77);
    f.alu(AluKind::And, 8, 7, 2);
    f.aluImm(AluKind::And, 9, 8, 0xff00ff);
    f.alu(AluKind::Or, 10, 9, 4);
    f.aluImm(AluKind::Or, 11, 10, 0x40);
    f.alu(AluKind::Xor, 4, 11, 6);
    f.aluImm(AluKind::Xor, 5, 4, 0x5a5a);
    f.alu(AluKind::Mul, 6, 5, 3);
    f.aluImm(AluKind::Mul, 7, 6, 3);
    f.alu(AluKind::Shr, 8, 7, 3);
    f.aluImm(AluKind::Shr, 9, 8, 7);
    f.alu(AluKind::Add, 2, 2, 9);
    f.movDataAddr(10, 0);
    f.store(9, 10, 8);
    f.load(11, 10, 8);
    // Absolute address: relocated by hand after loading
    // (relocateAbsolute), like a RIP-relative data reference.
    f.emit(makeStore(11, NoReg, 0));
    f.emit(makeLoad(4, NoReg, 0));
    f.push(4);
    f.emit(makePushImm(42));
    f.pop(5);
    f.pop(6);
    f.nop();
    f.alu(AluKind::Add, RegArg0, 5, 6);
    // The second call skips the trampoline; the flush empties the
    // ABTB again for the next iteration.
    f.callExternal("libfn");
    f.alu(AluKind::Add, RegArg0, RegRet, 1);
    f.callExternal("libfn");
    f.abtbFlush();
    f.alu(AluKind::Xor, 2, 2, RegRet);
    f.callLocal("helper");
    f.movFuncAddr(7, "helper");
    f.callReg(7);
    f.alu(AluKind::Add, 2, 2, RegRet);
    // A straight run past MaxBlockOps: its first block is capped.
    for (int i = 0; i < linker::Image::MaxBlockOps + 6; ++i)
        f.aluImm(i % 2 ? AluKind::Add : AluKind::Xor, 2, 2, i + 1);
    f.aluImm(AluKind::Sub, 12, 12, 1);
    f.condBr(CondKind::Ne0, 12, top);
    f.alu(AluKind::Add, RegRet, 2, 0);
    f.halt();
    return mb.build();
}

elf::Module
allHandlersLib()
{
    elf::ModuleBuilder mb("lib");
    auto &g = mb.function("libfn");
    g.aluImm(isa::AluKind::Mul, isa::RegRet, isa::RegArg0, 7);
    g.ret();
    return mb.build();
}

/** Vas of main's slots, in order, up to and including its Halt. */
std::vector<isa::Addr>
mainVas(const linker::Image &image)
{
    std::vector<isa::Addr> vas;
    isa::Addr va = image.symbolAddress("main");
    for (const linker::Slot *s = image.decode(va);
         s != nullptr; s = image.decode(va)) {
        vas.push_back(va);
        if (s->inst.op == isa::Opcode::Halt)
            break;
        va += s->inst.size;
    }
    return vas;
}

/** Point main's absolute loads and stores at the app's data. */
void
relocateAbsolute(linker::Image &image)
{
    const isa::Addr word =
        image.moduleAt(0).dataBase + AbsWordOffset;
    for (const isa::Addr va : mainVas(image)) {
        linker::Slot *s = image.decodeMutable(va);
        const Handler h = linker::handlerOf(s->inst);
        if (h == Handler::LoadAbs || h == Handler::StoreAbs)
            s->inst.imm = static_cast<std::int64_t>(word);
    }
}

cpu::CoreParams
explicitInvalidationParams(bool blocks, std::uint32_t l1i_line)
{
    auto p = test::enhancedParams();
    p.skip.explicitInvalidation = true;
    p.blockDispatch = blocks;
    p.mem.l1i.lineBytes = l1i_line;
    return p;
}

/** Everything a run can leave behind. */
struct Outcome
{
    std::array<std::uint64_t, isa::NumRegs> regs{};
    std::vector<std::uint64_t> data;
    std::vector<std::uint64_t> stack;
    std::string metrics;
    std::uint64_t skipped = 0;

    bool operator==(const Outcome &) const = default;
};

/**
 * Call main three times. `quantum` 0 runs each call to completion;
 * otherwise every call is sliced into runQuantum(quantum) pieces.
 * `checked` attaches the lockstep checker for the whole run.
 */
Outcome
runAllHandlers(bool blocks, bool checked, std::uint64_t quantum,
               std::uint32_t l1i_line = 64)
{
    test::Sim sim(allHandlersApp(), {allHandlersLib()},
                  explicitInvalidationParams(blocks, l1i_line));
    relocateAbsolute(*sim.image);
    std::unique_ptr<check::LockstepChecker> checker;
    if (checked) {
        checker = std::make_unique<check::LockstepChecker>(*sim.core);
        sim.core->setRetireObserver(checker.get());
    }
    const isa::Addr main = sim.image->symbolAddress("main");
    for (std::uint64_t call = 0; call < 3; ++call) {
        if (quantum == 0) {
            sim.core->callFunction(main, call);
        } else {
            sim.core->beginCall(main, call);
            while (!sim.core->runQuantum(quantum)) {
            }
        }
        EXPECT_TRUE(sim.core->state().halted);
    }
    sim.core->setRetireObserver(nullptr);
    if (checker) {
        EXPECT_GT(checker->stats().checkedRetires, 1000u);
    }

    Outcome out;
    out.regs = sim.core->state().regs;
    const auto &as = sim.image->addressSpace();
    const isa::Addr data = sim.image->moduleAt(0).dataBase;
    for (isa::Addr a = data; a < data + 64; a += 8)
        out.data.push_back(as.peek64(a));
    const isa::Addr sp = out.regs[isa::RegSp];
    for (isa::Addr a = sp - 64; a < sp + 64; a += 8)
        out.stack.push_back(as.peek64(a));
    stats::MetricsDocument doc("all_handlers");
    auto &run = doc.addRun("run");
    sim.core->reportMetrics(run.registry, "dlsim");
    out.metrics = doc.toJson();
    out.skipped = sim.core->counters().skippedTrampolines;
    return out;
}

} // namespace

TEST(BlockDispatch, EveryHandlerFormIsEmittedAndCompiled)
{
    test::Sim sim(allHandlersApp(), {allHandlersLib()},
                  explicitInvalidationParams(true, 64));
    relocateAbsolute(*sim.image);
    std::set<Handler> seen;
    for (const isa::Addr va : mainVas(*sim.image))
        seen.insert(linker::handlerOf(sim.image->decode(va)->inst));
    for (int h = 0; h <= static_cast<int>(Handler::Control); ++h) {
        EXPECT_TRUE(seen.count(static_cast<Handler>(h)))
            << "handler " << h << " not emitted";
    }

    // Each cached op carries its slot's handler and instruction;
    // the main loop holds a block capped at MaxBlockOps and main
    // ends in a Halt terminator.
    sim.call("main");
    const linker::Image &image = *sim.image;
    bool capped = false;
    bool halt_term = false;
    for (std::size_t i = 0; i < image.liveBlocks(); ++i) {
        const auto &b = image.block(static_cast<std::int32_t>(i));
        const auto *ops = image.blockOps(b);
        const std::uint32_t total = b.bodyOps + (b.hasTerm ? 1 : 0);
        for (std::uint32_t k = 0; k < total; ++k) {
            const linker::Slot *s = image.decode(ops[k].va);
            EXPECT_EQ(ops[k].inst.op, s->inst.op);
            EXPECT_EQ(ops[k].handler, linker::handlerOf(s->inst));
        }
        capped |= !b.hasTerm && b.bodyOps == linker::Image::MaxBlockOps;
        halt_term |= b.hasTerm &&
                     ops[b.bodyOps].handler == Handler::Halt;
    }
    EXPECT_TRUE(capped);
    EXPECT_TRUE(halt_term);
}

TEST(BlockDispatch, EveryHandlerAgreesAcrossLoopsAndQuanta)
{
    const Outcome ref = runAllHandlers(false, false, 0);
    EXPECT_GT(ref.skipped, 0u); // the ABTB substituted between flushes
    EXPECT_EQ(runAllHandlers(true, false, 0), ref);
    // The checker retires every op against check::RefCore, which
    // decodes opcodes itself: a wrong handler mapping diverges.
    EXPECT_EQ(runAllHandlers(true, true, 0), ref);
    EXPECT_EQ(runAllHandlers(false, true, 0), ref);
    // Every quantum size: boundaries land at every offset of every
    // block, inside I-line runs and right before terminators.
    for (std::uint64_t q = 1; q <= 48; ++q) {
        SCOPED_TRACE("quantum " + std::to_string(q));
        EXPECT_EQ(runAllHandlers(true, false, q), ref);
    }
    for (const std::uint64_t q : {1u, 7u, 33u}) {
        SCOPED_TRACE("checked quantum " + std::to_string(q));
        EXPECT_EQ(runAllHandlers(true, true, q), ref);
    }
}

TEST(BlockDispatch, LineRunsFollowTheAttachedL1iLine)
{
    // Blocks compiled for 32-byte lines run identically to the
    // per-instruction loop on the same machine.
    EXPECT_EQ(runAllHandlers(true, false, 0, 32),
              runAllHandlers(false, false, 0, 32));

    test::Sim sim(allHandlersApp(), {allHandlersLib()},
                  explicitInvalidationParams(true, 64));
    relocateAbsolute(*sim.image);
    const auto check_runs = [&](std::uint32_t shift) {
        const linker::Image &image = *sim.image;
        ASSERT_GT(image.liveBlocks(), 0u);
        for (std::size_t i = 0; i < image.liveBlocks(); ++i) {
            const auto &b = image.block(static_cast<std::int32_t>(i));
            const auto *ops = image.blockOps(b);
            const auto line = [&](isa::Addr va) { return va >> shift; };
            for (std::uint32_t k = 0; k < b.bodyOps; ++k) {
                std::uint32_t run = 0;
                while (k + run + 1 < b.bodyOps &&
                       line(ops[k + run + 1].va) == line(ops[k].va))
                    ++run;
                EXPECT_EQ(ops[k].lineRun, run);
            }
            EXPECT_EQ(b.termSameLine,
                      b.hasTerm && b.bodyOps != 0 &&
                          line(ops[b.bodyOps - 1].va) == line(b.endVa));
        }
    };
    sim.call("main");
    check_runs(6);

    // A core with another L1I line attaching to the image rebuilds
    // its blocks for that line.
    const auto flushes = sim.image->blockCacheFlushes();
    cpu::Core narrow(explicitInvalidationParams(true, 32));
    narrow.attachProcess(sim.image.get(), sim.linker.get(), 0);
    EXPECT_EQ(sim.image->blockCacheFlushes(), flushes + 1);
    EXPECT_EQ(sim.image->liveBlocks(), 0u);
    narrow.initStack(sim.loader.stackTop());
    narrow.callFunction(sim.image->symbolAddress("main"));
    check_runs(5);
}
