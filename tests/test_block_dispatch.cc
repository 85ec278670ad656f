/**
 * @file
 * Differential determinism for the basic-block dispatch engine: a
 * Figure-5-style grid run with block dispatch ON must produce
 * byte-identical metric documents to the same grid with block
 * dispatch OFF, at --jobs 1 and --jobs 4 — the dispatch engine is
 * an execution strategy, never a model change. The same grid with a
 * lockstep checker attached (the observed block loop) must match
 * too, and so must sampled execution. RefCore's block-chained
 * fast-forward is pinned against its own step(). Runs under the
 * TSan smoke build (ctest -L tsan-smoke) and the block-smoke label.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/lockstep.hh"
#include "check/ref_core.hh"
#include "common.hh"

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
