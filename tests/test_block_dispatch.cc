/**
 * @file
 * Differential determinism for the basic-block dispatch engine: a
 * Figure-5-style grid run with block dispatch ON must produce
 * byte-identical metric documents to the same grid with block
 * dispatch OFF, at --jobs 1 and --jobs 4 — the dispatch engine is
 * an execution strategy, never a model change. The sampled
 * execution mode gets the same treatment, covering the RefCore
 * block-chained fast-forward path. Runs under the TSan smoke build
 * (ctest -L tsan-smoke) and the block-smoke label.
 */

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

/** A reduced fig5 grid: 2 ABTB sizes x 2 profiles. */
std::vector<std::function<ArmResult()>>
makeGrid(bool blocks)
{
    std::vector<std::function<ArmResult()>> work;
    for (const std::uint32_t entries : {4u, 64u}) {
        for (const char *name : {"apache", "memcached"}) {
            work.push_back([entries, name, blocks] {
                auto mc = enhancedMachine();
                mc.abtbEntries = entries;
                mc.abtbAssoc = std::min(entries, 4u);
                mc.core.blockDispatch = blocks;
                return runArm(workload::profileByName(name), mc,
                              20, 30);
            });
        }
    }
    return work;
}

std::string
renderJson(const std::vector<ArmResult> &arms)
{
    stats::MetricsDocument doc("test_block_dispatch");
    for (std::size_t i = 0; i < arms.size(); ++i) {
        auto &run = doc.addRun("arm" + std::to_string(i));
        run.registry = arms[i].registry;
    }
    return doc.toJson();
}

std::string
runGridJson(bool blocks, unsigned jobs)
{
    return renderJson(sim::JobRunner(jobs).run(makeGrid(blocks)));
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

TEST(BlockDispatch, SampledFastForwardOnVsOffByteIdentical)
{
    // Sampled mode routes fast-forward through RefCore, whose
    // block-chained engine follows the core's blockDispatch knob
    // (sim::Sampler ties them together).
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
