/**
 * @file
 * Tests for the multicore system under os::Kernel, its one
 * scheduler: deterministic interleaving, shared-memory threads, and
 * — the paper-critical part — coherence invalidations reaching
 * every core's ABTB (§3.2's "or an invalidation for such an address
 * is received from the coherence subsystem").
 */

#include <gtest/gtest.h>

#include "elf/builder.hh"
#include "linker/loader.hh"
#include "os/sched.hh"
#include "sim/multicore.hh"
#include "snapshot/serializer.hh"

using namespace dlsim;
using namespace dlsim::isa;
using dlsim::sim::MultiCoreParams;
using dlsim::sim::MultiCoreSystem;

namespace
{

/** worker(arg0, arg1, tid): calls a library fn and mixes args. */
elf::Module
makeExe()
{
    elf::ModuleBuilder mb("app");
    mb.setDataSize(8192);
    auto &w = mb.function("worker");
    auto top = w.newLabel();
    w.aluImm(AluKind::Add, 10, RegArg0, 0); // r10 = loop count
    w.bind(top);
    w.callExternal("libfn");
    w.aluImm(AluKind::Sub, 10, 10, 1);
    w.condBr(CondKind::Ne0, 10, top);
    w.alu(AluKind::Add, RegRet, RegRet, RegArg1);
    w.ret();

    // bump(): writes the shared counter in app data.
    auto &bump = mb.function("bump");
    bump.movDataAddr(4, 0);
    bump.load(5, 4, 0);
    bump.aluImm(AluKind::Add, 5, 5, 1);
    bump.store(5, 4, 0);
    bump.alu(AluKind::Add, RegRet, 5, 5);
    bump.ret();
    return mb.build();
}

elf::Module
makeLib()
{
    elf::ModuleBuilder mb("lib");
    auto &f = mb.function("libfn");
    f.aluImm(AluKind::Add, RegRet, RegArg2, 100);
    f.ret();
    return mb.build();
}

/** (arg0, arg1) of one thread's single call. */
using Args = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

struct Rig
{
    linker::Loader loader;
    std::unique_ptr<linker::Image> image;
    std::unique_ptr<linker::DynamicLinker> linker;
    std::unique_ptr<MultiCoreSystem> system;
    std::unique_ptr<os::Kernel> kernel;

    explicit Rig(const MultiCoreParams &params,
                 std::uint64_t quantum = 200)
    {
        image = loader.load(makeExe(), {makeLib()});
        linker =
            std::make_unique<linker::DynamicLinker>(*image);
        system = std::make_unique<MultiCoreSystem>(
            params, *image, *linker, loader.stackTop());
        os::KernelParams kp;
        kp.quantum = quantum;
        kernel = std::make_unique<os::Kernel>(kp, *system, *image,
                                              *linker);
    }

    /**
     * Spawn one thread per entry of `args`, each calling `fn` once
     * with its thread index as arg2, run the kernel until they are
     * all done, and return their return values in spawn order.
     */
    std::vector<std::uint64_t> run(const char *fn, const Args &args)
    {
        std::vector<const os::CallThread *> threads;
        for (std::uint64_t t = 0; t < args.size(); ++t) {
            auto body = std::make_unique<os::CallThread>(
                std::vector<os::SimCall>{{image->symbolAddress(fn),
                                          args[t].first,
                                          args[t].second, t}});
            threads.push_back(body.get());
            kernel->spawn(std::move(body),
                          "t" + std::to_string(t));
        }
        kernel->run();
        std::vector<std::uint64_t> out;
        for (const auto *t : threads) {
            EXPECT_EQ(t->results().size(), 1u);
            out.push_back(t->results().empty() ? 0
                                               : t->results()[0]);
        }
        return out;
    }

    std::uint64_t sharedCounter() const
    {
        mem::MemFault fault = mem::MemFault::None;
        return image->addressSpace().read64(
            image->moduleAt(0).dataBase, fault);
    }
};

MultiCoreParams
enhancedParams(std::uint32_t cores)
{
    MultiCoreParams p;
    p.numCores = cores;
    p.core.skipUnitEnabled = true;
    return p;
}

MultiCoreParams
plainParams(std::uint32_t cores)
{
    MultiCoreParams p;
    p.numCores = cores;
    return p;
}

/** Everything a run leaves behind that must not vary between two
 *  identical runs. */
struct Fingerprint
{
    std::vector<std::uint64_t> results;
    std::vector<std::uint64_t> insts;
    std::vector<std::uint64_t> cycles;
    std::uint64_t vtime = 0;

    bool operator==(const Fingerprint &) const = default;
};

Fingerprint
fingerprint(Rig &rig, const std::vector<std::uint64_t> &results)
{
    Fingerprint f;
    f.results = results;
    for (std::uint32_t i = 0; i < rig.system->numCores(); ++i) {
        f.insts.push_back(rig.system->core(i).instructionsRetired());
        f.cycles.push_back(rig.system->core(i).cycleCount());
    }
    f.vtime = rig.kernel->now();
    return f;
}

} // namespace

TEST(MultiCore, ThreadsComputeIndependentResults)
{
    Rig rig(plainParams(4));
    const auto results =
        rig.run("worker", {{2, 10}, {2, 20}, {2, 30}, {2, 40}});
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        // libfn returns tid+100; worker adds arg1.
        EXPECT_EQ(results[i], 100 + i + 10 * (i + 1));
    }
}

TEST(MultiCore, SharedMemoryVisibleAcrossThreads)
{
    // A quantum longer than the program serialises the threads, so
    // the non-atomic increments do not race.
    Rig rig(plainParams(4), /*quantum=*/100000);
    rig.run("bump", {{0, 0}, {0, 0}, {0, 0}, {0, 0}});
    EXPECT_EQ(rig.sharedCounter(), 4u);
}

TEST(MultiCore, UnsynchronisedIncrementsCanRace)
{
    // With a tiny quantum the load-add-store sequences interleave
    // and updates are lost — shared memory behaving like shared
    // memory.
    Rig rig(plainParams(4), /*quantum=*/3);
    rig.run("bump", {{0, 0}, {0, 0}, {0, 0}, {0, 0}});
    EXPECT_GE(rig.sharedCounter(), 1u);
    EXPECT_LE(rig.sharedCounter(), 4u);
}

TEST(MultiCore, DeterministicAcrossRuns)
{
    auto run = [] {
        Rig rig(enhancedParams(3));
        const auto results =
            rig.run("worker", {{3, 1}, {4, 2}, {5, 3}});
        return fingerprint(rig, results);
    };
    EXPECT_EQ(run(), run());
}

TEST(MultiCore, LazyResolutionSharedAcrossThreads)
{
    Rig rig(plainParams(4));
    rig.run("worker", {{2, 0}, {2, 0}, {2, 0}, {2, 0}});
    // One GOT, one resolution, regardless of which thread won.
    EXPECT_EQ(rig.linker->resolutionCount(), 1u);
}

TEST(MultiCore, ResolutionStoreFlushesSiblingAbtbs)
{
    // A GOT store on one core invalidates the sibling's skip unit
    // via the coherence path.
    Rig rig(enhancedParams(2));
    auto &c0 = rig.system->core(0);
    auto &c1 = rig.system->core(1);

    // Warm both cores on the same worker (each resolves/populates).
    rig.run("worker", {{4, 0}, {4, 0}});
    ASSERT_GT(c0.skipUnit()->abtb().occupancy() +
                  c1.skipUnit()->abtb().occupancy(),
              0u);

    // A store from core 0 to the guarded GOT slot (simulating a
    // linker update executed on that core) must flush core 1's
    // ABTB through the coherence snoop.
    const auto &exe = rig.image->moduleAt(0);
    const auto before = rig.system->totalCoherenceFlushes();
    rig.image->addressSpace().poke64(
        exe.gotSlotAddrs[0],
        rig.image->symbolAddress("libfn"));
    rig.system->broadcastGotWrite(exe.gotSlotAddrs[0]);
    EXPECT_GT(rig.system->totalCoherenceFlushes(), before);
    EXPECT_EQ(c1.skipUnit()->abtb().occupancy(), 0u);
}

TEST(MultiCore, SkippingWorksOnEveryCore)
{
    Rig rig(enhancedParams(4));
    for (int round = 0; round < 4; ++round)
        rig.run("worker", {{3, 0}, {3, 0}, {3, 0}, {3, 0}});
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_GT(rig.system->core(i)
                      .counters().skippedTrampolines,
                  0u)
            << "core " << i;
    }
}

TEST(MultiCore, CoherenceFlushCountedWhenGuardedSlotWritten)
{
    Rig rig(enhancedParams(2));
    rig.run("worker", {{4, 0}, {4, 0}});

    // Both cores now guard the GOT slot. Run `bump` (which stores
    // to app data, NOT the GOT) on both: no coherence flushes.
    const auto before = rig.system->totalCoherenceFlushes();
    rig.run("bump", {{0, 0}, {0, 0}});
    EXPECT_EQ(rig.system->totalCoherenceFlushes(), before);
}

TEST(MultiCore, QuantumSizeDoesNotChangeResults)
{
    auto run = [](std::uint64_t quantum) {
        Rig rig(plainParams(3), quantum);
        return rig.run("worker", {{3, 7}, {2, 8}, {4, 9}});
    };
    // Architectural results are interleaving-independent for these
    // data-race-free threads. (Instruction counts may differ: with
    // fine interleaving several threads can reach the lazy resolver
    // before the first resolution lands, exactly as with glibc's
    // reentrant resolver.)
    EXPECT_EQ(run(1), run(10000));
}

TEST(MultiCore, StoreInvalidatesSiblingCaches)
{
    // Write-invalidate coherence: after thread 1 stores to the
    // shared counter, core 0's cached copy of that line is gone.
    Rig rig(plainParams(2), /*quantum=*/100000);
    rig.run("bump", {{0, 0}, {0, 0}});
    const auto data_base = rig.image->moduleAt(0).dataBase;
    // The long quantum serialises thread 0 (core 0) before thread 1
    // (core 1), whose store invalidated core 0's line.
    EXPECT_FALSE(
        rig.system->core(0).hierarchy().l1d().contains(data_base,
                                                       0));
}

TEST(MultiCore, CoherenceDisableKeepsStaleLines)
{
    MultiCoreParams p = plainParams(2);
    p.cacheCoherence = false;
    Rig rig(p, /*quantum=*/100000);
    rig.run("bump", {{0, 0}, {0, 0}});
    const auto data_base = rig.image->moduleAt(0).dataBase;
    // Without the snoop, core 0's (stale) line survives.
    EXPECT_TRUE(
        rig.system->core(0).hierarchy().l1d().contains(data_base,
                                                       0));
}

TEST(MultiCore, MoreThreadsThanCores)
{
    // M = 7 threads over N = 2 cores share the kernel's run queue.
    Rig rig(plainParams(2));
    Args args;
    for (std::uint64_t i = 0; i < 7; ++i)
        args.push_back({2, 10 * (i + 1)});
    const auto results = rig.run("worker", args);
    ASSERT_EQ(results.size(), 7u);
    for (std::size_t i = 0; i < 7; ++i) {
        // libfn returns the thread index (arg2) + 100; worker adds
        // arg1 — every thread keeps its own identity.
        EXPECT_EQ(results[i], 100 + i + 10 * (i + 1))
            << "thread " << i;
    }
    EXPECT_EQ(rig.kernel->stats().simCalls, 7u);
    EXPECT_EQ(rig.kernel->stats().threadsExited, 7u);
}

TEST(MultiCore, MoreThreadsThanCoresDeterministicAndQuantumInvariant)
{
    const Args args = {{3, 1}, {4, 2}, {5, 3}, {2, 4}, {3, 5}};
    auto run = [&args](std::uint64_t quantum) {
        Rig rig(plainParams(2), quantum);
        const auto results = rig.run("worker", args);
        return fingerprint(rig, results);
    };
    const auto a = run(200);
    EXPECT_EQ(a, run(200));
    // Architectural results are also quantum-invariant.
    EXPECT_EQ(a.results, run(10000).results);
}

TEST(MultiCore, MoreThreadsThanCoresShareOneLazyResolution)
{
    // All 6 threads call libfn through the single shared GOT:
    // exactly one resolver trip, like the M == N case.
    Rig rig(plainParams(2));
    rig.run("worker",
            {{2, 0}, {2, 0}, {2, 0}, {2, 0}, {2, 0}, {2, 0}});
    EXPECT_EQ(rig.linker->resolutionCount(), 1u);
}

TEST(MultiCore, MoreThreadsThanCoresKeepSkipping)
{
    // Threads beyond the core count land on warmed cores, so the
    // ABTB keeps skipping across all of them.
    Rig rig(enhancedParams(2));
    rig.run("worker",
            {{4, 0}, {4, 0}, {4, 0}, {4, 0}, {4, 0}, {4, 0}});
    for (std::uint32_t i = 0; i < 2; ++i) {
        EXPECT_GT(
            rig.system->core(i).counters().skippedTrampolines,
            0u)
            << "core " << i;
    }
}

TEST(MultiCore, CallThreadCheckpointKeepsResults)
{
    // One thread, two calls in order; its body checkpoints the
    // return values so far.
    Rig rig(plainParams(2));
    const auto worker = rig.image->symbolAddress("worker");
    auto body = std::make_unique<os::CallThread>(
        std::vector<os::SimCall>{{worker, 2, 5, 0}, {worker, 3, 6, 0}});
    const auto *thread = body.get();
    rig.kernel->spawn(std::move(body), "t0");
    rig.kernel->run();
    ASSERT_EQ(thread->results(),
              (std::vector<std::uint64_t>{105, 106}));

    const auto bytes =
        snapshot::serialize(0, [&](snapshot::Serializer &s) {
            s.beginSection("t");
            thread->save(s);
            s.endSection();
        });
    os::CallThread copy({});
    snapshot::Deserializer d(bytes.data(), bytes.size());
    d.enterSection("t");
    copy.load(d);
    d.leaveSection();
    EXPECT_EQ(copy.results(), thread->results());
}
