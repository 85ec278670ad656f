#include "sim/multicore.hh"

#include <cassert>

#include "mem/address_space.hh"
#include "snapshot/serializer.hh"

namespace dlsim::sim
{

MultiCoreSystem::MultiCoreSystem(const MultiCoreParams &params,
                                 linker::Image &image,
                                 linker::DynamicLinker &linker,
                                 isa::Addr main_stack_top,
                                 bool for_restore)
    : params_(params), image_(image)
{
    assert(params_.numCores >= 1);

    // One stack region per core below the main stack (with a guard
    // page between them), like a threading runtime carves. No thread
    // runs on these: os::Kernel gives each thread its own stack from
    // allocThreadStack(), carved below them. They stay because they
    // fix where those thread stacks land: without them every thread
    // stack moves, which shifts the simulated cycle counts behind
    // server_traffic's sampled latency and IPC metrics.
    isa::Addr stack_top =
        main_stack_top - params_.stackBytes - mem::PageBytes;
    for (std::uint32_t i = 0; i < params_.numCores; ++i) {
        image_.addressSpace().map(
            stack_top - params_.stackBytes, params_.stackBytes,
            mem::PermRead | mem::PermWrite, mem::RegionKind::Stack,
            "tstack" + std::to_string(i));

        auto core =
            std::make_unique<cpu::Core>(params_.core, for_restore);
        core->attachProcess(&image_, &linker, /*asid=*/0);
        cores_.push_back(std::move(core));

        stack_top -= params_.stackBytes + mem::PageBytes;
    }
    nextStackTop_ = stack_top;

    // Wire write-invalidate coherence: each core's retired stores
    // are snooped by every other core's caches and skip unit. Any
    // attached retire observer (lockstep checker) on a sibling is
    // told too, so its reference memory sees cross-thread stores at
    // the same quantum boundary the timing core does.
    for (std::uint32_t i = 0; i < params_.numCores; ++i) {
        cores_[i]->setStoreSnoopHook([this, i](isa::Addr addr) {
            snoopStore(i, addr);
        });
        cores_[i]->setFlushAllHook([this] { explicitFlushAll(); });
    }
}

void
MultiCoreSystem::explicitFlushAll()
{
    for (auto &core : cores_) {
        auto *unit = core->skipUnit();
        if (unit && unit->params().explicitInvalidation)
            unit->explicitFlush();
    }
}

void
MultiCoreSystem::snoopStore(std::uint32_t from, isa::Addr addr)
{
    ++snoopedStores_;
    for (std::uint32_t j = 0; j < cores_.size(); ++j) {
        if (j == from)
            continue;
        if (params_.cacheCoherence)
            cores_[j]->hierarchy().invalidateDataLine(addr);
        if (auto *unit = cores_[j]->skipUnit())
            unit->coherenceInvalidate(addr);
        if (auto *obs = cores_[j]->observer())
            obs->onExternalWrite(addr);
    }
}

isa::Addr
MultiCoreSystem::allocThreadStack()
{
    const isa::Addr top = nextStackTop_;
    image_.addressSpace().map(
        top - params_.stackBytes, params_.stackBytes,
        mem::PermRead | mem::PermWrite, mem::RegionKind::Stack,
        "tstack" +
            std::to_string(params_.numCores + extraStacks_));
    ++extraStacks_;
    nextStackTop_ = top - params_.stackBytes - mem::PageBytes;
    return top;
}

void
MultiCoreSystem::broadcastGotWrite(isa::Addr addr)
{
    for (auto &core : cores_)
        core->onExternalGotWrite(addr);
}

void
MultiCoreSystem::clearStats()
{
    for (auto &core : cores_)
        core->clearStats();
    snoopedStores_ = 0;
}

void
MultiCoreSystem::reconfigure(const cpu::CoreParams &cp)
{
    for (auto &core : cores_) {
        core->setTiming(cp.issueWidth, cp.mispredictPenalty,
                        cp.resolverInsts, cp.resolverCycles,
                        cp.demandFaultCycles);
        core->hierarchy().setLatencies(
            cp.mem.l2Latency, cp.mem.l3Latency, cp.mem.memLatency,
            cp.mem.walkLatency);
        core->resetSkipUnit(cp.skipUnitEnabled, cp.skip);
        core->setBlockDispatch(cp.blockDispatch);
    }
    params_.core = cp;
}

void
MultiCoreSystem::save(snapshot::Serializer &s) const
{
    s.beginStruct("multicore");
    s.u32(static_cast<std::uint32_t>(cores_.size()));
    s.u64(snoopedStores_);
    s.u64(nextStackTop_);
    s.u32(extraStacks_);
    s.endStruct();
    for (const auto &core : cores_)
        core->save(s);
}

void
MultiCoreSystem::load(snapshot::Deserializer &d)
{
    d.enterStruct("multicore");
    d.checkU32(static_cast<std::uint32_t>(cores_.size()),
               "multicore core count");
    snoopedStores_ = d.u64();
    nextStackTop_ = d.u64();
    extraStacks_ = d.u32();
    d.leaveStruct();
    for (auto &core : cores_)
        core->load(d);
}

std::uint64_t
MultiCoreSystem::totalCoherenceFlushes() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_) {
        if (const auto *unit = core->skipUnit())
            total += unit->stats().coherenceFlushes;
    }
    return total;
}

void
MultiCoreSystem::reportMetrics(stats::MetricsRegistry &reg,
                               const std::string &prefix) const
{
    const std::string p = prefix + ".multicore.";
    core::SkipUnitStats sum;
    for (const auto &core : cores_) {
        if (const auto *unit = core->skipUnit()) {
            const auto &st = unit->stats();
            sum.substitutions += st.substitutions;
            sum.storeFlushes += st.storeFlushes;
            sum.coherenceFlushes += st.coherenceFlushes;
            sum.contextSwitchFlushes += st.contextSwitchFlushes;
            sum.explicitFlushes += st.explicitFlushes;
            sum.falsePositiveFlushes += st.falsePositiveFlushes;
        }
    }
    reg.gauge(p + "cores", static_cast<double>(cores_.size()));
    reg.gauge(p + "snooped_stores",
              static_cast<double>(snoopedStores_));
    reg.gauge(p + "substitutions",
              static_cast<double>(sum.substitutions));
    reg.gauge(p + "store_flushes",
              static_cast<double>(sum.storeFlushes));
    reg.gauge(p + "coherence_flushes",
              static_cast<double>(sum.coherenceFlushes));
    reg.gauge(p + "context_switch_flushes",
              static_cast<double>(sum.contextSwitchFlushes));
    reg.gauge(p + "explicit_flushes",
              static_cast<double>(sum.explicitFlushes));
    reg.gauge(p + "false_positive_flushes",
              static_cast<double>(sum.falsePositiveFlushes));
}

} // namespace dlsim::sim
