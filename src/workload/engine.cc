#include "workload/engine.hh"

#include <cassert>

#include "mem/address_space.hh"
#include "snapshot/format.hh"
#include "snapshot/serializer.hh"
#include "stats/metrics.hh"

namespace dlsim::workload
{

namespace
{

void
mixCache(snapshot::Fingerprint &fp, const mem::CacheParams &p)
{
    fp.mix(p.name);
    fp.mix(p.sizeBytes);
    fp.mix(p.assoc);
    fp.mix(p.lineBytes);
}

void
mixTlb(snapshot::Fingerprint &fp, const mem::TlbParams &p)
{
    fp.mix(p.name);
    fp.mix(p.entries);
    fp.mix(p.assoc);
}

/**
 * Parameters that determine what simulated state *contains*: image
 * layout, cache/TLB/predictor geometry, profiling switches. A warm
 * snapshot is only meaningful on a machine that matches these.
 */
void
mixStructural(snapshot::Fingerprint &fp, const MachineConfig &mc)
{
    fp.mix(static_cast<std::uint32_t>(mc.pltStyle));
    fp.mix(static_cast<std::uint32_t>(mc.bindPolicy));
    fp.mix(mc.aslr);
    fp.mix(mc.nearLibraries);
    fp.mix(mc.profileTrampolines);
    fp.mix(mc.collectCallSiteTrace);

    const cpu::CoreParams &c = mc.core;
    mixCache(fp, c.mem.l1i);
    mixCache(fp, c.mem.l1d);
    mixCache(fp, c.mem.l2);
    mixCache(fp, c.mem.l3);
    mixTlb(fp, c.mem.itlb);
    mixTlb(fp, c.mem.dtlb);
    fp.mix(c.mem.iPrefetchNextLine);

    fp.mix(c.predictor.btb.entries);
    fp.mix(c.predictor.btb.assoc);
    fp.mix(c.predictor.direction);
    fp.mix(static_cast<std::uint64_t>(c.predictor.rasDepth));
    fp.mix(c.predictor.indirect.enabled);
    fp.mix(c.predictor.indirect.entries);
    fp.mix(c.predictor.indirect.assoc);
    fp.mix(c.predictor.indirect.historyBits);

    fp.mix(c.checkSkips);
    fp.mix(c.asidTlbRetention);
    fp.mix(c.tracePath);
}

/** Timing scalars — overridable post-restore via reconfigure(). */
void
mixTiming(snapshot::Fingerprint &fp, const MachineConfig &mc)
{
    fp.mix(mc.core.issueWidth);
    fp.mix(mc.core.mispredictPenalty);
    fp.mix(mc.core.resolverInsts);
    fp.mix(mc.core.resolverCycles);
    fp.mix(mc.core.demandFaultCycles);
    fp.mix(mc.core.mem.l2Latency);
    fp.mix(mc.core.mem.l3Latency);
    fp.mix(mc.core.mem.memLatency);
    fp.mix(mc.core.mem.walkLatency);
}

/** Skip-unit configuration — replaceable via reconfigure(). */
void
mixSkip(snapshot::Fingerprint &fp, const MachineConfig &mc)
{
    fp.mix(mc.enhanced);
    fp.mix(mc.abtbEntries);
    fp.mix(mc.abtbAssoc);
    fp.mix(mc.bloomBits);
    fp.mix(mc.bloomHashes);
    fp.mix(mc.explicitInvalidation);
    fp.mix(mc.asidRetention);
    fp.mix(mc.core.skipUnitEnabled);
    fp.mix(mc.core.skip.abtb.entries);
    fp.mix(mc.core.skip.abtb.assoc);
    fp.mix(mc.core.skip.bloomBits);
    fp.mix(mc.core.skip.bloomHashes);
    fp.mix(mc.core.skip.explicitInvalidation);
    fp.mix(mc.core.skip.asidRetention);
    fp.mix(mc.core.skip.patternWindow);
    fp.mix(mc.core.skip.buggySuppressStoreFlush);
}

void
mixWorkload(snapshot::Fingerprint &fp, const WorkloadParams &wl)
{
    fp.mix(wl.name);
    fp.mix(wl.seed);
    fp.mix(wl.numLibs);
    fp.mix(wl.funcsPerLib);
    fp.mix(wl.libFnInsts);
    fp.mix(wl.unusedImportsPerModule);
    fp.mix(static_cast<std::uint64_t>(wl.requests.size()));
    for (const auto &rc : wl.requests) {
        fp.mix(rc.name);
        fp.mix(rc.weight);
        fp.mix(rc.minWork);
        fp.mix(rc.maxWork);
    }
    fp.mix(wl.stepsPerRequest);
    fp.mix(wl.appWorkInsts);
    fp.mix(wl.libCallProbPerStep);
    fp.mix(wl.calledImports);
    fp.mix(wl.coverageFraction);
    fp.mix(static_cast<std::uint32_t>(wl.popularity));
    fp.mix(wl.zipfS);
    fp.mix(wl.hotSet);
    fp.mix(wl.hotFraction);
    fp.mix(wl.interLibCallProb);
    fp.mix(wl.maxNestedCallSites);
    fp.mix(wl.nestedExecProb);
    fp.mix(wl.loadFrac);
    fp.mix(wl.storeFrac);
    fp.mix(wl.condFrac);
    fp.mix(wl.volatileBranchFrac);
    fp.mix(wl.libDataBytes);
    fp.mix(wl.appDataBytes);
    fp.mix(wl.datasetAccessesPerStep);
    fp.mix(wl.datasetHotFrac);
    fp.mix(wl.hotDataFrac);
    fp.mix(wl.hotDataBytes);
    fp.mix(wl.kernelFuncs);
    fp.mix(wl.kernelFnInsts);
    fp.mix(wl.kernelCallsPerRequest);
    fp.mix(wl.ifuncSymbols);
    fp.mix(wl.tailJumpFrac);
    fp.mix(wl.virtualCallFrac);
}

} // namespace

std::uint64_t
configFingerprint(const WorkloadParams &wl, const MachineConfig &mc)
{
    snapshot::Fingerprint fp;
    mixWorkload(fp, wl);
    mixStructural(fp, mc);
    mixTiming(fp, mc);
    mixSkip(fp, mc);
    return fp.value();
}

std::uint64_t
structuralFingerprint(const MachineConfig &mc)
{
    snapshot::Fingerprint fp;
    mixStructural(fp, mc);
    return fp.value();
}

cpu::CoreParams
makeCoreParams(const MachineConfig &mc)
{
    cpu::CoreParams params = mc.core;
    params.skipUnitEnabled = mc.enhanced;
    params.skip.abtb.entries = mc.abtbEntries;
    params.skip.abtb.assoc = mc.abtbAssoc;
    params.skip.bloomBits = mc.bloomBits;
    params.skip.bloomHashes = mc.bloomHashes;
    params.skip.explicitInvalidation = mc.explicitInvalidation;
    params.skip.asidRetention = mc.asidRetention;
    if (mc.pltStyle == linker::PltStyle::Arm)
        params.skip.patternWindow = 2;
    params.demandPaging =
        mc.bindPolicy == linker::BindPolicy::Demand;
    params.profileTrampolines = mc.profileTrampolines;
    params.collectCallSiteTrace = mc.collectCallSiteTrace;
    return params;
}

Workbench::Workbench(const WorkloadParams &wl,
                     const MachineConfig &mc)
    : Workbench(wl, mc,
                std::make_shared<const BuiltProgram>(
                    buildProgram(wl)))
{
}

Workbench::Workbench(const WorkloadParams &wl,
                     const MachineConfig &mc,
                     std::shared_ptr<const BuiltProgram> program,
                     bool for_restore)
    : wl_(wl), mc_(mc), program_(std::move(program)),
      reqRng_(wl.seed ^ 0x5eedull), awaitingRestore_(for_restore)
{
    assert(program_ != nullptr);
    linker::LoaderOptions opts;
    opts.bindPolicy = mc.bindPolicy;
    opts.aslr = mc.aslr;
    opts.aslrSeed = wl.seed + 1;
    opts.nearLibraries = mc.nearLibraries;
    opts.pltStyle = mc.pltStyle;
    opts.skeletonForRestore = for_restore;
    loader_ = std::make_unique<linker::Loader>(opts);

    image_ = loader_->load(program_->exe, program_->libs);
    linker_ = std::make_unique<linker::DynamicLinker>(*image_);
    core_ = std::make_unique<cpu::Core>(makeCoreParams(mc),
                                        for_restore);
    core_->attachProcess(image_.get(), linker_.get(), /*asid=*/0);
    core_->initStack(loader_->stackTop());

    if (!for_restore)
        seedDataRegions();

    handlerAddrs_.reserve(program_->handlers.size());
    for (const auto &name : program_->handlers)
        handlerAddrs_.push_back(image_->symbolAddress(name));

    std::vector<double> weights;
    weights.reserve(wl_.requests.size());
    for (const auto &rc : wl_.requests)
        weights.push_back(rc.weight);
    mix_ = std::make_unique<stats::DiscreteDistribution>(
        std::move(weights));
}

void
Workbench::seedDataRegions()
{
    // Fill every module data section with pseudo-random words so
    // that data-dependent branches in generated code see entropy.
    // Demand-paged sections (the demand-driven-loading arm's
    // libraries) get the same seed attached as a fault-time fill
    // instead — the RNG draw order is identical across policies, so
    // data content is bit-identical to the eager arms.
    stats::Rng rng(wl_.seed ^ 0xda7aull);
    auto &as = image_->addressSpace();
    for (const auto &lm : image_->modules()) {
        if (lm.module.dataSize() == 0)
            continue;
        const std::uint64_t seed = rng.next();
        const mem::Region *r = as.findRegion(lm.dataBase);
        if (r != nullptr && r->demand) {
            as.setDemandFill(lm.dataBase, seed,
                             lm.module.dataSize());
        } else {
            as.fillRandom(lm.dataBase, lm.module.dataSize(), seed);
        }
    }
}

Workbench::~Workbench() = default;

void
Workbench::setSampling(const sim::SampleParams &params)
{
    if (!params.enabled) {
        sampler_.reset();
        return;
    }
    sampler_ = std::make_unique<sim::Sampler>(
        *core_, *image_, *linker_, params);
}

void
Workbench::warmup(std::uint32_t requests)
{
    for (std::uint32_t n = 0; n < requests; ++n)
        runRequest();
    core_->clearStats();
    image_->addressSpace().clearPtcStats();
    if (sampler_)
        sampler_->clearStats();
}

RequestResult
Workbench::runRequest()
{
    return runRequest(
        static_cast<std::uint32_t>(mix_->sample(reqRng_)));
}

RequestResult
Workbench::runRequest(std::uint32_t kind)
{
    assert(kind < wl_.requests.size());
    const auto &rc = wl_.requests[kind];
    const std::uint64_t work =
        reqRng_.nextRange(rc.minWork, rc.maxWork);
    const std::uint64_t seed = reqRng_.next() | 1;

    if (sampler_) {
        // Identical RNG draws, identical request: only the
        // execution engine differs. Detailed quanta stop at phase
        // boundaries; the fast-forward share of the request's
        // cycles is rounded once, at the CPI when it returns.
        core_->beginCall(handlerAddrs_[kind], work, seed);
        std::uint64_t insts = 0, det_cycles = 0, ff_insts = 0;
        for (bool done = false; !done;) {
            if (sampler_->inFastForward()) {
                const auto sl =
                    sampler_->runFunctionalSlice(0, UINT64_MAX);
                ff_insts += sl.insts;
                done = sl.done;
                continue;
            }
            const auto insts0 = core_->instructionsRetired();
            const auto cycles0 = core_->cycleCount();
            done = core_->runQuantum(sampler_->phaseLeft());
            const auto ran = core_->instructionsRetired() - insts0;
            const auto cyc = core_->cycleCount() - cycles0;
            sampler_->noteDetailed(ran, cyc);
            insts += ran;
            det_cycles += cyc;
        }
        return RequestResult{kind,
                             det_cycles + sampler_->ffCycles(ff_insts),
                             insts + ff_insts};
    }

    const auto r =
        core_->callFunction(handlerAddrs_[kind], work, seed);
    return RequestResult{kind, r.cycles, r.instructions};
}

std::uint32_t
Workbench::beginRequest()
{
    const auto kind =
        static_cast<std::uint32_t>(mix_->sample(reqRng_));
    beginRequest(kind);
    return kind;
}

void
Workbench::beginRequest(std::uint32_t kind)
{
    assert(kind < wl_.requests.size());
    const auto &rc = wl_.requests[kind];
    const std::uint64_t work =
        reqRng_.nextRange(rc.minWork, rc.maxWork);
    const std::uint64_t seed = reqRng_.next() | 1;
    core_->beginCall(handlerAddrs_[kind], work, seed);
}

bool
Workbench::stepRequest(std::uint64_t max_insts)
{
    return core_->runQuantum(max_insts);
}

std::uint64_t
Workbench::distinctTrampolinesExecuted() const
{
    return core_->trampolineCounts().size();
}

void
Workbench::save(snapshot::Serializer &s) const
{
    // The request RNG is the only workbench-owned mutable state;
    // everything else lives in the image, linker, address space,
    // and core. The page pool is emitted after the address space
    // (ids are assigned while the space serializes) but restored
    // first — the Deserializer finds sections by tag, not order.
    s.beginSection("workbench");
    reqRng_.save(s);
    s.endSection();

    s.beginSection("image");
    image_->save(s);
    s.endSection();

    s.beginSection("linker");
    linker_->save(s);
    s.endSection();

    s.beginSection("loader");
    loader_->save(s);
    s.endSection();

    mem::PagePoolSaver pool;
    s.beginSection("memory");
    image_->addressSpace().save(s, pool);
    s.endSection();

    s.beginSection("pages");
    pool.save(s);
    s.endSection();

    s.beginSection("core");
    core_->save(s);
    s.endSection();
}

void
Workbench::load(snapshot::Deserializer &d)
{
    mem::PagePoolLoader pool;
    d.enterSection("pages");
    pool.load(d);
    d.leaveSection();

    d.enterSection("memory");
    image_->addressSpace().load(d, pool);
    d.leaveSection();

    d.enterSection("image");
    image_->load(d);
    d.leaveSection();

    d.enterSection("linker");
    linker_->load(d);
    d.leaveSection();

    d.enterSection("loader");
    loader_->load(d);
    d.leaveSection();

    d.enterSection("core");
    core_->load(d);
    d.leaveSection();

    d.enterSection("workbench");
    reqRng_.load(d);
    d.leaveSection();
    awaitingRestore_ = false;
}

void
Workbench::reconfigure(const MachineConfig &mc)
{
    if (structuralFingerprint(mc) != structuralFingerprint(mc_)) {
        throw snapshot::SnapshotError(
            "reconfigure: structurally incompatible machine config "
            "(a snapshot sweep may vary timing scalars and the "
            "skip unit, not image layout or cache/TLB/predictor "
            "geometry)");
    }
    core_->setTiming(mc.core.issueWidth, mc.core.mispredictPenalty,
                     mc.core.resolverInsts, mc.core.resolverCycles,
                     mc.core.demandFaultCycles);
    core_->hierarchy().setLatencies(
        mc.core.mem.l2Latency, mc.core.mem.l3Latency,
        mc.core.mem.memLatency, mc.core.mem.walkLatency);
    const cpu::CoreParams cp = makeCoreParams(mc);
    core_->resetSkipUnit(cp.skipUnitEnabled, cp.skip);
    core_->setBlockDispatch(mc.core.blockDispatch);
    mc_ = mc;
}

std::vector<std::uint8_t>
snapshotWorkbench(const Workbench &wb)
{
    return snapshot::serialize(
        configFingerprint(wb.params(), wb.machine()),
        [&wb](snapshot::Serializer &s) { wb.save(s); });
}

void
restoreWorkbench(Workbench &wb, const std::uint8_t *data,
                 std::size_t size, bool trusted)
{
    snapshot::Deserializer d(data, size, !trusted);
    if (d.fingerprint() !=
        configFingerprint(wb.params(), wb.machine())) {
        throw snapshot::SnapshotError(
            "snapshot was taken with different workload/machine "
            "parameters (fingerprint mismatch)");
    }
    wb.load(d);
}

void
checkSnapshotCompatible(const std::vector<std::uint8_t> &bytes,
                        const WorkloadParams &wl,
                        const MachineConfig &mc)
{
    snapshot::Deserializer d(bytes.data(), bytes.size());
    if (d.fingerprint() != configFingerprint(wl, mc)) {
        throw snapshot::SnapshotError(
            "snapshot was taken with different workload/machine "
            "parameters (fingerprint mismatch)");
    }
}

void
Workbench::reportMetrics(stats::MetricsRegistry &reg,
                         const std::string &prefix) const
{
    core_->reportMetrics(reg, prefix);
    if (sampler_)
        sampler_->reportMetrics(reg, prefix);
    if (mc_.profileTrampolines) {
        reg.counter(prefix + ".workload.distinct_trampolines",
                    distinctTrampolinesExecuted());
    }
    const auto &as = image_->addressSpace();
    reg.counter(prefix + ".mem.ptc.hits", as.ptcHits());
    reg.counter(prefix + ".mem.ptc.misses", as.ptcMisses());
    reg.counter(prefix + ".mem.ptc.flushes", as.ptcFlushes());
    reg.counter(prefix + ".mem.demand_faults.total",
                as.demandFaults());
    reg.counter(prefix + ".mem.demand_faults.text",
                as.demandFaults(mem::RegionKind::Text));
    reg.counter(prefix + ".mem.demand_faults.data",
                as.demandFaults(mem::RegionKind::Data));
    reg.counter(prefix + ".linker.stable.map_size",
                loader_->stableMapSize());
    reg.counter(prefix + ".linker.stable.hits",
                loader_->stableHits());
    reg.counter(prefix + ".linker.stable.misses",
                loader_->stableMisses());
    reg.counter(prefix + ".linker.stable.invalidations",
                loader_->stableInvalidations());
    reg.gauge(prefix + ".workload.library_count",
              static_cast<double>(wl_.numLibs));
}

} // namespace dlsim::workload
