#include "check/fuzz.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "os/server.hh"
#include "sim/multicore.hh"
#include "sim/sampled.hh"
#include "snapshot/serializer.hh"
#include "stats/flags.hh"
#include "stats/metrics.hh"
#include "stats/rng.hh"
#include "workload/engine.hh"

namespace dlsim::check
{

namespace
{

using workload::MachineConfig;
using workload::Workbench;
using workload::WorkloadParams;

/** One scheduled adversarial event. `a`/`b` are raw random draws
 *  mapped to operands (slot index, payload) at apply time. */
struct Event
{
    std::uint32_t request = 0;
    std::uint64_t offset = 0; ///< Retired insts into the request.
    std::uint32_t kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

WorkloadParams
workloadFor(const FuzzCase &c)
{
    WorkloadParams wl;
    wl.name = "fuzz";
    wl.seed = c.seed;
    wl.numLibs = std::max<std::uint32_t>(1, c.numLibs);
    wl.funcsPerLib = std::max<std::uint32_t>(2, c.funcsPerLib);
    wl.libFnInsts = 12;
    wl.unusedImportsPerModule = 4;
    wl.requests = {{"get", 1.0, 1, 2}, {"set", 0.5, 1, 3}};
    wl.stepsPerRequest = std::max<std::uint32_t>(1,
                                                 c.stepsPerRequest);
    wl.appWorkInsts = 4;
    wl.calledImports = std::min(
        std::max<std::uint32_t>(1, c.calledImports),
        wl.numLibs * wl.funcsPerLib);
    wl.interLibCallProb = 0.2;
    wl.libDataBytes = 1 << 12;
    wl.appDataBytes = 1 << 14;
    wl.hotDataBytes = 512;
    return wl;
}

MachineConfig
machineFor(const FuzzCase &c)
{
    MachineConfig mc;
    mc.enhanced = !c.baseMachine;
    mc.abtbEntries = c.abtbEntries;
    mc.abtbAssoc = c.abtbAssoc;
    mc.bloomBits = c.bloomBits;
    mc.bloomHashes = c.bloomHashes;
    mc.explicitInvalidation = c.explicitInvalidation;
    mc.asidRetention = c.asidRetention;
    mc.pltStyle = c.armPlt ? linker::PltStyle::Arm
                           : linker::PltStyle::X86;
    mc.bindPolicy = c.bindPolicy;
    mc.aslr = c.aslr;
    mc.core.blockDispatch = c.blocks.value_or(true);
    // The oracle is the checker here; the core's built-in skip
    // assertion would preempt it (and hide the injected bug).
    mc.core.checkSkips = false;
    mc.core.skip.buggySuppressStoreFlush = c.injectFlushSuppression;
    return mc;
}

std::vector<Event>
makeSchedule(const FuzzCase &c)
{
    std::vector<Event> events;
    std::uint32_t mask = c.eventsMask;
    if (c.cores > 1)
        mask &= ~EvSnapshot; // The kernel drivers take none.
    if (c.server) {
        // The kernel owns context switches and snapshots don't
        // compose with live kernel threads; churn, GOT traffic,
        // and spurious flushes are the external agents.
        mask &= EvTenantChurn | EvRebind | EvGotRewriteSame |
                EvNoiseStore | EvSpuriousFlush | EvDemandDrop |
                EvStableChurn;
    } else {
        // Both churn flavours need tenant plugins.
        mask &= ~(EvTenantChurn | EvStableChurn);
    }
    if (c.bindPolicy != linker::BindPolicy::Demand)
        mask &= ~EvDemandDrop; // No demand-paged regions to drop.
    if (c.bindPolicy != linker::BindPolicy::Stable)
        mask &= ~EvStableChurn; // No stable map to stress.
    if (mask == 0 || c.eventCount == 0 || c.requests == 0)
        return events;

    std::vector<std::uint32_t> kinds;
    for (std::uint32_t bit = 0; bit < 9; ++bit) {
        if (mask & (1u << bit))
            kinds.push_back(1u << bit);
    }

    stats::Rng rng(c.seed ^ 0xadc0ffee5eedull);
    for (std::uint32_t i = 0; i < c.eventCount; ++i) {
        Event e;
        e.request =
            static_cast<std::uint32_t>(rng.nextBelow(c.requests));
        e.offset = 20 + rng.nextBelow(1500);
        e.kind = kinds[rng.nextBelow(kinds.size())];
        e.a = rng.next();
        e.b = rng.next();
        events.push_back(e);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &x, const Event &y) {
                         return x.request != y.request
                                    ? x.request < y.request
                                    : x.offset < y.offset;
                     });
    return events;
}

/** A GOT slot as (module id, import index). */
using GotSlot = std::pair<std::uint16_t, std::uint32_t>;

/** The GOT slots event operands pick from. */
std::vector<GotSlot>
gotSlotUniverse(const linker::Image &image)
{
    std::vector<GotSlot> slots;
    for (const auto &m : image.modules()) {
        for (std::uint32_t k = 0;
             k < static_cast<std::uint32_t>(m.gotSlotAddrs.size());
             ++k) {
            slots.emplace_back(m.id, k);
        }
    }
    return slots;
}

void
accumulate(LockstepStats &into, const LockstepStats &from)
{
    into.checkedRetires += from.checkedRetires;
    into.verifiedSubstitutions += from.verifiedSubstitutions;
    into.resolverReplays += from.resolverReplays;
    into.externalWrites += from.externalWrites;
    into.walkedInstructions += from.walkedInstructions;
}

/** The accounting invariant: every observable ABTB flush has
 *  exactly one cause counter. */
void
checkFlushAccounting(const cpu::Core &core, const char *who)
{
    const auto *unit = core.skipUnit();
    if (!unit)
        return;
    const auto &st = unit->stats();
    const std::uint64_t sum = st.storeFlushes + st.coherenceFlushes +
                              st.contextSwitchFlushes +
                              st.explicitFlushes;
    if (unit->abtb().flushes() != sum) {
        std::ostringstream os;
        os << "flush accounting violated on " << who
           << ": abtb.flushes=" << unit->abtb().flushes()
           << " but cause counters sum to " << sum << "\n"
           << unit->dumpState();
        throw LockstepError(os.str());
    }
}

/**
 * Stable-linking map coherence: after any dlclose/dlopen churn,
 * every surviving memoized resolution must still name a live export
 * at the memoized address — dlclose must have erased everything
 * that pointed into the departed module, and the dlopen rebind
 * sweep must never have cached a stale address.
 */
void
checkStableMapCoherence(Workbench &wb)
{
    const auto &image = wb.image();
    for (const auto &[key, addr] : wb.loader().stableMap()) {
        const auto &[ns, sym] = key;
        std::size_t module_id = 0;
        const elf::Export *exp = nullptr;
        if (!image.lookupExport(sym, module_id, exp, ns)) {
            std::ostringstream os;
            os << "stable map incoherent after churn: entry (ns="
               << ns << ", \"" << sym
               << "\") survives but no loaded module exports it";
            throw LockstepError(os.str());
        }
        const isa::Addr live = image.symbolAddress(sym, ns);
        if (live != addr) {
            std::ostringstream os;
            os << "stable map incoherent after churn: (ns=" << ns
               << ", \"" << sym << "\") cached 0x" << std::hex
               << addr << " but the live export resolves to 0x"
               << live;
            throw LockstepError(os.str());
        }
    }
}

struct RunOutput
{
    /** Metrics compared across snapshot and dispatch variants. */
    std::string metricsJson;
    LockstepStats stats;
    core::SkipUnitStats skip; ///< Summed over cores.
    /** Server mode only: logical + scheduler counters for the
     *  sampled-twin comparison. */
    os::ServerStats server;
    os::KernelStats kernel;
};

std::string
metricsJson(const Workbench &wb)
{
    stats::MetricsDocument doc("dlsim_fuzz");
    auto &run = doc.addRun("fuzz");
    wb.reportMetrics(run.registry, "dlsim");
    // The page-translation cache restarts cold after a restore, so
    // its hit/miss split is the one legitimate difference between a
    // straight run and a save/restore run. Strip it before the
    // byte-compare; everything architectural must still match.
    run.registry.erasePrefix("dlsim.mem.ptc.");
    return doc.toJson();
}

void
addSkipStats(core::SkipUnitStats &into, const cpu::Core &core)
{
    if (const auto *unit = core.skipUnit()) {
        const auto &st = unit->stats();
        into.substitutions += st.substitutions;
        into.populations += st.populations;
        into.storeFlushes += st.storeFlushes;
        into.coherenceFlushes += st.coherenceFlushes;
        into.contextSwitchFlushes += st.contextSwitchFlushes;
        into.explicitFlushes += st.explicitFlushes;
        into.falsePositiveFlushes += st.falsePositiveFlushes;
    }
}

/**
 * The one event applier of every driver: events hit the workbench's
 * image and the cores that run it (one, or every core of a kernel's
 * system). GOT events reach every core as §3.2 coherence traffic —
 * Core::onExternalGotWrite also tells the core's checker. The churn
 * events need `server`; EvSnapshot is the single-core driver's own.
 */
struct EventApplier
{
    Workbench *wb;
    std::vector<cpu::Core *> cores;
    std::vector<GotSlot> slots;
    const WorkloadParams &wl;
    const MachineConfig &mc;
    os::Server *server = nullptr;
    std::vector<std::uint16_t> asidToggle =
        std::vector<std::uint16_t>(cores.size(), 0);

    void broadcast(isa::Addr addr) const
    {
        for (auto *core : cores)
            core->onExternalGotWrite(addr);
    }

    void apply(const Event &e)
    {
        auto &image = wb->image();
        auto &as = image.addressSpace();
        cpu::Core &core = *cores[e.a % cores.size()];
        switch (e.kind) {
          case EvGotRewriteSame: {
            if (slots.empty())
                break;
            const auto [mid, imp] = slots[e.a % slots.size()];
            const isa::Addr slot = image.moduleAt(mid).gotSlotAddrs[imp];
            as.poke64(slot, as.peek64(slot));
            broadcast(slot);
            break;
          }
          case EvRebind: {
            if (slots.empty())
                break;
            const auto [mid, imp] = slots[e.a % slots.size()];
            const auto &m = image.moduleAt(mid);
            as.poke64(m.gotSlotAddrs[imp], m.lazyGotValue(imp));
            broadcast(m.gotSlotAddrs[imp]);
            // §3.4 software contract: in the explicit arm a GOT
            // rewrite must be followed by an AbtbFlush on every hart.
            for (auto *hart : cores) {
                if (mc.explicitInvalidation && hart->skipUnit())
                    hart->skipUnit()->explicitFlush();
            }
            break;
          }
          case EvNoiseStore: {
            if (wl.appDataBytes < 8)
                break;
            const isa::Addr addr = image.moduleAt(0).dataBase +
                                   (e.a % (wl.appDataBytes / 8)) * 8;
            as.poke64(addr, e.b);
            broadcast(addr);
            break;
          }
          case EvContextSwitch: {
            // Never with a server, whose tenants own the ASIDs: the
            // threads here all run in one address space, so the
            // toggled ASID just forces the §3.3 flushes on a core.
            auto &toggle = asidToggle[e.a % cores.size()];
            toggle ^= 1;
            core.contextSwitch(&image, &wb->linker(), toggle);
            break;
          }
          case EvSpuriousFlush:
            if (auto *unit = core.skipUnit())
                unit->explicitFlush();
            break;
          case EvDemandDrop:
            // Demand-fault storm: evict every demand-paged text
            // page; the refill regenerates identical bytes, so the
            // oracle must see no architectural difference.
            as.dropDemandTextPages();
            break;
          case EvTenantChurn:
          case EvStableChurn:
            server->requestChurn(static_cast<std::uint32_t>(
                e.a % server->params().tenants));
            // A stable churn then proves the memoized resolution
            // map is still coherent with the live module table.
            if (e.kind == EvStableChurn)
                checkStableMapCoherence(*wb);
            break;
          default:
            break;
        }
    }
};

/**
 * Single-core driver: requests run incrementally so events (and
 * snapshot round-trips) land at scheduled retire offsets. Offsets
 * use >=-semantics against instructionsRetired() — the resolver's
 * synthetic instruction cost can jump past an offset.
 */
RunOutput
runSingleCore(const FuzzCase &c, const WorkloadParams &wl,
              const MachineConfig &mc,
              const std::vector<Event> &schedule,
              bool apply_snapshots)
{
    auto wb = std::make_unique<Workbench>(wl, mc);
    auto checker = std::make_unique<LockstepChecker>(wb->core());
    wb->core().setRetireObserver(checker.get());
    EventApplier events{wb.get(), {&wb->core()},
                        gotSlotUniverse(wb->image()), wl, mc};
    LockstepStats accum{};

    const auto applyEvent = [&](const Event &e) {
        if (e.kind != EvSnapshot) {
            events.apply(e);
            return;
        }
        if (!apply_snapshots)
            return;
        const auto bytes = workload::snapshotWorkbench(*wb);
        accumulate(accum, checker->stats());
        auto fresh = std::make_unique<Workbench>(wl, mc);
        workload::restoreWorkbench(*fresh, bytes.data(), bytes.size());
        wb = std::move(fresh);
        checker = std::make_unique<LockstepChecker>(wb->core());
        wb->core().setRetireObserver(checker.get());
        events.wb = wb.get();
        events.cores = {&wb->core()};
    };

    std::size_t ev = 0;
    for (std::uint32_t r = 0; r < c.requests; ++r) {
        wb->beginRequest();
        const std::uint64_t base =
            wb->core().instructionsRetired();
        bool done = false;
        while (true) {
            const std::uint64_t progress =
                wb->core().instructionsRetired() - base;
            while (ev < schedule.size() &&
                   schedule[ev].request == r &&
                   schedule[ev].offset <= progress) {
                applyEvent(schedule[ev]);
                ++ev;
            }
            if (done)
                break;
            const std::uint64_t next_stop =
                (ev < schedule.size() && schedule[ev].request == r)
                    ? schedule[ev].offset
                    : UINT64_MAX;
            const std::uint64_t chunk =
                next_stop == UINT64_MAX
                    ? 100000
                    : std::max<std::uint64_t>(1,
                                              next_stop - progress);
            done = wb->stepRequest(chunk);
        }
        // Events the request finished before: apply between
        // requests (external agents don't stop when a call does).
        while (ev < schedule.size() && schedule[ev].request == r) {
            applyEvent(schedule[ev]);
            ++ev;
        }
    }

    accumulate(accum, checker->stats());
    checkFlushAccounting(wb->core(), "core0");

    RunOutput out;
    out.stats = accum;
    addSkipStats(out.skip, wb->core());
    out.metricsJson = metricsJson(*wb);
    return out;
}

/**
 * The multi-core drivers' shared body: every core of `k`'s system
 * runs under its own lockstep checker for the whole run. The
 * checkers fork reference memory when they attach here, so every
 * thread stack must already be mapped; later remaps (tenant churn)
 * resync them through the server's observer fast-forward. Each
 * scheduled event lands after 1 + offset % 9 more scheduler rounds
 * and the kernel then drains.
 */
RunOutput
runOnKernel(os::Kernel &k, EventApplier &events,
            const std::vector<Event> &schedule)
{
    auto &sys = k.system();
    std::vector<std::unique_ptr<LockstepChecker>> checkers;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        checkers.push_back(
            std::make_unique<LockstepChecker>(sys.core(i)));
        sys.core(i).setRetireObserver(checkers.back().get());
    }

    for (const auto &e : schedule) {
        if (!k.runRounds(1 + e.offset % 9))
            events.apply(e);
    }
    k.run();

    RunOutput out;
    stats::MetricsDocument doc("dlsim_fuzz");
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        accumulate(out.stats, checkers[i]->stats());
        const std::string who = "core" + std::to_string(i);
        checkFlushAccounting(sys.core(i), who.c_str());
        addSkipStats(out.skip, sys.core(i));
        sys.core(i).reportMetrics(doc.addRun(who).registry, "dlsim");
    }
    out.metricsJson = doc.toJson();
    out.kernel = k.stats();
    return out;
}

/** Every core of `sys`, for an EventApplier. */
std::vector<cpu::Core *>
coresOf(sim::MultiCoreSystem &sys)
{
    std::vector<cpu::Core *> cores;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i)
        cores.push_back(&sys.core(i));
    return cores;
}

/**
 * Multicore driver: one kernel thread per core, each making one
 * call per request into that request's handler (kind and arguments
 * drawn per request and thread). Cross-core stores reach sibling
 * checkers through the coherence snoop.
 */
RunOutput
runMultiCore(const FuzzCase &c, const WorkloadParams &wl,
             const MachineConfig &mc,
             const std::vector<Event> &schedule)
{
    Workbench wb(wl, mc);
    sim::MultiCoreParams mp;
    mp.numCores = c.cores;
    mp.core = workload::makeCoreParams(mc);
    sim::MultiCoreSystem sys(mp, wb.image(), wb.linker(),
                             wb.loader().stackTop());
    os::KernelParams kp;
    kp.quantum = 100 + c.seed % 151;
    os::Kernel kernel(kp, sys, wb.image(), wb.linker());

    stats::Rng rng(c.seed ^ 0x9c0fe5ull);
    std::vector<std::vector<os::SimCall>> calls(sys.numCores());
    for (std::uint32_t r = 0; r < c.requests; ++r) {
        const auto kind = static_cast<std::uint32_t>(
            rng.nextBelow(wl.requests.size()));
        const auto &rc = wl.requests[kind];
        for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
            calls[i].push_back({wb.handlerAddress(kind),
                                rng.nextRange(rc.minWork, rc.maxWork),
                                rng.next() | 1, i});
        }
    }
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        kernel.spawn(
            std::make_unique<os::CallThread>(std::move(calls[i])),
            "thread" + std::to_string(i), /*asid=*/0,
            /*eager_stack=*/true);
    }
    EventApplier events{&wb, coresOf(sys), gotSlotUniverse(wb.image()),
                        wl, mc};
    return runOnKernel(kernel, events, schedule);
}

/**
 * Server driver: an os::Server (kernel scheduler, sockets, tenant
 * plugins) runs the request traffic while scheduled events inject
 * tenant dlclose churn, GOT rewrites, noise stores, and spurious
 * flushes between scheduler rounds. The kernel itself supplies the
 * rest of the adversarial surface — quantum-expiry context switches
 * in the middle of trampoline sequences, ASID switches per tenant,
 * and pipe-blocked thread wakeups (the pipe capacity is sized so
 * 32-byte request records need partial writes).
 */
RunOutput
runServer(const FuzzCase &c, const WorkloadParams &wl,
          const MachineConfig &mc,
          const std::vector<Event> &schedule,
          const sim::SampleParams &sample = {})
{
    Workbench wb(wl, mc);
    sim::MultiCoreParams mp;
    mp.numCores = std::max<std::uint32_t>(1, c.cores);
    mp.core = workload::makeCoreParams(mc);

    // Base-workload GOT universe only: tenant modules come and go
    // with churn, so their slots are not stable event operands.
    auto slots = gotSlotUniverse(wb.image());

    os::ServerParams sp;
    sp.workers = 2;
    sp.clients = 3;
    sp.tenants = std::max<std::uint32_t>(1, c.tenants);
    sp.requests = std::uint64_t{4} * std::max<std::uint32_t>(
                                         1, c.requests);
    sp.churnPeriod = 0; // Churn arrives as events, not a period.
    sp.backlog = 2;
    sp.seed = c.seed;
    sp.kernel.quantum = 100 + c.seed % 151;
    sp.kernel.pipeCapacity = 48 + c.seed % 64;
    // Construction maps the worker stacks and loads the tenant and
    // dispatch modules, before the checkers attach.
    os::Server server(wb, mp, sp);
    if (sample.enabled)
        server.setSampling(sample);

    EventApplier events{&wb, coresOf(server.system()),
                        std::move(slots), wl, mc, &server};
    RunOutput out = runOnKernel(server.kernel(), events, schedule);
    server.run(); // Drained already; asserts every request was served.
    out.server = server.stats();
    return out;
}

/** Field-by-field sampled-vs-exact counter report ("" = equal). */
std::string
sampledCounterDiff(const RunOutput &exact,
                   const RunOutput &sampled, bool full_kernel)
{
    std::ostringstream out;
    const auto field = [&out](const char *name, std::uint64_t want,
                             std::uint64_t have) {
        if (want != have) {
            out << "  " << name << ": exact " << want
               << " vs sampled " << have << "\n";
        }
    };
    field("requestsServed", exact.server.requestsServed,
          sampled.server.requestsServed);
    field("tenantChurns", exact.server.tenantChurns,
          sampled.server.tenantChurns);
    field("gotResets", exact.server.gotResets,
          sampled.server.gotResets);
    field("deferredChurns", exact.server.deferredChurns,
          sampled.server.deferredChurns);
    if (full_kernel) {
        for (const auto &[name, counter] : os::KernelCounters)
            field(name, exact.kernel.*counter,
                  sampled.kernel.*counter);
    }
    return out.str();
}

void
fold(FuzzResult &res, const RunOutput &out)
{
    accumulate(res.stats, out.stats);
    res.substitutions += out.skip.substitutions;
    res.storeFlushes += out.skip.storeFlushes;
    res.coherenceFlushes += out.skip.coherenceFlushes;
    res.contextSwitchFlushes += out.skip.contextSwitchFlushes;
    res.explicitFlushes += out.skip.explicitFlushes;
}

} // namespace

FuzzCase
caseFromSeed(std::uint64_t seed)
{
    stats::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xf022ull);
    FuzzCase c;
    c.seed = seed;
    c.cores = rng.nextBool(0.25)
                  ? 2 + static_cast<std::uint32_t>(rng.nextBelow(2))
                  : 1;
    c.requests =
        6 + static_cast<std::uint32_t>(rng.nextBelow(10));

    c.eventsMask = 0;
    if (rng.nextBool(0.5))
        c.eventsMask |= EvGotRewriteSame;
    if (rng.nextBool(0.5))
        c.eventsMask |= EvRebind;
    if (rng.nextBool(0.3))
        c.eventsMask |= EvNoiseStore;
    if (rng.nextBool(0.3))
        c.eventsMask |= EvContextSwitch;
    if (rng.nextBool(0.3))
        c.eventsMask |= EvSpuriousFlush;
    if (rng.nextBool(0.3))
        c.eventsMask |= EvSnapshot;
    // Policy-gated events: drawn unconditionally (stable draw
    // sequence), masked off by makeSchedule unless the drawn bind
    // policy can express them.
    if (rng.nextBool(0.4))
        c.eventsMask |= EvDemandDrop;
    if (rng.nextBool(0.4))
        c.eventsMask |= EvStableChurn;
    c.eventCount =
        c.eventsMask
            ? 2 + static_cast<std::uint32_t>(rng.nextBelow(8))
            : 0;

    c.explicitInvalidation = rng.nextBool(0.25);
    c.asidRetention = rng.nextBool(0.25);
    c.armPlt = rng.nextBool(0.35);
    // ~60% lazy (the paper's baseline), ~10% BIND_NOW, ~15% stable
    // linking, ~15% demand-driven loading.
    const std::uint64_t pol = rng.nextBelow(20);
    c.bindPolicy = pol < 12   ? linker::BindPolicy::Lazy
                   : pol < 14 ? linker::BindPolicy::Now
                   : pol < 17 ? linker::BindPolicy::Stable
                              : linker::BindPolicy::Demand;
    c.aslr = rng.nextBool(0.25);
    c.abtbEntries =
        1u << (2 + static_cast<std::uint32_t>(rng.nextBelow(7)));
    c.abtbAssoc = std::min(
        c.abtbEntries,
        1u << static_cast<std::uint32_t>(rng.nextBelow(3)));
    c.bloomBits =
        1u << (6 + static_cast<std::uint32_t>(rng.nextBelow(7)));
    c.bloomHashes =
        1 + static_cast<std::uint32_t>(rng.nextBelow(6));

    c.numLibs = 2 + static_cast<std::uint32_t>(rng.nextBelow(5));
    c.funcsPerLib =
        4 + static_cast<std::uint32_t>(rng.nextBelow(24));
    c.calledImports =
        4 + static_cast<std::uint32_t>(rng.nextBelow(40));
    c.calledImports =
        std::min(c.calledImports, c.numLibs * c.funcsPerLib);
    c.stepsPerRequest =
        6 + static_cast<std::uint32_t>(rng.nextBelow(16));

    // Server mode (drawn last so non-server cases keep the shapes
    // earlier corpora had): OS scheduler + sockets + tenant churn.
    c.server = rng.nextBool(0.2);
    if (c.server) {
        c.tenants =
            2 + static_cast<std::uint32_t>(rng.nextBelow(2));
        c.requests = std::min<std::uint32_t>(c.requests, 10);
        if (rng.nextBool(0.8))
            c.eventsMask |= EvTenantChurn;
        if (c.eventsMask && c.eventCount == 0)
            c.eventCount = 2 + static_cast<std::uint32_t>(
                                   rng.nextBelow(6));
        // Sampled twin: short windows so several detail <->
        // fast-forward transitions land inside the serve, with the
        // no-elision arm drawn often enough to keep the full
        // kernel-counter oracle hot in the frontier.
        if (rng.nextBool(0.35)) {
            static const char *Specs[] = {
                "300:1200:4000", "200:800:2500", "500:2000:9000"};
            c.sample = Specs[rng.nextBelow(3)];
            c.baseMachine = rng.nextBool(0.5);
        }
    }
    return c;
}

void
addCaseFlags(stats::FlagTable &flags, FuzzCase &c)
{
    flags.integer("seed", "case seed (default 1)", c.seed)
        .integer("cores", "cores; >1 runs one kernel thread per core",
                 c.cores, 1)
        .integer("requests", "requests per case", c.requests)
        .integer("events", "FuzzEvent bitmask", c.eventsMask)
        .integer("event-count", "scheduled adversarial events",
                 c.eventCount)
        .integer("abtb-entries", "ABTB capacity", c.abtbEntries, 1)
        .integer("abtb-assoc", "ABTB associativity", c.abtbAssoc, 1)
        .integer("bloom-bits", "bloom filter bits", c.bloomBits)
        .integer("bloom-hashes", "bloom filter hash count",
                 c.bloomHashes)
        .integer("num-libs", "shared libraries", c.numLibs)
        .integer("funcs-per-lib", "functions per library",
                 c.funcsPerLib)
        .integer("called-imports", "imports the requests call",
                 c.calledImports)
        .integer("steps", "steps per request", c.stepsPerRequest)
        .toggle("server", "drive an os::Server with tenant plugins",
                c.server)
        .integer("tenants", "tenant plugins (server mode)", c.tenants)
        .onlyWith(c.server)
        .custom(
            "sample", "W:D:F", "server mode: add a sampled twin run",
            [&c](const std::string &spec) {
                sim::SampleParams sp;
                std::string error;
                if (!sim::SampleParams::parse(spec, sp, &error))
                    throw std::invalid_argument(error);
                c.sample = spec;
            },
            [&c] {
                return c.sample.empty()
                           ? std::nullopt
                           : std::optional<std::string>(c.sample);
            })
        .toggle("base-machine", "disable the skip unit", c.baseMachine)
        .toggle("explicit-invalidation",
                "explicit invalidation (paper section 3.4)",
                c.explicitInvalidation)
        .toggle("asid-retention", "ASID-tagged ABTB entries",
                c.asidRetention)
        .toggle("arm-plt", "ARM-style trampolines", c.armPlt)
        .custom(
            "bind-policy", "P", "lazy (default), now, stable or demand",
            [&c](const std::string &v) {
                c.bindPolicy = linker::parseBindPolicy(v);
            },
            [&c] {
                return c.bindPolicy == linker::BindPolicy::Lazy
                           ? std::nullopt
                           : std::optional<std::string>(
                                 linker::bindPolicyName(c.bindPolicy));
            })
        .toggle("aslr", "randomise library placement", c.aslr)
        .custom(
            "blocks", "0|1",
            "block dispatch off/on only (default: both, compared)",
            [&c](const std::string &v) {
                if (v != "0" && v != "1")
                    throw std::invalid_argument(
                        "expected 0 or 1, got '" + v + "'");
                c.blocks = v == "1";
            },
            [&c] {
                return c.blocks ? std::optional<std::string>(
                                      *c.blocks ? "1" : "0")
                                : std::nullopt;
            })
        .toggle("inject-bug-config",
                "fault injection: suppress the section 3.2 store flush",
                c.injectFlushSuppression)
        .require([&c] {
            return core::geometryError(
                workload::makeCoreParams(machineFor(c)).skip);
        });
}

std::string
reproLine(const FuzzCase &c)
{
    FuzzCase copy = c;
    stats::FlagTable flags("dlsim_fuzz");
    addCaseFlags(flags, copy);
    return "dlsim_fuzz" + flags.render();
}

namespace
{

/**
 * Run `c` on the one dispatch engine `c.blocks` names: the whole
 * case under the oracle, sub-runs included. `metrics` receives what
 * the two engines must agree on: the core and skip-unit metrics of
 * every run.
 */
FuzzResult
runEngine(const FuzzCase &c, std::string &metrics)
{
    FuzzResult res;
    res.failingCase = c;
    try {
        const auto wl = workloadFor(c);
        const auto mc = machineFor(c);
        const auto schedule = makeSchedule(c);

        if (c.server) {
            const auto exact = runServer(c, wl, mc, schedule);
            fold(res, exact);
            metrics = exact.metricsJson;
            if (!c.sample.empty()) {
                // Sampled twin: same schedule (tenant churn lands
                // inside fast-forward phases too), oracle attached
                // throughout. Logical server counters must match
                // exact mode; without trampoline elision the
                // scheduler consumes identical instruction budgets,
                // so every kernel counter must match as well.
                sim::SampleParams sample;
                if (!sim::SampleParams::parse(c.sample, sample))
                    throw LockstepError(
                        "bad --sample spec: " + c.sample);
                const auto sampled =
                    runServer(c, wl, mc, schedule, sample);
                fold(res, sampled);
                metrics += sampled.metricsJson;
                const std::string diff = sampledCounterDiff(
                    exact, sampled, c.baseMachine);
                if (!diff.empty()) {
                    res.passed = false;
                    res.failure =
                        "sampled server twin diverged from exact "
                        "mode:\n" +
                        diff;
                }
            }
            return res;
        }
        if (c.cores > 1) {
            const auto out = runMultiCore(c, wl, mc, schedule);
            fold(res, out);
            metrics = out.metricsJson;
            return res;
        }

        const auto with =
            runSingleCore(c, wl, mc, schedule, true);
        fold(res, with);
        metrics = with.metricsJson;

        // Snapshot equivalence: a save/restore round-trip is
        // architecturally and microarchitecturally invisible, so a
        // run with the snapshot events skipped must produce a
        // byte-identical metrics document.
        const bool snaps =
            (c.eventsMask & EvSnapshot) && c.eventCount > 0;
        if (snaps) {
            const auto without =
                runSingleCore(c, wl, mc, schedule, false);
            accumulate(res.stats, without.stats);
            if (with.metricsJson != without.metricsJson) {
                res.passed = false;
                res.failure =
                    "snapshot equivalence violated: metrics with "
                    "mid-run save/restore differ from the "
                    "straight run";
            }
        }
        return res;
    } catch (const std::exception &e) {
        res.passed = false;
        res.failure = e.what();
        return res;
    }
}

/** The first line where `a` and `b` differ, under the nearest
 *  metric name above it. */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::istringstream as(a), bs(b);
    std::string la, lb, metric;
    while (std::getline(as, la) && std::getline(bs, lb)) {
        if (la != lb)
            return metric + "\n  blocks on:  " + la +
                   "\n  blocks off: " + lb;
        if (la.find("\": {") != std::string::npos)
            metric = la;
    }
    return "documents differ in length";
}

} // namespace

FuzzResult
runCase(const FuzzCase &c)
{
    if (c.blocks) {
        std::string metrics;
        return runEngine(c, metrics);
    }

    // The blocks axis: the block loop must be a pure host speed-up,
    // invisible to the oracle and to every model counter. A failing
    // engine's case keeps its pinned `blocks`, so its repro replays
    // that engine alone.
    FuzzCase on = c, off = c;
    on.blocks = true;
    off.blocks = false;
    std::string metrics_on, metrics_off;
    FuzzResult res = runEngine(on, metrics_on);
    if (!res.passed)
        return res;
    const FuzzResult res_off = runEngine(off, metrics_off);
    if (!res_off.passed)
        return res_off;
    accumulate(res.stats, res_off.stats);
    res.failingCase = c;
    if (metrics_on != metrics_off) {
        res.passed = false;
        res.failure = "block dispatch changed the metrics: " +
                      firstDifference(metrics_on, metrics_off);
    }
    return res;
}

FuzzCase
shrinkCase(const FuzzCase &c, std::uint32_t maxRuns,
           std::string *failure)
{
    FuzzCase best = c;
    std::uint32_t runs = 0;

    const auto stillFails = [&](const FuzzCase &cand,
                                std::string *why) {
        if (runs >= maxRuns)
            return false;
        ++runs;
        const auto r = runCase(cand);
        if (!r.passed && why)
            *why = r.failure;
        return !r.passed;
    };

    using Mutation = std::function<bool(FuzzCase &)>;
    const std::vector<Mutation> mutations = {
        [](FuzzCase &x) {
            if (x.requests <= 1)
                return false;
            x.requests /= 2;
            return true;
        },
        [](FuzzCase &x) {
            if (x.eventCount == 0)
                return false;
            x.eventCount /= 2;
            if (x.eventCount == 0)
                x.eventsMask = 0;
            return true;
        },
        [](FuzzCase &x) {
            if (x.cores <= 1)
                return false;
            x.cores = 1;
            return true;
        },
        [](FuzzCase &x) {
            if (x.numLibs <= 1)
                return false;
            x.numLibs /= 2;
            x.calledImports = std::min(
                x.calledImports, x.numLibs * x.funcsPerLib);
            return true;
        },
        [](FuzzCase &x) {
            if (x.calledImports <= 1)
                return false;
            x.calledImports /= 2;
            return true;
        },
        [](FuzzCase &x) {
            if (x.stepsPerRequest <= 1)
                return false;
            x.stepsPerRequest /= 2;
            return true;
        },
        [](FuzzCase &x) {
            if (x.sample.empty())
                return false;
            x.sample.clear(); // Does the exact run fail alone?
            return true;
        },
        [](FuzzCase &x) {
            if (!x.asidRetention)
                return false;
            x.asidRetention = false;
            return true;
        },
        [](FuzzCase &x) {
            if (!x.aslr)
                return false;
            x.aslr = false;
            return true;
        },
        [](FuzzCase &x) {
            if (!x.armPlt)
                return false;
            x.armPlt = false;
            return true;
        },
        [](FuzzCase &x) {
            if (x.bindPolicy == linker::BindPolicy::Lazy)
                return false;
            x.bindPolicy = linker::BindPolicy::Lazy;
            return true;
        },
    };

    bool improved = true;
    while (improved && runs < maxRuns) {
        improved = false;
        for (const auto &mutate : mutations) {
            FuzzCase cand = best;
            if (!mutate(cand))
                continue;
            std::string why;
            if (stillFails(cand, &why)) {
                best = cand;
                if (failure)
                    *failure = why;
                improved = true;
            }
        }
    }
    return best;
}

std::vector<FuzzCase>
smokeCases()
{
    std::vector<FuzzCase> cases;

    // Hand-picked archetypes: deterministic coverage of both PLT
    // styles, the §3.4 arm, ASID retention, rebind storms against
    // tiny geometries, multicore coherence, and snapshot
    // round-trips.
    {
        FuzzCase c; // Plain lazy x86: resolver storm at startup.
        c.seed = 101;
        c.requests = 10;
        cases.push_back(c);
    }
    {
        FuzzCase c; // ARM trampolines: pattern window + scratch regs.
        c.seed = 102;
        c.armPlt = true;
        c.requests = 10;
        cases.push_back(c);
    }
    {
        FuzzCase c; // §3.4 explicit arm, rebinds force AbtbFlush.
        c.seed = 103;
        c.explicitInvalidation = true;
        c.eventsMask = EvRebind | EvSpuriousFlush;
        c.eventCount = 8;
        c.requests = 12;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Rebind + same-value storm on a hot small set.
        c.seed = 104;
        c.eventsMask = EvRebind | EvGotRewriteSame;
        c.eventCount = 12;
        c.requests = 14;
        c.calledImports = 6;
        c.numLibs = 2;
        c.funcsPerLib = 8;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Undersized bloom: false-positive flush storm.
        c.seed = 105;
        c.bloomBits = 64;
        c.bloomHashes = 2;
        c.eventsMask = EvNoiseStore | EvGotRewriteSame;
        c.eventCount = 10;
        c.requests = 10;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Context-switch storm with ASID retention.
        c.seed = 106;
        c.asidRetention = true;
        c.eventsMask = EvContextSwitch | EvRebind;
        c.eventCount = 10;
        c.requests = 12;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Context-switch storm without retention.
        c.seed = 107;
        c.eventsMask = EvContextSwitch;
        c.eventCount = 8;
        c.requests = 10;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Snapshot round-trips mid-run + equivalence.
        c.seed = 108;
        c.eventsMask = EvSnapshot | EvRebind;
        c.eventCount = 6;
        c.requests = 10;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Two cores: cross-core resolver coherence.
        c.seed = 109;
        c.cores = 2;
        c.requests = 8;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Three cores + external rebind broadcasts.
        c.seed = 110;
        c.cores = 3;
        c.eventsMask = EvRebind | EvGotRewriteSame;
        c.eventCount = 8;
        c.requests = 8;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Multicore + ARM + tiny ABTB (evictions).
        c.seed = 111;
        c.cores = 2;
        c.armPlt = true;
        c.abtbEntries = 8;
        c.abtbAssoc = 2;
        c.requests = 8;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Eager binding + ASLR: no resolver traps.
        c.seed = 112;
        c.bindPolicy = linker::BindPolicy::Now;
        c.aslr = true;
        c.eventsMask = EvRebind; // Re-lazifies eagerly-bound slots.
        c.eventCount = 4;
        c.requests = 8;
        cases.push_back(c);
    }
    {
        FuzzCase c; // OS server: churn storm, ASID-tagged ABTB.
        c.seed = 113;
        c.server = true;
        c.cores = 2;
        c.tenants = 2;
        c.asidRetention = true;
        c.eventsMask = EvTenantChurn | EvRebind;
        c.eventCount = 8;
        c.requests = 8;
        cases.push_back(c);
    }
    {
        FuzzCase c; // OS server, no retention: every ASID switch
        c.seed = 114; // flushes mid-trampoline state (§3.3).
        c.server = true;
        c.cores = 3;
        c.tenants = 3;
        c.eventsMask = EvTenantChurn | EvGotRewriteSame |
                       EvNoiseStore | EvSpuriousFlush;
        c.eventCount = 10;
        c.requests = 8;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Sampled server twin, no elision: churn inside
        c.seed = 115; // fast-forward, every kernel counter exact.
        c.server = true;
        c.baseMachine = true;
        c.cores = 2;
        c.tenants = 2;
        c.sample = "300:1200:4000";
        c.eventsMask = EvTenantChurn | EvRebind | EvNoiseStore;
        c.eventCount = 8;
        c.requests = 8;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Sampled server twin on the enhanced machine:
        c.seed = 116; // logical counters exact, oracle verifies the
        c.server = true; // detail windows across FF resyncs.
        c.cores = 2;
        c.tenants = 2;
        c.asidRetention = true;
        c.sample = "200:800:2500";
        c.eventsMask = EvTenantChurn | EvGotRewriteSame;
        c.eventCount = 8;
        c.requests = 8;
        cases.push_back(c);
    }

    {
        FuzzCase c; // Demand-driven loading: first-touch fault
        c.seed = 117; // storms, plus mid-run page drops whose
        c.bindPolicy = // refill must be invisible to the oracle.
            linker::BindPolicy::Demand;
        c.eventsMask = EvDemandDrop | EvRebind | EvContextSwitch;
        c.eventCount = 8;
        c.requests = 10;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Stable linking under dlclose/dlopen churn:
        c.seed = 118; // map invalidation + rebind-sweep coherence.
        c.server = true;
        c.cores = 2;
        c.tenants = 2;
        c.bindPolicy = linker::BindPolicy::Stable;
        c.eventsMask =
            EvStableChurn | EvGotRewriteSame | EvNoiseStore;
        c.eventCount = 8;
        c.requests = 8;
        cases.push_back(c);
    }
    {
        FuzzCase c; // §3.4 on SMP (shrunk seed 951): a lazy
        c.seed = 951; // resolution's AbtbFlush must reach every
        c.server = true; // hart, or a sibling keeps a trampoline ->
        c.cores = 3; // lazy-entry ABTB entry.
        c.tenants = 2;
        c.explicitInvalidation = true;
        c.eventsMask = EvTenantChurn | EvDemandDrop | EvStableChurn;
        c.eventCount = 4;
        c.requests = 3;
        c.abtbEntries = 64;
        c.abtbAssoc = 1;
        c.bloomBits = 128;
        c.numLibs = 5;
        c.funcsPerLib = 21;
        c.calledImports = 26;
        c.stepsPerRequest = 1;
        cases.push_back(c);
    }
    {
        FuzzCase c; // Sampled server twin (shrunk seed 405): a
        c.seed = 405; // quantum that lapses on the jump into the
        c.server = true; // resolver must leave the trap to the next
        c.baseMachine = true; // slice in fast-forward too, or every
        c.tenants = 3; // later scheduling round shifts.
        c.sample = "200:800:2500";
        c.eventsMask = EvTenantChurn;
        c.eventCount = 2;
        c.requests = 3;
        c.funcsPerLib = 22;
        c.calledImports = 34;
        c.stepsPerRequest = 1;
        cases.push_back(c);
    }

    // Seeded frontier on top of the archetypes.
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        cases.push_back(caseFromSeed(seed));
    return cases;
}

} // namespace dlsim::check
