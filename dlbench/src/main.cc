/**
 * @file
 * dlbench: the dlsim benchmark.
 *
 * Runs one named workload for a given number of host seconds and
 * prints, as the last line of stdout, one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * `attempted`/`failed` count measured arms (their ratio is
 * arm_fail_rate). Untraced runs (--trace 0) report the end-to-end
 * metrics; traced runs (--trace 1) report the per-layer ledger. The
 * simulator is driven only through its modules' public functions;
 * see dlbench/README.md for the workloads and the metric map.
 *
 * Usage: dlbench --workload NAME --seed N --seconds S --trace 0|1
 *                [--scratch DIR] [--plant-fault] [--warmup-scale K]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "os/server.hh"
#include "sim/job_runner.hh"
#include "sim/multicore.hh"
#include "sim/sampled.hh"
#include "stats/cdf.hh"
#include "stats/metrics.hh"
#include "stats/rng.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"

#include "spans.hh"

using namespace dlsim;
using dlbench::Span;
using dlbench::Tracer;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds used so far by the whole process (all threads). */
double
processCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------
// Workload sizes. One sweep takes one to five seconds of host time
// on 4 threads, so a 25-second run medians over five or more sweeps.
// ---------------------------------------------------------------

/** Figure-5 grid: 3 profiles x 11 ABTB sizes. */
const char *const kFig5Profiles[] = {"apache", "firefox", "memcached"};
/** The warm-ups of the repository's full-scale Figure-5 sweep.
 *  Firefox warms longest: its lazy-binding tail (one GOT store and
 *  ABTB flush per first call) is what warm-up amortises; shorter
 *  warm-ups leave the measured phase in that tail. */
const int kFig5Warmup[] = {300, 1200, 150};
const int kFig5Requests[] = {320, 120, 240};
const std::uint32_t kAbtbSizes[] = {1,  2,   4,   8,   16,  32,
                                    64, 128, 256, 512, 1024};
/** Fast-forward-dominated: ~92% of instructions run on RefCore. */
const char *const kFig5Sample = "2000:10000:100000";

/** Server: 4 simulated cores, 12 closed-loop clients. A worker
 *  serves one connection until its client hangs up, so with fewer
 *  workers than clients the rest wait in the accept backlog through
 *  warm-up and their first request's latency becomes the p99. */
constexpr std::uint32_t kServerWorkers = 12;
constexpr std::uint32_t kServerClients = 12;
constexpr std::uint32_t kServerTenants = 4;
/** A tenant is dlclosed and reloaded every this many requests. */
constexpr std::uint64_t kServerChurn = 40;
/** Past start-up: skip rate and GOT-store flushes per request match
 *  those after warm-ups of up to 4000 requests. */
constexpr std::uint64_t kServerWarm = 600;
constexpr std::uint32_t kServerShards = 4;
constexpr std::uint64_t kServerRequests = 1200;
constexpr std::uint64_t kServerSampledRequests = 4800;
const char *const kServerSample = "2000:10000:100000";

/** Never run sweeps past this many seconds, whatever --seconds says,
 *  so a run always exits well inside its time limit. */
constexpr double kHardCapSeconds = 100.0;
constexpr std::size_t kMinSweeps = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = ".";
    bool plantFault = false;
    /** Multiplies every warm-up length (to check that the measured
     *  phase is past start-up). */
    std::uint32_t warmupScale = 1;
};

struct WorkloadDef
{
    const char *name;
    bool server;
    bool sampled;
};

const WorkloadDef kWorkloads[] = {
    {"fig5-exact", false, false},
    {"fig5-sampled", false, true},
    {"server-churn", true, false},
    {"server-sampled", true, true},
};

sim::SampleParams
sampleSpec(const char *spec)
{
    sim::SampleParams sp;
    std::string error;
    if (!sim::SampleParams::parse(spec, sp, &error)) {
        std::fprintf(stderr, "dlbench: bad sample spec: %s\n",
                     error.c_str());
        std::exit(2);
    }
    return sp;
}

// ---------------------------------------------------------------
// Arms
// ---------------------------------------------------------------

/** One measured arm (a fig5 cell or a server shard). */
struct ArmOut
{
    std::string name;
    bool enhanced = false;
    bool ok = false;
    std::string error;
    std::uint64_t requests = 0;
    /** Simulated instructions and cycles (cycles extrapolated when
     *  sampled). */
    std::uint64_t insts = 0;
    double cycles = 0.0;
    /** Per-request latency in simulated cycles. */
    std::vector<double> latency;
    /** Summed registry counters plus host-side structure counts. */
    std::map<std::string, double> counts;
    std::uint64_t digest = 0;
    stats::MetricsRegistry registry;
};

/** FNV-1a over the arm's simulated results. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }
    template <typename T>
    void
    value(const T &v)
    {
        bytes(&v, sizeof v);
    }
    void
    registry(const stats::MetricsRegistry &reg)
    {
        for (const auto &[name, m] : reg.metrics()) {
            bytes(name.data(), name.size());
            value(m.counter);
            value(m.gauge);
            value(m.histogram.count);
        }
    }
    std::uint64_t get() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void
addCounts(std::map<std::string, double> &counts,
          const stats::MetricsRegistry &reg)
{
    for (const auto &[name, m] : reg.metrics()) {
        if (m.kind == stats::MetricKind::Counter)
            counts[name] += static_cast<double>(m.counter);
        else if (m.kind == stats::MetricKind::Gauge)
            counts[name] += m.gauge;
    }
}

double
count(const std::map<std::string, double> &counts,
      const std::string &key)
{
    const auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
}

/**
 * Output check: every ABTB flush is attributed to exactly one of
 * the four causes. `prefix` is the skip unit's registry prefix.
 */
bool
flushIdentityHolds(const stats::MetricsRegistry &reg,
                   const std::string &prefix, std::string *why)
{
    if (!reg.has(prefix + ".abtb.flushes"))
        return true; // Base machine: no skip unit.
    const std::uint64_t total =
        reg.counterValue(prefix + ".abtb.flushes");
    const std::uint64_t causes =
        reg.counterValue(prefix + ".skip.store_flushes") +
        reg.counterValue(prefix + ".skip.coherence_flushes") +
        reg.counterValue(prefix + ".skip.context_switch_flushes") +
        reg.counterValue(prefix + ".skip.explicit_flushes");
    if (total == causes)
        return true;
    *why = "flush accounting: " + std::to_string(total) +
           " flushes but " + std::to_string(causes) +
           " attributed to causes";
    return false;
}

/** Host-side structure counts (not simulated state). */
void
addImageCounts(ArmOut &out, const linker::Image &image)
{
    out.counts["host.blockcache.hits"] +=
        static_cast<double>(image.blockCacheHits());
    out.counts["host.blockcache.builds"] +=
        static_cast<double>(image.blockCacheBuilds());
    out.counts["host.blockcache.flushes"] +=
        static_cast<double>(image.blockCacheFlushes());
    out.counts["host.decode.hits"] +=
        static_cast<double>(image.decodeCacheHits());
    out.counts["host.decode.misses"] +=
        static_cast<double>(image.decodeCacheMisses());
}

void
addSamplerCounts(ArmOut &out, const sim::SampledStats &st)
{
    out.counts["sampled.windows"] += static_cast<double>(st.windows);
    out.counts["sampled.detailed_insts"] +=
        static_cast<double>(st.detailInsts + st.warmupInsts);
    out.counts["sampled.total_insts"] +=
        static_cast<double>(st.totalInsts());
}

/** Shared, read-only inputs of one fig5 profile. */
struct Fig5Profile
{
    workload::WorkloadParams wl;
    std::shared_ptr<const workload::BuiltProgram> prog;
    std::vector<std::uint8_t> state;
    /** Measured request kinds: a fixed composition, each arm runs
     *  it in its own order drawn from orderSeed. */
    std::vector<std::uint32_t> kinds;
    std::uint64_t orderSeed = 0;
};

ArmOut
runFig5Arm(const Fig5Profile &p, const workload::MachineConfig &ref_mc,
           std::uint32_t entries, const sim::SampleParams &sp,
           bool plant_fault)
{
    ArmOut out;
    out.enhanced = true;
    Span arm("arm");
    try {
        workload::MachineConfig mc = ref_mc;
        mc.abtbEntries = entries;
        mc.abtbAssoc = std::min(entries, 4u);
        std::optional<workload::Workbench> wb;
        {
            Span s("linker.load");
            wb.emplace(p.wl, ref_mc, p.prog, /*for_restore=*/true);
        }
        {
            Span s("snapshot.restore");
            workload::restoreWorkbench(*wb, p.state.data(),
                                       p.state.size(),
                                       /*trusted=*/true);
        }
        {
            Span s("workload.reconfigure");
            wb->reconfigure(mc);
            wb->setSampling(sp);
        }
        {
            Span s(sp.enabled ? "sim.sampled.run" : "cpu.run");
            std::vector<std::uint32_t> kinds = p.kinds;
            stats::Rng rng(p.orderSeed + entries);
            for (std::size_t r = kinds.size(); r > 1; --r)
                std::swap(kinds[r - 1], kinds[rng.nextBelow(r)]);
            out.latency.reserve(kinds.size());
            for (const std::uint32_t kind : kinds) {
                const auto r = wb->runRequest(kind);
                out.latency.push_back(static_cast<double>(r.cycles));
                out.insts += r.instructions;
                out.cycles += static_cast<double>(r.cycles);
            }
            out.requests = p.kinds.size();
        }
        {
            Span s("stats.report");
            wb->reportMetrics(out.registry, "dlsim");
            if (plant_fault) {
                out.registry.counter(
                    "dlsim.core.abtb.flushes",
                    out.registry.counterValue(
                        "dlsim.core.abtb.flushes") +
                        1);
            }
            addCounts(out.counts, out.registry);
            addImageCounts(out, wb->image());
            if (wb->sampler())
                addSamplerCounts(out, wb->sampler()->stats());
            Digest d;
            d.registry(out.registry);
            for (const double v : out.latency)
                d.value(v);
            out.digest = d.get();
            out.ok = flushIdentityHolds(out.registry, "dlsim.core",
                                        &out.error);
        }
        Span s("workload.teardown");
        wb.reset();
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

/** Shared, read-only inputs of the server fan-out. */
struct ServerShared
{
    workload::WorkloadParams wl;
    std::shared_ptr<const workload::BuiltProgram> prog;
    workload::MachineConfig mcBase;
    sim::MultiCoreParams mcp;
    os::ServerParams sp;
    std::vector<std::uint8_t> state;
};

ArmOut
runServerShard(const ServerShared &sh,
               const workload::MachineConfig &arm_mc,
               std::uint32_t shard, std::uint64_t requests,
               const sim::SampleParams &samp, bool plant_fault)
{
    ArmOut out;
    out.enhanced = arm_mc.enhanced;
    Span arm("arm");
    try {
        std::optional<workload::Workbench> wb;
        {
            Span s("linker.load");
            wb.emplace(sh.wl, sh.mcBase, sh.prog,
                       /*for_restore=*/true);
        }
        std::optional<os::Server> server;
        {
            Span s("snapshot.restore");
            server.emplace(*wb, sh.mcp, sh.sp, sh.state.data(),
                           sh.state.size(), /*trusted=*/true);
        }
        {
            Span s("workload.reconfigure");
            server->reconfigure(arm_mc);
            server->resetMeasurement(shard, requests);
            if (samp.enabled)
                server->setSampling(samp);
        }
        {
            Span s("os.serve");
            server->run();
        }
        {
            Span s("stats.report");
            server->reportMetrics(out.registry, "dlsim.os");
            server->system().reportMetrics(out.registry, "dlsim");
            out.registry.histogram("dlsim.os.server.latency",
                                   server->latency());
            addCounts(out.counts, out.registry);
            Digest d;
            d.registry(out.registry);
            out.ok = true;
            auto &sys = server->system();
            for (std::uint32_t c = 0; c < sh.mcp.numCores; ++c) {
                stats::MetricsRegistry core_reg;
                sys.core(c).reportMetrics(core_reg, "dlsim");
                if (plant_fault && c == 0 && arm_mc.enhanced) {
                    core_reg.counter(
                        "dlsim.core.abtb.flushes",
                        core_reg.counterValue(
                            "dlsim.core.abtb.flushes") +
                            1);
                }
                d.registry(core_reg);
                addCounts(out.counts, core_reg);
                if (out.ok)
                    out.ok = flushIdentityHolds(
                        core_reg, "dlsim.core", &out.error);
                const auto pc = sys.core(c).counters();
                if (!samp.enabled) {
                    out.insts += pc.instructions;
                    out.cycles += static_cast<double>(pc.cycles);
                }
            }
            if (const auto *sampler = server->sampler()) {
                const auto &st = sampler->stats();
                addSamplerCounts(out, st);
                out.insts = st.totalInsts();
                out.cycles = st.extrapolatedCycles();
            }
            const auto &as = wb->image().addressSpace();
            out.counts["dlsim.mem.ptc.hits"] +=
                static_cast<double>(as.ptcHits());
            out.counts["dlsim.mem.ptc.misses"] +=
                static_cast<double>(as.ptcMisses());
            addImageCounts(out, wb->image());
            out.latency = server->latency().samples();
            for (const double v : out.latency)
                d.value(v);
            out.digest = d.get();
            // Closed loop: every client finishes its share. Requests
            // in flight at the checkpoint (at most one per client)
            // were counted on one side of the cut only, so the
            // served count may differ from the budget by that many.
            out.requests = server->stats().requestsServed;
            const std::uint64_t off = out.requests > requests
                                          ? out.requests - requests
                                          : requests - out.requests;
            if (out.ok && off > sh.sp.clients) {
                out.ok = false;
                out.error = "served " + std::to_string(out.requests) +
                            " requests for a budget of " +
                            std::to_string(requests);
            }
        }
        Span s("workload.teardown");
        server.reset();
        wb.reset();
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

// ---------------------------------------------------------------
// Sweeps: set up (build, load, warm, checkpoint), fan the arms out
// over the JobRunner, then serialize the metrics document.
// ---------------------------------------------------------------

struct Sweep
{
    double setupS = 0.0;
    double measureS = 0.0;
    double totalS = 0.0;
    /** Process CPU seconds of the set-up and of the whole sweep. */
    double setupCpuS = 0.0;
    double totalCpuS = 0.0;
    std::vector<ArmOut> arms;
    sim::JobRunnerStats jobs;
    std::uint64_t snapshotBytes = 0;
    std::uint64_t documentBytes = 0;
};

std::vector<ArmOut>
fanOut(std::vector<std::function<ArmOut()>> work, Sweep &sw)
{
    sim::JobRunner runner(sim::JobRunner::defaultJobs());
    Span s("sim.jobs.run");
    const std::int64_t parent = Tracer::get().current();
    std::vector<std::function<ArmOut()>> adopted;
    adopted.reserve(work.size());
    for (std::size_t i = 0; i < work.size(); ++i) {
        // With one job the runner calls this on the submitting thread
        // itself, so put that thread's parent and arm back afterwards.
        adopted.push_back([parent, i, &work] {
            const auto prev = Tracer::get().adopt(
                parent, static_cast<std::uint32_t>(i + 1));
            ArmOut out = work[i]();
            Tracer::get().restore(prev);
            return out;
        });
    }
    auto arms = runner.run(std::move(adopted));
    sw.jobs = runner.stats();
    return arms;
}

void
serializeDocument(Sweep &sw, const char *tool)
{
    Span s("stats.serialize");
    stats::MetricsDocument doc(tool);
    for (const ArmOut &a : sw.arms)
        doc.addRun(a.name).registry = a.registry;
    sw.documentBytes = doc.toJson().size();
}

Sweep
runFig5Sweep(const Options &opt, bool sampled)
{
    Sweep sw;
    const auto t0 = Clock::now();
    const double cpu0 = processCpuSeconds();
    const sim::SampleParams sp =
        sampled ? sampleSpec(kFig5Sample) : sim::SampleParams{};
    workload::MachineConfig ref_mc;
    ref_mc.enhanced = true;

    Fig5Profile prof[3];
    for (int i = 0; i < 3; ++i) {
        prof[i].wl = workload::profileByName(kFig5Profiles[i]);
        {
            // A fixed traffic mix (each kind's share of the requests
            // rounded from its weight) in an order drawn from the
            // seed: the seed moves the order, not the composition.
            const auto &classes = prof[i].wl.requests;
            double wsum = 0;
            for (const auto &rc : classes)
                wsum += rc.weight;
            double acc = 0;
            std::size_t placed = 0;
            for (std::uint32_t k = 0; k < classes.size(); ++k) {
                acc += classes[k].weight;
                const auto upto = static_cast<std::size_t>(std::lround(
                    acc / wsum * kFig5Requests[i]));
                for (; placed < upto; ++placed)
                    prof[i].kinds.push_back(k);
            }
            prof[i].orderSeed = opt.seed * 0x9e3779b97f4a7c15ull +
                                static_cast<std::uint64_t>(i) * 1024;
        }
        {
            Span s("workload.buildProgram");
            prof[i].prog =
                std::make_shared<const workload::BuiltProgram>(
                    workload::buildProgram(prof[i].wl));
        }
        std::optional<workload::Workbench> wb;
        {
            Span s("linker.load");
            wb.emplace(prof[i].wl, ref_mc, prof[i].prog);
        }
        wb->setSampling(sp);
        {
            Span s("workload.warmup");
            wb->warmup(static_cast<std::uint32_t>(kFig5Warmup[i]) *
                       opt.warmupScale);
        }
        {
            Span s("snapshot.save");
            prof[i].state = workload::snapshotWorkbench(*wb);
        }
        sw.snapshotBytes += prof[i].state.size();
        Span s("workload.teardown");
        wb.reset();
    }
    sw.setupS = secondsSince(t0);
    sw.setupCpuS = processCpuSeconds() - cpu0;

    const auto t1 = Clock::now();
    std::vector<std::function<ArmOut()>> work;
    std::vector<std::string> names;
    for (const std::uint32_t entries : kAbtbSizes) {
        for (int i = 0; i < 3; ++i) {
            const bool plant = opt.plantFault && work.empty();
            work.push_back([&prof, &ref_mc, &sp, i, entries, plant] {
                return runFig5Arm(prof[i], ref_mc, entries, sp,
                                  plant);
            });
            names.push_back(std::string(kFig5Profiles[i]) +
                            ".entries" + std::to_string(entries));
        }
    }
    sw.arms = fanOut(std::move(work), sw);
    sw.measureS = secondsSince(t1);
    for (std::size_t a = 0; a < sw.arms.size(); ++a)
        sw.arms[a].name = names[a];
    serializeDocument(sw, sampled ? "dlbench.fig5-sampled"
                                  : "dlbench.fig5-exact");
    sw.totalS = secondsSince(t0);
    sw.totalCpuS = processCpuSeconds() - cpu0;
    return sw;
}

Sweep
runServerSweep(const Options &opt, bool sampled,
               std::uint64_t requests)
{
    Sweep sw;
    const auto t0 = Clock::now();
    const double cpu0 = processCpuSeconds();
    const sim::SampleParams samp =
        sampled ? sampleSpec(kServerSample) : sim::SampleParams{};

    ServerShared sh;
    sh.wl = workload::memcachedProfile();
    sh.mcp.numCores = 4;
    sh.mcp.core = workload::makeCoreParams(sh.mcBase);
    sh.sp.workers = kServerWorkers;
    sh.sp.clients = kServerClients;
    sh.sp.tenants = kServerTenants;
    // Warm budget with headroom, so no client runs dry before the
    // checkpoint.
    const std::uint64_t warm = kServerWarm * opt.warmupScale;
    sh.sp.requests = (warm + 1) * kServerClients;
    sh.sp.churnPeriod = kServerChurn;
    sh.sp.seed = opt.seed;
    {
        Span s("workload.buildProgram");
        sh.prog = std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(sh.wl));
    }
    {
        std::optional<workload::Workbench> wb;
        {
            Span s("linker.load");
            wb.emplace(sh.wl, sh.mcBase, sh.prog);
        }
        std::optional<os::Server> server;
        {
            Span s("os.server_init");
            server.emplace(*wb, sh.mcp, sh.sp);
            if (sampled)
                server->setSampling(samp);
        }
        {
            Span s("workload.warmup");
            while (server->stats().requestsServed < warm) {
                if (server->runRounds(64))
                    break;
            }
        }
        {
            Span s("snapshot.save");
            sh.state = server->snapshot();
        }
        sw.snapshotBytes = sh.state.size();
        Span s("workload.teardown");
        server.reset();
        wb.reset();
    }
    sw.setupS = secondsSince(t0);
    sw.setupCpuS = processCpuSeconds() - cpu0;

    const auto t1 = Clock::now();
    workload::MachineConfig arms[3];
    const char *arm_names[3] = {"base", "enhanced", "enhanced-untagged"};
    // ASID-tagged ABTB: context switches keep it, so tenant churn
    // stays correct through the coherence path alone.
    arms[1].enhanced = true;
    arms[1].asidRetention = true;
    // Untagged ABTB: every ASID switch flushes it.
    arms[2].enhanced = true;
    std::vector<std::function<ArmOut()>> work;
    std::vector<std::string> names;
    for (int a = 0; a < 3; ++a) {
        for (std::uint32_t shard = 0; shard < kServerShards; ++shard) {
            const std::uint64_t share =
                requests / kServerShards +
                (shard < requests % kServerShards ? 1 : 0);
            const bool plant =
                opt.plantFault && a == 1 && shard == 0;
            const workload::MachineConfig mc = arms[a];
            work.push_back([&sh, mc, shard, share, &samp, plant] {
                return runServerShard(sh, mc, shard, share, samp,
                                      plant);
            });
            names.push_back(std::string("server.") + arm_names[a] +
                            ".shard" + std::to_string(shard));
        }
    }
    sw.arms = fanOut(std::move(work), sw);
    sw.measureS = secondsSince(t1);
    for (std::size_t a = 0; a < sw.arms.size(); ++a)
        sw.arms[a].name = names[a];
    serializeDocument(sw, sampled ? "dlbench.server-sampled"
                                  : "dlbench.server-churn");
    sw.totalS = secondsSince(t0);
    sw.totalCpuS = processCpuSeconds() - cpu0;
    return sw;
}

Sweep
runSweep(const Options &opt, const WorkloadDef &w)
{
    if (w.server)
        return runServerSweep(opt, w.sampled,
                              w.sampled ? kServerSampledRequests
                                        : kServerRequests);
    return runFig5Sweep(opt, w.sampled);
}

// ---------------------------------------------------------------
// Metric helpers
// ---------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::map<std::string, double>
sumCounts(const Sweep &sw)
{
    std::map<std::string, double> total;
    for (const ArmOut &a : sw.arms)
        for (const auto &[k, v] : a.counts)
            total[k] += v;
    return total;
}

/** Arms grouped by name up to the last '.': a fig5 profile (its 11
 *  ABTB sizes) or a server machine (its shards). */
std::map<std::string, std::vector<const ArmOut *>>
armGroups(const Sweep &sw)
{
    std::map<std::string, std::vector<const ArmOut *>> groups;
    for (const ArmOut &a : sw.arms)
        groups[a.name.substr(0, a.name.rfind('.'))].push_back(&a);
    return groups;
}

stats::SampleSet
latencyOf(const std::vector<const ArmOut *> &arms)
{
    stats::SampleSet lat;
    for (const ArmOut *a : arms)
        for (const double v : a->latency)
            lat.add(v);
    return lat;
}

struct SimSummary
{
    double ipc = 0.0;
    double skipRate = 0.0;
    /** Latency percentiles averaged over the enhanced groups. */
    double p50 = 0.0, p99 = 0.0;
    std::size_t latencySamples = 0;
};

/**
 * Simulated results of the enhanced arms (identical every sweep).
 * Each group's latency percentile is taken on its own samples and
 * the groups weigh equally: pooled over fig5's three applications,
 * the p99 falls between memcached's and apache's tails and jumps
 * between them with the request order.
 */
SimSummary
simSummary(const Sweep &sw)
{
    SimSummary s;
    double insts = 0, cycles = 0, skipped = 0, executed = 0;
    for (const ArmOut &a : sw.arms) {
        if (!a.enhanced)
            continue;
        insts += static_cast<double>(a.insts);
        cycles += a.cycles;
        skipped += count(a.counts, "dlsim.cpu.skipped_trampolines");
        executed += count(a.counts, "dlsim.cpu.trampoline_jmps");
    }
    s.ipc = ratio(insts, cycles);
    s.skipRate = ratio(skipped, skipped + executed);
    std::size_t groups = 0;
    for (const auto &[g, arms] : armGroups(sw)) {
        const stats::SampleSet lat = latencyOf(arms);
        if (!arms[0]->enhanced || lat.count() == 0)
            continue;
        s.p50 += lat.percentile(50.0);
        s.p99 += lat.percentile(99.0);
        s.latencySamples += lat.count();
        ++groups;
    }
    s.p50 = ratio(s.p50, static_cast<double>(groups));
    s.p99 = ratio(s.p99, static_cast<double>(groups));
    return s;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

// ---------------------------------------------------------------
// Interior layers, timed outside-in by replaying a recorded retire
// stream through their public entry points.
// ---------------------------------------------------------------

struct ReplayTimes
{
    double memNs = 0, branchNs = 0, skipNs = 0;
};

template <typename F>
double
bestOf3(F &&f)
{
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep)
        best = std::min(best, f());
    return best;
}

ReplayTimes
replayLayers(const Options &opt, const std::vector<std::string> &profiles)
{
    ReplayTimes out;
    double mem_ns = 0, mem_ops = 0, br_ns = 0, br_ops = 0;
    double skip_ns = 0, skip_ops = 0;
    volatile std::uint64_t sink = 0;
    for (const std::string &name : profiles) {
        const std::string path = opt.scratch + "/retire-" + name +
                                 "-" + std::to_string(opt.seed) +
                                 ".trace";
        workload::MachineConfig mc;
        mc.core.tracePath = path;
        const auto wl = workload::profileByName(name);
        {
            workload::Workbench wb(wl, mc);
            while (wb.core().instructionsRetired() < 400000)
                wb.runRequest();
            wb.core().closeTrace();
        }
        trace::TraceReader reader(path);
        if (!reader.good()) {
            std::fprintf(stderr, "dlbench: trace %s: %s\n",
                         path.c_str(), reader.errorString());
            std::exit(1);
        }
        std::vector<trace::TraceEvent> events;
        events.reserve(static_cast<std::size_t>(reader.count()));
        trace::TraceEvent ev;
        while (reader.next(ev))
            events.push_back(ev);

        // Skip unit: its own replay driver, minus the bare cost of
        // reading the same trace file.
        const core::SkipUnitParams skip =
            workload::makeCoreParams([] {
                workload::MachineConfig e;
                e.enhanced = true;
                return e;
            }())
                .skip;
        const double t_replay = bestOf3([&] {
            const auto t0 = Clock::now();
            const auto r = trace::replaySkipUnit(reader, skip);
            sink = sink + r.wouldSkip;
            return secondsSince(t0);
        });
        const double t_read = bestOf3([&] {
            reader.rewind();
            const auto t0 = Clock::now();
            std::uint64_t n = 0;
            while (reader.next(ev))
                ++n;
            sink = sink + n;
            return secondsSince(t0);
        });
        skip_ns += std::max(0.0, t_replay - t_read) * 1e9;
        skip_ops += static_cast<double>(events.size());

        const cpu::CoreParams cp = workload::makeCoreParams(mc);
        std::uint64_t accesses = 0;
        mem_ns += bestOf3([&] {
                      mem::Hierarchy h(cp.mem);
                      accesses = 0;
                      std::uint64_t extra = 0;
                      const auto t0 = Clock::now();
                      for (const auto &e : events) {
                          const auto r =
                              e.kind == trace::EventKind::Store
                                  ? h.data(e.addr, 1)
                                  : h.fetch(e.pc, 1);
                          extra += r.extraCycles;
                          ++accesses;
                      }
                      const double t = secondsSince(t0);
                      sink = sink + extra;
                      return t;
                  }) *
                  1e9;
        mem_ops += static_cast<double>(accesses);

        std::uint64_t branches = 0;
        br_ns += bestOf3([&] {
                     branch::BranchPredictor bp(cp.predictor);
                     branches = 0;
                     std::uint64_t hits = 0;
                     const auto t0 = Clock::now();
                     for (const auto &e : events) {
                         if (e.kind != trace::EventKind::Control)
                             continue;
                         isa::Instruction inst;
                         inst.op = e.op;
                         hits += bp.predictNext(inst, e.pc) == e.addr;
                         bp.resolve(inst, e.pc, e.taken != 0, e.addr);
                         ++branches;
                     }
                     const double t = secondsSince(t0);
                     sink = sink + hits;
                     return t;
                 }) *
                 1e9;
        br_ops += static_cast<double>(branches);
        std::remove(path.c_str());
    }
    out.memNs = ratio(mem_ns, mem_ops);
    out.branchNs = ratio(br_ns, br_ops);
    out.skipNs = ratio(skip_ns, skip_ops);
    return out;
}

/** Fast-forward-only pass (one detailed instruction per 10^9):
 *  host speed of check::RefCore on the workload's programs. */
double
refcoreMips(const std::vector<std::string> &profiles)
{
    double insts = 0, secs = 0;
    sim::SampleParams sp;
    sp.enabled = true;
    sp.warmup = 0;
    sp.detail = 1;
    sp.fastforward = 1000000000ull;
    for (const std::string &name : profiles) {
        workload::MachineConfig mc;
        mc.enhanced = true;
        workload::Workbench wb(workload::profileByName(name),
                               mc);
        wb.setSampling(sp);
        wb.warmup(20);
        const auto t0 = Clock::now();
        for (int i = 0; i < 60; ++i)
            insts += static_cast<double>(wb.runRequest().instructions);
        secs += secondsSince(t0);
    }
    return ratio(insts, secs) / 1e6;
}

/** Mean relative error of a per-arm statistic against the exact
 *  run of the same cells. */
template <typename F>
double
meanRelError(const Sweep &est, const Sweep &exact, F &&stat)
{
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t a = 0; a < est.arms.size(); ++a) {
        const double ref = stat(exact.arms[a]);
        if (ref <= 0.0)
            continue;
        sum += std::fabs(stat(est.arms[a]) - ref) / ref;
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
p99(const ArmOut &a)
{
    stats::SampleSet s;
    for (const double v : a.latency)
        s.add(v);
    return s.count() ? s.percentile(99.0) : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dlbench: %s\n"
                 "usage: dlbench --workload fig5-exact|fig5-sampled|"
                 "server-churn|server-sampled\n"
                 "               --seed N --seconds S --trace 0|1 "
                 "[--scratch DIR] [--plant-fault] "
                 "[--warmup-scale K]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " requires a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (arg == "--scratch") {
            opt.scratch = value();
        } else if (arg == "--plant-fault") {
            opt.plantFault = true;
        } else if (arg == "--warmup-scale") {
            opt.warmupScale = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else {
            usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    if (opt.warmupScale == 0)
        usage("--warmup-scale must be positive");
    return opt;
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto process_start = Clock::now();
    const Options opt = parseArgs(argc, argv);
    const WorkloadDef *wdef = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (opt.workload == w.name)
            wdef = &w;
    if (!wdef)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    // Measured phase: whole sweeps until --seconds have passed. A
    // traced run alternates untraced and traced sweeps, so the two
    // are measured under the same host conditions. The run stops
    // when one more round would overshoot --seconds by more than
    // stopping now falls short of it, so its length stays near
    // --seconds whatever a sweep takes.
    std::vector<Sweep> plain, traced;
    std::size_t untraced_spans = 0;
    const auto t0 = Clock::now();
    for (;;) {
        const auto round_start = Clock::now();
        const std::size_t before = Tracer::get().size();
        plain.push_back(runSweep(opt, *wdef));
        untraced_spans += Tracer::get().size() - before;
        if (opt.trace) {
            Tracer::get().enable(true);
            traced.push_back(runSweep(opt, *wdef));
            Tracer::get().enable(false);
        }
        const double elapsed = secondsSince(t0);
        if (elapsed >= kHardCapSeconds)
            break;
        if (elapsed + 0.5 * secondsSince(round_start) >= opt.seconds &&
            (opt.trace || plain.size() >= kMinSweeps))
            break;
    }

    // Output checks: every arm passed its own checks, and every
    // sweep reproduced the first sweep's simulated results.
    std::uint64_t attempted = 0, failed = 0;
    bool correct = untraced_spans == 0;
    const auto check_sweeps = [&](std::vector<Sweep> &sweeps) {
        for (Sweep &sw : sweeps) {
            for (std::size_t a = 0; a < sw.arms.size(); ++a) {
                ArmOut &arm = sw.arms[a];
                if (arm.ok && arm.digest != plain[0].arms[a].digest) {
                    arm.ok = false;
                    arm.error = "simulated results differ from the "
                                "first sweep of this seed";
                }
                ++attempted;
                if (!arm.ok) {
                    ++failed;
                    std::fprintf(stderr, "dlbench: arm %s failed: %s\n",
                                 arm.name.c_str(), arm.error.c_str());
                }
            }
        }
    };
    check_sweeps(plain);
    check_sweeps(traced);
    correct = correct && failed == 0;

    const SimSummary sim = simSummary(plain[0]);
    std::vector<double> setup, total, mips, rps;
    for (const Sweep &sw : plain) {
        double insts = 0, reqs = 0;
        for (const ArmOut &a : sw.arms) {
            insts += static_cast<double>(a.insts);
            reqs += static_cast<double>(a.requests);
        }
        setup.push_back(sw.setupS);
        total.push_back(sw.totalS);
        mips.push_back(ratio(insts, sw.measureS) / 1e6);
        rps.push_back(ratio(reqs, sw.measureS));
    }
    if (sim.latencySamples == 0 || sim.ipc <= 0.0)
        correct = false;

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setup), "s"},
            {"total_s", median(total), "s"},
            {"sim_mips", median(mips), "Minst/s"},
            {"requests_per_s", median(rps), "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_ipc", sim.ipc, "inst/cycle"},
            {"skip_rate", sim.skipRate, "ratio"},
            {"latency_p50_kcycles", sim.p50 / 1000.0, "kcycles"},
            {"latency_p99_kcycles", sim.p99 / 1000.0, "kcycles"},
        };
        for (std::size_t i = 0; i < plain.size(); ++i)
            std::fprintf(stderr,
                         "dlbench: sweep %zu: setup %.3f s (cpu %.3f s), "
                         "measure %.3f s, total %.3f s (cpu %.3f s)\n",
                         i, setup[i], plain[i].setupCpuS,
                         plain[i].measureS, total[i], plain[i].totalCpuS);
        // Simulated results per group of arms (a fig5 profile or a
        // server arm), to judge how far warm-up got: a measured phase
        // still in the lazy-binding tail shows GOT-store flushes.
        for (const auto &[g, arms] : armGroups(plain[0])) {
            double insts = 0, cycles = 0, reqs = 0;
            std::map<std::string, double> c;
            for (const ArmOut *a : arms) {
                insts += static_cast<double>(a->insts);
                cycles += a->cycles;
                reqs += static_cast<double>(a->requests);
                for (const auto &[k, v] : a->counts)
                    c[k] += v;
            }
            const stats::SampleSet lat = latencyOf(arms);
            const double sk = count(c, "dlsim.cpu.skipped_trampolines");
            std::fprintf(
                stderr,
                "dlbench:   %-26s ipc %.4f  skip_rate %.4f  store "
                "flushes/request %.4f  p50 %.1f  p99 %.1f kcycles\n",
                g.c_str(), ratio(insts, cycles),
                ratio(sk, sk + count(c, "dlsim.cpu.trampoline_jmps")),
                ratio(count(c, "dlsim.core.skip.store_flushes"), reqs),
                lat.percentile(50.0) / 1000.0,
                lat.percentile(99.0) / 1000.0);
        }
        std::fprintf(stderr,
                     "dlbench: %s seed=%llu: %zu sweeps in %.1f s, "
                     "%zu latency samples per sweep, spans "
                     "recorded: %zu\n",
                     wdef->name,
                     static_cast<unsigned long long>(opt.seed),
                     plain.size(), secondsSince(process_start),
                     sim.latencySamples, untraced_spans);
    } else {
        // Per-layer ledger: self times averaged over traced sweeps,
        // counts from the first traced sweep (identical in all).
        const auto &spans = Tracer::get().spans();
        const double nt = static_cast<double>(traced.size());
        std::map<std::string, double> self = dlbench::selfSeconds(spans);
        for (auto &[k, v] : self)
            v /= nt;
        const auto selfOf = [&](const char *k) { return count(self, k); };

        // Coverage: share of the main thread's wall-clock, and of each
        // worker's busy time inside its arms, spent in a named layer.
        const std::uint32_t main_thread = spans.empty() ? 0 : spans[0].thread;
        double main_wall = 0, main_cov = 0;
        for (const Sweep &sw : traced)
            main_wall += sw.totalS;
        std::map<std::uint32_t, double> busy, covered;
        for (const auto &s : spans) {
            const double d = static_cast<double>(s.endNs - s.startNs) * 1e-9;
            if (s.thread == main_thread && s.parent < 0)
                main_cov += d;
            if (std::strcmp(s.name, "arm") == 0) {
                busy[s.thread] += d;
            } else if (s.parent >= 0) {
                const auto &p = spans[static_cast<std::size_t>(s.parent)];
                if (p.thread == s.thread && std::strcmp(p.name, "arm") == 0)
                    covered[s.thread] += d;
            }
        }
        double worker_cov = 1.0;
        for (const auto &[t, b] : busy)
            worker_cov = std::min(worker_cov, ratio(covered[t], b));

        const Sweep &tr = traced[0];
        const auto c = sumCounts(tr);
        const auto k = [&](const char *key) { return count(c, key); };
        const auto miss = [&](const std::string &lvl) {
            const double m = k(("dlsim.cpu." + lvl + ".misses").c_str());
            return ratio(m, m + k(("dlsim.cpu." + lvl + ".hits").c_str()));
        };

        std::vector<std::string> profiles;
        if (wdef->server)
            profiles = {"memcached"};
        else
            profiles = {kFig5Profiles[0], kFig5Profiles[1],
                        kFig5Profiles[2]};
        const ReplayTimes rt = replayLayers(opt, profiles);
        const double refcore =
            wdef->sampled ? refcoreMips(profiles) : 0.0;

        // Estimator error against exact runs of the same cells.
        double ipc_err = 0, p99_err = 0;
        if (wdef->sampled) {
            const WorkloadDef exact{wdef->name, wdef->server, false};
            const Sweep ref = wdef->server
                                  ? runServerSweep(opt, false,
                                                   kServerSampledRequests)
                                  : runSweep(opt, exact);
            const auto ipc = [](const ArmOut &a) {
                return ratio(static_cast<double>(a.insts), a.cycles);
            };
            if (wdef->server)
                p99_err = meanRelError(plain[0], ref, p99);
            else
                ipc_err = meanRelError(plain[0], ref, ipc);
        }

        const double exact_serve = wdef->sampled ? 0.0 : selfOf("os.serve");
        const double cpu_busy = selfOf("cpu.run") + exact_serve;
        std::vector<double> plain_total, traced_total;
        for (const Sweep &sw : plain)
            plain_total.push_back(sw.totalS);
        for (const Sweep &sw : traced)
            traced_total.push_back(sw.totalS);
        const double blk = k("host.blockcache.hits");
        const double dec = k("host.decode.hits");
        const double ptc = k("dlsim.mem.ptc.hits");

        metrics = {
            {"workload.build_s", selfOf("workload.buildProgram"), "s"},
            {"workload.warmup_s", selfOf("workload.warmup"), "s"},
            {"workload.reconfigure_s", selfOf("workload.reconfigure"), "s"},
            {"workload.teardown_s", selfOf("workload.teardown"), "s"},
            {"linker.load_s", selfOf("linker.load"), "s"},
            {"linker.blockcache.hit_rate",
             ratio(blk, blk + k("host.blockcache.builds")), "ratio"},
            {"linker.blockcache.builds", k("host.blockcache.builds"), "count"},
            {"linker.blockcache.flushes", k("host.blockcache.flushes"),
             "count"},
            {"linker.decode_cache.hit_rate",
             ratio(dec, dec + k("host.decode.misses")), "ratio"},
            {"linker.resolver_calls", k("dlsim.cpu.resolver_calls"), "count"},
            {"cpu.busy_s", cpu_busy, "s"},
            {"cpu.insts", k("dlsim.cpu.instructions"), "count"},
            {"cpu.mips", ratio(k("dlsim.cpu.instructions"), cpu_busy) / 1e6,
             "Minst/s"},
            {"mem.l1i.miss_rate", miss("l1i"), "ratio"},
            {"mem.l1d.miss_rate", miss("l1d"), "ratio"},
            {"mem.l2.miss_rate", miss("l2"), "ratio"},
            {"mem.itlb.miss_rate", miss("itlb"), "ratio"},
            {"mem.dtlb.miss_rate", miss("dtlb"), "ratio"},
            {"mem.ptc.hit_rate", ratio(ptc, ptc + k("dlsim.mem.ptc.misses")),
             "ratio"},
            {"mem.replay_ns_per_access", rt.memNs, "ns/op"},
            {"branch.mispredict_rate",
             ratio(k("dlsim.cpu.mispredicts"), k("dlsim.cpu.branches")),
             "ratio"},
            {"branch.btb.miss_rate",
             ratio(k("dlsim.cpu.btb.misses"), k("dlsim.cpu.btb.lookups")),
             "ratio"},
            {"branch.replay_ns_per_branch", rt.branchNs, "ns/op"},
            {"core.abtb.substitutions", k("dlsim.core.skip.substitutions"),
             "count"},
            {"core.abtb.populations", k("dlsim.core.skip.populations"),
             "count"},
            {"core.abtb.flushes.store", k("dlsim.core.skip.store_flushes"),
             "count"},
            {"core.abtb.flushes.coherence",
             k("dlsim.core.skip.coherence_flushes"), "count"},
            {"core.abtb.flushes.ctxswitch",
             k("dlsim.core.skip.context_switch_flushes"), "count"},
            {"core.abtb.flushes.explicit",
             k("dlsim.core.skip.explicit_flushes"), "count"},
            {"core.bloom.false_positive_flushes",
             k("dlsim.core.skip.false_positive_flushes"), "count"},
            {"core.replay_ns_per_event", rt.skipNs, "ns/op"},
            {"check.refcore.mips", refcore, "Minst/s"},
            {"sim.jobs.efficiency",
             ratio(static_cast<double>(tr.jobs.busyNanos),
                   static_cast<double>(tr.jobs.busyNanos +
                                       tr.jobs.idleNanos)),
             "ratio"},
            {"sim.jobs.idle_s", static_cast<double>(tr.jobs.idleNanos) * 1e-9,
             "s"},
            {"sim.sampled.coverage",
             ratio(k("sampled.detailed_insts"), k("sampled.total_insts")),
             "ratio"},
            {"sim.sampled.detail_windows", k("sampled.windows"), "count"},
            {"sim.sampled.run_s", selfOf("sim.sampled.run"), "s"},
            {"sim.multicore.coherence_flushes",
             k("dlsim.multicore.coherence_flushes"), "count"},
            {"sim.multicore.snooped_stores",
             k("dlsim.multicore.snooped_stores"), "count"},
            {"snapshot.save_s", selfOf("snapshot.save"), "s"},
            {"snapshot.restore_s", selfOf("snapshot.restore"), "s"},
            {"snapshot.bytes", static_cast<double>(tr.snapshotBytes), "bytes"},
            {"os.serve_s", selfOf("os.serve"), "s"},
            {"os.server_init_s", selfOf("os.server_init"), "s"},
            {"os.dispatches", k("dlsim.os.sched.dispatches"), "count"},
            {"os.preemptions", k("dlsim.os.sched.preemptions"), "count"},
            {"os.asid_switches", k("dlsim.os.sched.asid_switches"), "count"},
            {"os.blocks", k("dlsim.os.sched.blocks"), "count"},
            {"os.wakeups", k("dlsim.os.sched.wakeups"), "count"},
            {"os.server.tenant_churns", k("dlsim.os.server.tenant_churns"),
             "count"},
            {"os.server.got_resets", k("dlsim.os.server.got_resets"),
             "count"},
            {"os.server.deferred_churns",
             k("dlsim.os.server.deferred_churns"), "count"},
            {"stats.report_s",
             selfOf("stats.report") + selfOf("stats.serialize"), "s"},
            {"stats.document_bytes", static_cast<double>(tr.documentBytes),
             "bytes"},
            {"sim.jobs.run_s", selfOf("sim.jobs.run"), "s"},
            {"ipc_err", ipc_err, "ratio"},
            {"p99_err", p99_err, "ratio"},
            {"arm_fail_rate",
             ratio(static_cast<double>(failed),
                   static_cast<double>(attempted)),
             "ratio"},
            {"latency.samples", static_cast<double>(sim.latencySamples),
             "count"},
            {"trace.overhead_s", median(traced_total) - median(plain_total),
             "s"},
            {"trace.coverage.main", ratio(main_cov, main_wall), "ratio"},
            {"trace.coverage.workers", worker_cov, "ratio"},
            {"trace.spans", static_cast<double>(spans.size()) / nt, "count"},
        };

        std::fprintf(stderr, "dlbench: %s seed=%llu traced: %zu+%zu "
                             "sweeps; self time per sweep:\n",
                     wdef->name, static_cast<unsigned long long>(opt.seed),
                     plain.size(), traced.size());
        for (const auto &[name, v] : self)
            std::fprintf(stderr, "  %-24s %10.4f s\n", name.c_str(), v);
        const std::string spans_path = opt.scratch + "/spans-" +
                                       wdef->name + "-" +
                                       std::to_string(opt.seed) + ".json";
        if (!dlbench::writeSpans(spans, spans_path)) {
            std::fprintf(stderr, "dlbench: cannot write %s\n",
                         spans_path.c_str());
            correct = false;
        } else {
            std::fprintf(stderr, "dlbench: spans written to %s\n",
                         spans_path.c_str());
        }
    }
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name.c_str(),
                     m.value, m.unit);
    std::fflush(stderr);
    printJson(correct, attempted, failed, metrics);
    return 0;
}
