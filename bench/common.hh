/**
 * @file
 * Shared helpers for the reproduction benches: run a calibrated
 * workload on one machine arm and collect counters or per-request
 * latency samples.
 *
 * Every bench prints the paper's corresponding table/figure rows
 * next to the measured values. Absolute numbers are not expected to
 * match (the substrate is a simulator, not the authors' Xeon); the
 * shape — who wins, roughly by what factor — is the claim under
 * reproduction.
 *
 * Benches execute their measurement grid through sim::JobRunner:
 * every arm is an independent job (own Workbench, own registry, own
 * RNG streams), jobs run on `--jobs N` host threads, and results
 * come back in submission order — so stdout tables and --json-out
 * documents are byte-identical for every N. See
 * docs/performance.md.
 */

#ifndef DLSIM_BENCH_COMMON_HH
#define DLSIM_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/job_runner.hh"
#include "sim/sampled.hh"
#include "snapshot/format.hh"
#include "snapshot/io.hh"
#include "snapshot/serializer.hh"
#include "stats/cdf.hh"
#include "stats/flags.hh"
#include "stats/histogram.hh"
#include "stats/metrics.hh"
#include "stats/table.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"

namespace dlsim::bench
{

/**
 * Command-line arguments shared by every bench binary, declared in
 * one stats::FlagTable (run any bench with --help for the list).
 * A bench with flags of its own declares them through `extra`.
 */
class BenchArgs
{
  public:
    BenchArgs(const char *tool, int argc, char **argv,
              const std::function<void(stats::FlagTable &)> &extra =
                  {})
        : tool_(tool)
    {
        stats::FlagTable flags(tool);
        flags
            .integer("jobs",
                     "host threads for the arm grid (default: all CPUs)",
                     jobs_, 1)
            .toggle("quick",
                    "shrink warm-up/request counts ~8x for smoke runs",
                    quick_)
            .custom("sample", "W:D:F",
                    "sampled mode: W warm-up + D measured detailed, "
                    "F fast-forward insts",
                    [this](const std::string &spec) {
                        std::string error;
                        if (!sim::SampleParams::parse(spec, sample_,
                                                      &error))
                            throw std::invalid_argument(error);
                    })
            .integer("seed", "workload RNG seed (default 42)", seed_, 0)
            .custom("blocks", "0|1",
                    "block dispatch off/on (default 1; same metrics)",
                    [this](const std::string &v) {
                        if (v != "0" && v != "1")
                            throw std::invalid_argument(
                                "expected 0 or 1, got '" + v + "'");
                        blocks_ = v == "1";
                    })
            .custom("bind-policy", "P",
                    "loader arm: lazy (default), now, stable or demand",
                    [this](const std::string &v) {
                        bindPolicy_ = linker::parseBindPolicy(v);
                    })
            .text("json-out", "FILE",
                  "also write a dlsim-metrics-v1 JSON document",
                  jsonOut_)
            .text("snapshot-after", "FILE",
                  "write the post-warm-up state (snapshot benches)",
                  snapshotAfter_)
            .text("from-snapshot", "FILE",
                  "restore the warm state (snapshot benches)",
                  fromSnapshot_);
        if (extra)
            extra(flags);
        flags.parse(argc, argv);
        if (jobs_ == 0)
            jobs_ = sim::JobRunner::defaultJobs();
    }

    unsigned jobs() const { return jobs_; }
    bool quick() const { return quick_; }
    bool blocks() const { return blocks_; }
    linker::BindPolicy bindPolicy() const { return bindPolicy_; }
    const sim::SampleParams &sample() const { return sample_; }
    std::uint64_t seed() const { return seed_; }
    const std::string &jsonOut() const { return jsonOut_; }
    const std::string &snapshotAfter() const
    {
        return snapshotAfter_;
    }
    const std::string &fromSnapshot() const
    {
        return fromSnapshot_;
    }
    const std::string &tool() const { return tool_; }

    /** Scale a warmup/request count for --quick runs. */
    int
    scaled(int n) const
    {
        return quick_ ? std::max(1, n / 8) : n;
    }

  private:
    std::string tool_;
    unsigned jobs_ = 0;
    bool quick_ = false;
    bool blocks_ = true;
    linker::BindPolicy bindPolicy_ = linker::BindPolicy::Lazy;
    sim::SampleParams sample_;
    std::uint64_t seed_ = 42;
    std::string jsonOut_;
    std::string snapshotAfter_;
    std::string fromSnapshot_;
};

/** Result of one measured arm. */
struct ArmResult
{
    cpu::PerfCounters counters;
    /** Latency samples per request kind (cycles). */
    std::vector<stats::SampleSet> latency;
    /** Distinct trampolines executed (profiling arms only). */
    std::uint64_t distinctTrampolines = 0;
    /** Skip-unit stats (enhanced arms only). */
    core::SkipUnitStats skipStats;
    /**
     * Block-translation-cache statistics from the image, for
     * wall-clock reporting. Deliberately NOT part of `registry`:
     * they describe the simulator process (and are zero with
     * --blocks 0), while the registry must stay byte-identical
     * whichever dispatch engine ran.
     */
    std::uint64_t blockHits = 0;
    std::uint64_t blockBuilds = 0;
    std::uint64_t blockFlushes = 0;
    /** Full metrics snapshot (dlsim.* namespace), including
     *  per-request-kind latency histograms. */
    stats::MetricsRegistry registry;
};

/** Measurement phase shared by runArm and runArmFromState. */
inline ArmResult
measureArm(workload::Workbench &wb, int requests)
{
    const auto &wl = wb.params();
    ArmResult result;
    result.latency.resize(wl.requests.size());
    for (int i = 0; i < requests; ++i) {
        const auto r = wb.runRequest();
        result.latency[r.kind].add(static_cast<double>(r.cycles));
    }
    result.counters = wb.core().counters();
    result.blockHits = wb.image().blockCacheHits();
    result.blockBuilds = wb.image().blockCacheBuilds();
    result.blockFlushes = wb.image().blockCacheFlushes();
    if (wb.machine().profileTrampolines)
        result.distinctTrampolines =
            wb.distinctTrampolinesExecuted();
    if (wb.core().skipUnit())
        result.skipStats = wb.core().skipUnit()->stats();
    wb.reportMetrics(result.registry, "dlsim");
    for (std::size_t k = 0; k < result.latency.size(); ++k) {
        result.registry.histogram("dlsim.workload.latency." +
                                      wl.requests[k].name,
                                  result.latency[k]);
    }
    return result;
}

/**
 * Run one arm of an experiment. With `sp.enabled` the arm runs in
 * sampled mode (detailed windows + functional fast-forward; see
 * sim::Sampler). A non-null `prog` supplies a pre-built
 * program shared across arms of the same workload.
 */
inline ArmResult
runArm(const workload::WorkloadParams &wl,
       const workload::MachineConfig &mc, int warmup, int requests,
       const sim::SampleParams &sp = {},
       std::shared_ptr<const workload::BuiltProgram> prog = nullptr)
{
    std::optional<workload::Workbench> wb;
    if (prog)
        wb.emplace(wl, mc, std::move(prog));
    else
        wb.emplace(wl, mc);
    wb->setSampling(sp);
    wb->warmup(static_cast<std::uint32_t>(warmup));
    return measureArm(*wb, requests);
}

/**
 * Warm-machine state for a snapshot-capable bench: warm up one
 * reference Workbench and serialize it, or — under --from-snapshot —
 * read the serialized bytes back instead of simulating the warm-up.
 * Either way every sweep arm starts from the same byte buffer, so
 * output is identical whichever path produced it. `key` (a workload
 * name, may be empty) suffixes the snapshot file of multi-workload
 * benches. Snapshot failures (bad magic/version/CRC, parameter
 * fingerprint mismatch, I/O errors) are fatal: diagnostic on stderr,
 * exit 1, never partial state.
 *
 * Under --sample the warm-up itself runs sampled: linking state
 * (GOT entries, lazy-binding progress) is architecturally exact
 * either way, only microarchitectural warmth is approximate — so
 * the serialized bytes differ from an exact warm-up's, and a
 * snapshot written with --sample should be restored with --sample.
 */
inline std::vector<std::uint8_t>
warmState(const BenchArgs &args, const std::string &key,
          const workload::WorkloadParams &wl,
          const workload::MachineConfig &ref_mc, int warmup,
          std::shared_ptr<const workload::BuiltProgram> prog =
              nullptr)
{
    const std::string suffix = key.empty() ? "" : "." + key;
    try {
        if (!args.fromSnapshot().empty()) {
            const std::string path = args.fromSnapshot() + suffix;
            auto bytes = snapshot::readFile(path);
            workload::checkSnapshotCompatible(bytes, wl, ref_mc);
            // Verify payload checksums once here; the per-arm
            // restores below then treat the buffer as trusted.
            snapshot::Deserializer(bytes.data(), bytes.size())
                .verifyAllSections();
            std::fprintf(stderr,
                         "snapshot: warm state restored from %s "
                         "(%zu bytes)\n",
                         path.c_str(), bytes.size());
            return bytes;
        }
        std::optional<workload::Workbench> wb;
        if (prog)
            wb.emplace(wl, ref_mc, std::move(prog));
        else
            wb.emplace(wl, ref_mc);
        wb->setSampling(args.sample());
        wb->warmup(static_cast<std::uint32_t>(warmup));
        auto bytes = workload::snapshotWorkbench(*wb);
        if (!args.snapshotAfter().empty()) {
            const std::string path = args.snapshotAfter() + suffix;
            snapshot::writeFile(path, bytes);
            std::fprintf(stderr,
                         "snapshot: warm state written to %s "
                         "(%zu bytes)\n",
                         path.c_str(), bytes.size());
        }
        return bytes;
    } catch (const snapshot::SnapshotError &e) {
        std::fprintf(stderr, "%s: %s\n", args.tool().c_str(),
                     e.what());
        std::exit(1);
    }
}

/**
 * Run one sweep arm from shared warm-state bytes: rebuild a
 * Workbench on the reference machine, restore the snapshot into it,
 * then reconfigure to the arm's machine (timing scalars and a fresh
 * cold skip unit; see Workbench::reconfigure). Thread-safe against
 * concurrent arms — the byte buffer is only read.
 */
inline ArmResult
runArmFromState(const std::vector<std::uint8_t> &state,
                const workload::WorkloadParams &wl,
                const workload::MachineConfig &ref_mc,
                const workload::MachineConfig &arm_mc, int requests,
                const sim::SampleParams &sp = {},
                std::shared_ptr<const workload::BuiltProgram> prog =
                    nullptr)
{
    if (!prog)
        prog = std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    // for_restore: the restore below replaces every address-space
    // page, so the construction skips seeding them.
    std::optional<workload::Workbench> wb;
    wb.emplace(wl, ref_mc, std::move(prog), /*for_restore=*/true);
    // Trusted: warmState either serialized these bytes in-process
    // or verified the file's checksums once up front.
    workload::restoreWorkbench(*wb, state.data(), state.size(),
                               /*trusted=*/true);
    wb->reconfigure(arm_mc);
    wb->setSampling(sp);
    return measureArm(*wb, requests);
}

/**
 * Execute a bench's independent jobs on the shared runner,
 * honouring --jobs. Results come back in submission order;
 * accumulate tables/JSON from them serially afterwards.
 */
template <typename R>
inline std::vector<R>
runJobs(const BenchArgs &args,
        std::vector<std::function<R()>> work)
{
    sim::JobRunner runner(args.jobs());
    return runner.run(std::move(work));
}

/**
 * Append the sampled-mode provenance tags (`sampled=1` plus the
 * W:D:F spec) to a run's context when --sample is active, and the
 * `bind_policy` tag when --bind-policy selects a non-default loader
 * arm — so a dlsim-metrics-v1 document always distinguishes
 * extrapolated numbers from exact ones and records which software
 * baseline produced them.
 */
inline std::vector<std::pair<std::string, std::string>>
withSampleContext(
    const BenchArgs &args,
    std::vector<std::pair<std::string, std::string>> context)
{
    if (args.sample().enabled) {
        context.emplace_back("sampled", "1");
        context.emplace_back("sample", args.sample().spec());
    }
    if (args.bindPolicy() != linker::BindPolicy::Lazy)
        context.emplace_back(
            "bind_policy",
            linker::bindPolicyName(args.bindPolicy()));
    return context;
}

/**
 * `--json-out <path>` handling shared by every bench binary.
 *
 * Runs are collected unconditionally (snapshots are cheap relative
 * to simulation) but the document is only written when the flag was
 * given. All JsonOut messages go to stderr, so the human-readable
 * stdout tables are byte-identical with or without the flag.
 */
class JsonOut
{
  public:
    JsonOut(const char *tool, const BenchArgs &args)
        : doc_(tool), path_(args.jsonOut())
    {
    }

    bool enabled() const { return !path_.empty(); }

    /** Record one measured arm under `name`. */
    void
    add(const std::string &name, const ArmResult &result,
        std::vector<std::pair<std::string, std::string>> context =
            {})
    {
        auto &run = doc_.addRun(name);
        run.context = std::move(context);
        run.registry = result.registry;
    }

    /** Record a run filled by the caller (non-runArm benches). */
    stats::MetricsRun &
    addRun(const std::string &name)
    {
        return doc_.addRun(name);
    }

    /**
     * Write the document if --json-out was given.
     * @return False on I/O failure (diagnostic on stderr).
     */
    bool
    write() const
    {
        if (path_.empty())
            return true;
        std::string error;
        if (!doc_.writeFile(path_, &error)) {
            std::fprintf(stderr, "json-out: %s\n", error.c_str());
            return false;
        }
        std::fprintf(stderr, "json-out: wrote %s\n", path_.c_str());
        return true;
    }

  private:
    stats::MetricsDocument doc_;
    std::string path_;
};

/** Convenience: base-machine arm. */
inline workload::MachineConfig
baseMachine()
{
    return workload::MachineConfig{};
}

/** Convenience: paper-default enhanced arm (256-entry ABTB). */
inline workload::MachineConfig
enhancedMachine()
{
    workload::MachineConfig mc;
    mc.enhanced = true;
    return mc;
}

/**
 * Convenience: base-machine arm under the bench's --bind-policy and
 * --blocks. Every bench builds its machines through these overloads,
 * so its whole grid runs under the selected loader arm (sweeps can
 * be re-run with `--bind-policy stable|demand|now` as alternative
 * software baselines) and the selected dispatch engine.
 */
inline workload::MachineConfig
baseMachine(const BenchArgs &args)
{
    workload::MachineConfig mc;
    mc.bindPolicy = args.bindPolicy();
    mc.core.blockDispatch = args.blocks();
    return mc;
}

/** Convenience: enhanced arm under the bench's --bind-policy and
 *  --blocks. */
inline workload::MachineConfig
enhancedMachine(const BenchArgs &args)
{
    workload::MachineConfig mc = baseMachine(args);
    mc.enhanced = true;
    return mc;
}

/** Print the standard bench banner. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("================================================"
                "===============\n");
    std::printf("dlsim reproduction: %s\n", what);
    std::printf("paper reference: %s\n", paper_ref);
    std::printf("================================================"
                "===============\n\n");
}

} // namespace dlsim::bench

#endif // DLSIM_BENCH_COMMON_HH
