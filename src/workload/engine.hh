/**
 * @file
 * Workbench: an assembled simulation — generated program, loader,
 * dynamic linker, and core — plus the request-driven measurement
 * loop the paper's evaluation uses (per-request latency, Fig. 6-8).
 *
 * A MachineConfig selects the base machine or the ABTB-enhanced
 * machine (and the loader/patcher variants of the paper's software
 * methodology). Base and enhanced runs built from the same
 * WorkloadParams execute the identical program with identical
 * request streams, so measured deltas are the mechanism's.
 */

#ifndef DLSIM_WORKLOAD_ENGINE_HH
#define DLSIM_WORKLOAD_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "linker/dynamic_linker.hh"
#include "linker/loader.hh"
#include "sim/sampled.hh"
#include "stats/rng.hh"
#include "workload/params.hh"
#include "workload/program.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::workload
{

/** Machine-side configuration of one experiment arm. */
struct MachineConfig
{
    /** Enable the trampoline-skip hardware. */
    bool enhanced = false;

    /** ABTB geometry (paper default: 256 entries, <1.5KB). */
    std::uint32_t abtbEntries = 256;
    std::uint32_t abtbAssoc = 4;
    std::uint32_t bloomBits = 65536;
    std::uint32_t bloomHashes = 6;
    bool explicitInvalidation = false;
    bool asidRetention = false;

    /** Trampoline flavour; Arm implies a pattern window of 2. */
    linker::PltStyle pltStyle = linker::PltStyle::X86;

    /** Loader behaviour: GOT binding / library loading policy
     *  (lazy, BIND_NOW, stable linking, demand-driven loading). */
    linker::BindPolicy bindPolicy = linker::BindPolicy::Lazy;
    bool aslr = false;
    bool nearLibraries = false;

    /** Profiling switches. */
    bool profileTrampolines = false;
    bool collectCallSiteTrace = false;

    /** Base core parameters (caches, predictor, penalties). */
    cpu::CoreParams core;
};

/** Build the CoreParams implied by a MachineConfig. */
cpu::CoreParams makeCoreParams(const MachineConfig &mc);

/**
 * FNV-1a fingerprint over every field of (WorkloadParams,
 * MachineConfig). Stored in a snapshot's header; a snapshot may
 * only be restored into a Workbench built from parameters with the
 * identical fingerprint.
 */
std::uint64_t configFingerprint(const WorkloadParams &wl,
                                const MachineConfig &mc);

/**
 * Fingerprint of only the *structural* machine parameters — the
 * ones that determine what simulated state contains (image layout,
 * cache/TLB/predictor geometry, profiling switches). Timing scalars
 * (issue width, penalties, latencies) and the skip-unit
 * configuration are excluded: a snapshot-based sweep may change
 * those per arm via Workbench::reconfigure.
 */
std::uint64_t structuralFingerprint(const MachineConfig &mc);

/** One measured request. */
struct RequestResult
{
    std::uint32_t kind = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
};

/** An assembled, runnable experiment arm. */
class Workbench
{
  public:
    Workbench(const WorkloadParams &wl, const MachineConfig &mc);

    /**
     * Build around an already-generated program. buildProgram() is
     * deterministic in the WorkloadParams, so sweep arms over the
     * same workload can share one immutable BuiltProgram instead of
     * regenerating it per task — the dominant constant cost of a
     * parallel grid cell. `program` must be non-null and built from
     * `wl`.
     *
     * @param for_restore The machine is about to be overwritten by
     *        restoreWorkbench: skip address-space content that the
     *        restore replaces wholesale (text-page materialisation,
     *        data-region seeding). Layout, slots, symbols, and the
     *        module table — the parts a restore keeps — are built
     *        identically. A for_restore Workbench that is never
     *        restored must not be run.
     */
    Workbench(const WorkloadParams &wl, const MachineConfig &mc,
              std::shared_ptr<const BuiltProgram> program,
              bool for_restore = false);

    ~Workbench();

    /** Run `requests` requests and discard results; clears stats. */
    void warmup(std::uint32_t requests);

    /** Run one request of a kind drawn from the configured mix. */
    RequestResult runRequest();

    /** Run one request of a specific kind. */
    RequestResult runRequest(std::uint32_t kind);

    /** @name Incremental requests (harness / snapshot hooks) @{ */
    /**
     * Draw the next request from the mix and set up the handler
     * call without running it (same RNG stream as runRequest()).
     * @return The drawn request kind.
     */
    std::uint32_t beginRequest();

    /** Set up a request of a specific kind without running it. */
    void beginRequest(std::uint32_t kind);

    /**
     * Advance the in-progress request by at most `max_insts`
     * retired instructions. @return True once it has returned.
     * Between steps a harness may inject events (external GOT
     * writes, context switches) or snapshot the workbench.
     */
    bool stepRequest(std::uint64_t max_insts);
    /** @} */

    /**
     * Attach (or detach) sampled execution. When attached,
     * runRequest()/warmup() alternate detailed sample windows and
     * functional fast-forward instead of timing every instruction;
     * request cycles become CPI extrapolations. The request stream
     * (RNG draws, kinds, work items) is identical to exact mode.
     * Passing params with enabled == false detaches.
     */
    void setSampling(const sim::SampleParams &params);
    bool sampling() const { return sampler_ != nullptr; }
    const sim::Sampler *sampler() const
    {
        return sampler_.get();
    }

    cpu::Core &core() { return *core_; }
    linker::Image &image() { return *image_; }
    linker::DynamicLinker &linker() { return *linker_; }
    linker::Loader &loader() { return *loader_; }
    const WorkloadParams &params() const { return wl_; }
    const MachineConfig &machine() const { return mc_; }
    const BuiltProgram &program() const { return *program_; }

    /** Handler entry address for a request kind. */
    isa::Addr handlerAddress(std::uint32_t kind) const
    {
        return handlerAddrs_.at(kind);
    }

    /** Distinct trampolines executed (needs profileTrampolines). */
    std::uint64_t distinctTrampolinesExecuted() const;

    /**
     * Register the whole arm's statistics under `prefix` ("dlsim"):
     * the core's structures plus workload-level facts such as the
     * distinct-trampoline census when profiling is on.
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Checkpoint the whole arm: request RNG, image (slots + module
     * state), linker counters, address space + backing pages, and
     * the core. Use snapshotWorkbench()/restoreWorkbench() for the
     * framed, fingerprinted byte-buffer form.
     */
    void save(snapshot::Serializer &s) const;
    void load(snapshot::Deserializer &d);

    /** Built for_restore and not yet load()ed: its state, caches
     *  included, is unset until the restore. Machines built over it
     *  to be restored alongside (os::Server's cores) skip the same
     *  zero-fill. */
    bool awaitingRestore() const { return awaitingRestore_; }

    /**
     * Re-target this (typically just-restored) arm at a sweep
     * configuration: timing scalars are overridden and the skip
     * unit is replaced with a cold one of the arm's geometry (or
     * removed). Structurally incompatible configs (different image
     * layout, cache geometry, profiling switches) throw
     * SnapshotError — a snapshot sweep can vary timing and the
     * mechanism under test, not the machine the state was warmed
     * on.
     */
    void reconfigure(const MachineConfig &mc);

  private:
    void seedDataRegions();

    WorkloadParams wl_;
    MachineConfig mc_;
    std::shared_ptr<const BuiltProgram> program_;
    std::unique_ptr<linker::Loader> loader_;
    std::unique_ptr<linker::Image> image_;
    std::unique_ptr<linker::DynamicLinker> linker_;
    std::unique_ptr<cpu::Core> core_;
    std::unique_ptr<sim::Sampler> sampler_;
    std::vector<isa::Addr> handlerAddrs_;
    stats::Rng reqRng_;
    std::unique_ptr<stats::DiscreteDistribution> mix_;
    bool awaitingRestore_;
};

/**
 * Serialize `wb` into a self-validating snapshot buffer (header,
 * fingerprint, per-structure CRCs). See docs/snapshots.md.
 */
std::vector<std::uint8_t> snapshotWorkbench(const Workbench &wb);

/**
 * Restore `wb` from a buffer produced by snapshotWorkbench. The
 * Workbench must have been built from the same (WorkloadParams,
 * MachineConfig); throws snapshot::SnapshotError on any magic,
 * version, CRC, fingerprint, or geometry mismatch — never loads
 * partial state.
 *
 * @param trusted Skip the per-section payload checksums. Only for
 *        buffers whose integrity the caller already owns: bytes
 *        serialized in-process this run, or a file verified once
 *        with Deserializer::verifyAllSections(). Sweep drivers
 *        restoring one warm state into every arm use this — the
 *        checksum pass otherwise dominates fan-out cost.
 */
void restoreWorkbench(Workbench &wb, const std::uint8_t *data,
                      std::size_t size, bool trusted = false);

/**
 * Cheaply validate that `bytes` is a well-formed snapshot whose
 * fingerprint matches (wl, mc); throws SnapshotError otherwise.
 */
void checkSnapshotCompatible(const std::vector<std::uint8_t> &bytes,
                             const WorkloadParams &wl,
                             const MachineConfig &mc);

} // namespace dlsim::workload

#endif // DLSIM_WORKLOAD_ENGINE_HH
