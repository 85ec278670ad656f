/**
 * @file
 * Multi-tenant request server built on os::Kernel — the top layer
 * of the OS-like subsystem.
 *
 * Topology: `clients` client threads connect to one listening port
 * over kernel sockets and send fixed 32-byte request records;
 * `workers` worker threads accept, read, parse, switch to the
 * target tenant's address space (ASID context switch, §3.3), call
 * the tenant's handler through the dispatch module's PLT (simulated
 * execution in preemptible quanta), and write a 32-byte response.
 * Clients measure request latency in virtual cycles.
 *
 * Tenants are plugin libraries churned at runtime: every
 * `churnPeriod` served requests the next tenant (round-robin) is
 * dlclosed and reloaded as a new generation. The dlclose resets the
 * dispatch module's GOT entries — each reset is broadcast to every
 * core's trampoline-skip unit as coherence traffic (§3.2) — and the
 * next request for that tenant lazily re-binds to the new
 * generation. A tenant is only churned when quiescent (no in-flight
 * call into it); requests arriving mid-churn are unaffected because
 * the dispatch veneer itself is never unloaded.
 *
 * Fully deterministic: byte-identical metrics for any host
 * parallelism and block dispatch on or off.
 */

#ifndef DLSIM_OS_SERVER_HH
#define DLSIM_OS_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "os/sched.hh"
#include "sim/multicore.hh"
#include "sim/sampled.hh"
#include "stats/cdf.hh"
#include "stats/metrics.hh"
#include "workload/engine.hh"
#include "workload/tenant.hh"

namespace dlsim::os
{

class ServerClient;
class ServerWorker;

/** Server topology and traffic configuration. */
struct ServerParams
{
    std::uint32_t workers = 4;
    std::uint32_t clients = 8;
    std::uint32_t tenants = 2;
    /** Total requests across all clients. */
    std::uint64_t requests = 1000;
    /** Served requests between tenant reloads; 0 = no churn. */
    std::uint64_t churnPeriod = 0;
    /** Listener accept backlog (connect blocks when full). */
    std::uint32_t backlog = 4;
    /** Tenant handler loop iterations per request. */
    std::uint32_t workPerRequest = 6;
    std::uint64_t seed = 1;
    KernelParams kernel;
};

/** Server-level activity counters. */
struct ServerStats
{
    std::uint64_t requestsServed = 0;
    std::uint64_t tenantChurns = 0;
    /** GOT entries reset by dlclose across all churns. */
    std::uint64_t gotResets = 0;
    /** Churns deferred until the tenant went quiescent. */
    std::uint64_t deferredChurns = 0;
};

/**
 * The server: owns the MultiCoreSystem and Kernel, loads the
 * tenant and dispatch modules into the workbench's image, and
 * spawns the client/worker threads.
 */
class Server
{
  public:
    Server(workload::Workbench &wb,
           const sim::MultiCoreParams &mc_params,
           const ServerParams &params);

    /**
     * Restore a server from a snapshot() buffer. `wb` should be a
     * for_restore Workbench built from the same WorkloadParams and
     * MachineConfig the warm server ran on; mc_params and params
     * must equal the warm server's (the combined fingerprint is
     * checked). Construction replays the warm run's tenant-churn
     * history (so the module table's shape matches the saved image)
     * and then loads workbench, multicore, kernel, and server state
     * wholesale — the restored server continues exactly where the
     * warm one stopped.
     *
     * @param trusted Skip per-section payload checksums; see
     *        restoreWorkbench().
     */
    Server(workload::Workbench &wb,
           const sim::MultiCoreParams &mc_params,
           const ServerParams &params, const std::uint8_t *data,
           std::size_t size, bool trusted = false);

    ~Server();

    /** Serve until every client finished. Throws OsError on
     *  deadlock. */
    void run();

    /** Bounded variant for incremental drivers (fuzzing).
     *  @return True when all threads have exited. */
    bool runRounds(std::uint64_t rounds);

    /** Force-churn a tenant now if quiescent, else defer (fuzz
     *  event injection). */
    void requestChurn(std::uint32_t tenant);

    Kernel &kernel() { return kernel_; }
    sim::MultiCoreSystem &system() { return sys_; }
    const ServerStats &stats() const { return stats_; }
    /** Per-request latency in virtual cycles. */
    const stats::SampleSet &latency() const { return latency_; }
    const ServerParams &params() const { return params_; }
    std::uint32_t tenantGeneration(std::uint32_t t) const
    {
        return gen_[t];
    }

    /**
     * Register `<prefix>.server.*` plus the kernel's scheduler,
     * pipe, and socket counters (pass "dlsim.os"). Latency
     * percentiles are reported as gauges in virtual cycles. A
     * sampling server additionally emits `<prefix>.sampled.*`.
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Checkpoint the warmed server: churn history, workbench
     * (image/linker/memory/pages), every core, the kernel
     * (including thread bodies), and the server's own request
     * accounting. Only legal between scheduler rounds (which is
     * everywhere a caller can observe the server) and before any
     * client has finished — a fan-out warms with enough request
     * headroom that no client runs dry.
     */
    std::vector<std::uint8_t> snapshot() const;

    /**
     * Start a measurement run from the current (warm or restored)
     * state: reseed every client's request stream with `shard`,
     * give each its share of `requests` fresh requests, and zero
     * the kernel/system/server counters and the latency set. The
     * virtual clock keeps running (latency samples are deltas).
     * In-flight requests complete and are counted — deterministic
     * and identical for every arm restored from one snapshot.
     */
    void resetMeasurement(std::uint32_t shard,
                          std::uint64_t requests);

    /**
     * Re-target the (typically just-restored) server at a sweep
     * arm: Workbench::reconfigure plus the same timing/skip-unit/
     * block-dispatch overrides on every system core. The enhanced
     * arm starts with a cold ABTB, matching the paper's
     * measurement methodology.
     */
    void reconfigure(const workload::MachineConfig &mc);

    /**
     * Attach sampled execution to the serving path (enabled =
     * false detaches). Detail windows run on the timing cores;
     * fast-forward runs functionally with kernel logic exact.
     */
    void setSampling(const sim::SampleParams &params);
    const sim::Sampler *sampler() const
    {
        return sampler_.get();
    }

  private:
    friend class ServerClient;
    friend class ServerWorker;

    static constexpr std::int32_t Port = 7;
    /** Wire format: four u64 fields, little-endian. */
    static constexpr std::size_t RecordBytes = 32;

    std::string tenantModuleName(std::uint32_t t,
                                 std::uint32_t gen) const;
    workload::TenantSpec tenantSpec(std::uint32_t t,
                                    std::uint32_t gen) const;
    isa::Addr dispatchAddress(std::uint32_t t) const
    {
        return dispatchAddrs_[t];
    }

    /** Request accounting from the worker path. */
    void beginDispatch(Kernel &k, std::uint32_t tenant);
    void endDispatch(Kernel &k, std::uint32_t tenant);
    void noteClientDone(Kernel &k);
    bool draining() const { return clientsDone_ >= params_.clients; }

    /** dlclose generation g, dlopen g+1, resync observers. */
    void churnTenant(std::uint32_t t);
    void resyncObservers();

    /** Fingerprint binding a snapshot to (workload, machine,
     *  multicore, server) parameters. */
    std::uint64_t snapshotFingerprint() const;

    workload::Workbench &wb_;
    ServerParams params_;
    sim::MultiCoreSystem sys_;
    Kernel kernel_;

    std::vector<std::uint32_t> gen_;
    std::vector<std::uint32_t> inFlight_;
    std::vector<bool> churnPending_;
    std::vector<isa::Addr> dispatchAddrs_;
    std::uint32_t nextChurnTenant_ = 0;
    std::uint32_t clientsDone_ = 0;

    /** Tenant ids in churn order since construction — replayed by
     *  the restore constructor to rebuild the module table. */
    std::vector<std::uint32_t> churnHistory_;
    /** Restored from a snapshot (run() skips the served-everything
     *  assert: in-flight warm requests shift the count). */
    bool resumed_ = false;
    /** resetMeasurement() rebased the request budgets mid-stream
     *  (same assert relaxation as resumed_). */
    bool measuring_ = false;

    /** Non-owning views of the kernel-owned thread bodies. */
    std::vector<ServerClient *> clientBodies_;

    std::unique_ptr<sim::Sampler> sampler_;

    ServerStats stats_;
    stats::SampleSet latency_;
};

} // namespace dlsim::os

#endif // DLSIM_OS_SERVER_HH
