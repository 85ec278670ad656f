#include "os/server.hh"

#include <cassert>
#include <cstring>

#include "snapshot/format.hh"
#include "snapshot/serializer.hh"
#include "stats/rng.hh"
#include "workload/program.hh"

namespace dlsim::os
{

namespace
{

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof v);
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

} // namespace

/**
 * One client: open a persistent connection, then for each of its
 * requests send a 32-byte record (tenant, work, seed, reqid), read
 * the 32-byte response, and record the round-trip latency.
 */
class ServerClient : public Thread
{
  public:
    ServerClient(Server &srv, std::uint32_t index,
                 std::uint64_t requests)
        : srv_(srv),
          rng_(srv.params().seed * 0x9e3779b9u + index),
          index_(index), remaining_(requests)
    {
    }

    void step(Kernel &k) override
    {
        for (;;) {
            switch (st_) {
              case St::Connect: {
                if (remaining_ == 0) {
                    st_ = St::Done;
                    continue;
                }
                const long r = k.connect(Server::Port);
                if (r == Kernel::WouldBlock)
                    return;
                assert(r >= 0);
                conn_ = static_cast<std::int32_t>(r);
                prepareRequest(k);
                st_ = St::Send;
                continue;
              }
              case St::Send: {
                while (pos_ < Server::RecordBytes) {
                    const long w = k.connWrite(
                        conn_, ConnSide::Client, buf_ + pos_,
                        Server::RecordBytes - pos_);
                    if (w == Kernel::WouldBlock)
                        return;
                    assert(w > 0);
                    pos_ += static_cast<std::size_t>(w);
                }
                pos_ = 0;
                st_ = St::Recv;
                continue;
              }
              case St::Recv: {
                while (pos_ < Server::RecordBytes) {
                    const long r = k.connRead(
                        conn_, ConnSide::Client, buf_ + pos_,
                        Server::RecordBytes - pos_);
                    if (r == Kernel::WouldBlock)
                        return;
                    if (r == 0) { // Server hung up on us.
                        st_ = St::Done;
                        break;
                    }
                    pos_ += static_cast<std::size_t>(r);
                }
                if (st_ == St::Done)
                    continue;
                srv_.latency_.add(static_cast<double>(
                    k.now() - sendStamp_));
                --remaining_;
                if (remaining_ == 0) {
                    st_ = St::Done;
                } else {
                    prepareRequest(k);
                    st_ = St::Send;
                }
                continue;
              }
              case St::Done: {
                if (conn_ >= 0)
                    k.connShutdown(conn_, ConnSide::Client);
                srv_.noteClientDone(k);
                k.exitThread();
                return;
              }
            }
        }
    }

    /**
     * Rebase this client onto a measurement shard: an independent
     * request stream (the shard index perturbs the seed) and a
     * fresh request budget. The protocol state machine is left
     * alone — an in-flight request completes under the new budget.
     */
    void resetMeasurement(std::uint32_t shard,
                          std::uint64_t requests)
    {
        assert(st_ != St::Done);
        rng_ = stats::Rng(srv_.params().seed * 0x9e3779b9u +
                          index_ +
                          static_cast<std::uint64_t>(shard) *
                              0x9e3779b97f4a7c15ull);
        remaining_ = requests;
    }

    void save(snapshot::Serializer &s) const override
    {
        s.beginStruct("client");
        s.u64(remaining_);
        s.u8(static_cast<std::uint8_t>(st_));
        s.i64(conn_);
        s.bytes(buf_, Server::RecordBytes);
        s.u64(pos_);
        s.u64(sendStamp_);
        s.u32(seq_);
        s.endStruct();
        rng_.save(s);
    }

    void load(snapshot::Deserializer &d) override
    {
        d.enterStruct("client");
        remaining_ = d.u64();
        st_ = static_cast<St>(d.u8());
        conn_ = static_cast<std::int32_t>(d.i64());
        d.bytes(buf_, Server::RecordBytes);
        pos_ = d.u64();
        sendStamp_ = d.u64();
        seq_ = d.u32();
        d.leaveStruct();
        rng_.load(d);
    }

  private:
    friend class Server;
    enum class St
    {
        Connect,
        Send,
        Recv,
        Done,
    };

    void prepareRequest(Kernel &k)
    {
        const std::uint64_t tenant =
            rng_.nextBelow(srv_.params().tenants);
        putU64(buf_ + 0, tenant);
        putU64(buf_ + 8, srv_.params().workPerRequest);
        putU64(buf_ + 16, rng_.next() | 1);
        putU64(buf_ + 24,
               (static_cast<std::uint64_t>(index_) << 32) | seq_++);
        pos_ = 0;
        sendStamp_ = k.now();
    }

    Server &srv_;
    stats::Rng rng_;
    std::uint32_t index_;
    std::uint64_t remaining_;
    St st_ = St::Connect;
    std::int32_t conn_ = -1;
    std::uint8_t buf_[Server::RecordBytes] = {};
    std::size_t pos_ = 0;
    std::uint64_t sendStamp_ = 0;
    std::uint32_t seq_ = 0;
};

/**
 * One worker: accept a connection, then loop read-request →
 * ASID-switch to the tenant → call its handler through the dispatch
 * PLT → write-response, until the client hangs up; then accept the
 * next connection. Exits once the server is draining.
 */
class ServerWorker : public Thread
{
  public:
    explicit ServerWorker(Server &srv) : srv_(srv) {}

    void step(Kernel &k) override
    {
        for (;;) {
            switch (st_) {
              case St::Accept: {
                if (srv_.draining()) {
                    k.exitThread();
                    return;
                }
                const long r = k.accept(Server::Port);
                if (r == Kernel::WouldBlock)
                    return;
                conn_ = static_cast<std::int32_t>(r);
                pos_ = 0;
                st_ = St::Read;
                continue;
              }
              case St::Read: {
                while (pos_ < Server::RecordBytes) {
                    const long r = k.connRead(
                        conn_, ConnSide::Server, buf_ + pos_,
                        Server::RecordBytes - pos_);
                    if (r == Kernel::WouldBlock)
                        return;
                    if (r == 0) { // Client done with this conn.
                        k.connShutdown(conn_, ConnSide::Server);
                        conn_ = -1;
                        st_ = St::Accept;
                        break;
                    }
                    pos_ += static_cast<std::size_t>(r);
                }
                if (st_ == St::Accept)
                    continue;
                tenant_ = static_cast<std::uint32_t>(
                    getU64(buf_ + 0));
                reqId_ = getU64(buf_ + 24);
                srv_.beginDispatch(k, tenant_);
                k.call(srv_.dispatchAddress(tenant_),
                       getU64(buf_ + 8), getU64(buf_ + 16));
                st_ = St::InCall;
                return;
              }
              case St::InCall:
                // Waiting for onCallDone; nothing to step.
                return;
              case St::Write: {
                while (pos_ < Server::RecordBytes) {
                    const long w = k.connWrite(
                        conn_, ConnSide::Server, buf_ + pos_,
                        Server::RecordBytes - pos_);
                    if (w == Kernel::WouldBlock)
                        return;
                    assert(w > 0);
                    pos_ += static_cast<std::size_t>(w);
                }
                pos_ = 0;
                st_ = St::Read;
                continue;
              }
            }
        }
    }

    void onCallDone(Kernel &k, std::uint64_t retval) override
    {
        assert(st_ == St::InCall);
        putU64(buf_ + 0, retval);
        putU64(buf_ + 8, tenant_);
        putU64(buf_ + 16, 0x52455350ull); // "RESP"
        putU64(buf_ + 24, reqId_);
        pos_ = 0;
        st_ = St::Write;
        srv_.endDispatch(k, tenant_);
    }

    void save(snapshot::Serializer &s) const override
    {
        s.beginStruct("worker");
        s.u8(static_cast<std::uint8_t>(st_));
        s.i64(conn_);
        s.bytes(buf_, Server::RecordBytes);
        s.u64(pos_);
        s.u32(tenant_);
        s.u64(reqId_);
        s.endStruct();
    }

    void load(snapshot::Deserializer &d) override
    {
        d.enterStruct("worker");
        st_ = static_cast<St>(d.u8());
        conn_ = static_cast<std::int32_t>(d.i64());
        d.bytes(buf_, Server::RecordBytes);
        pos_ = d.u64();
        tenant_ = d.u32();
        reqId_ = d.u64();
        d.leaveStruct();
    }

  private:
    enum class St
    {
        Accept,
        Read,
        InCall,
        Write,
    };

    Server &srv_;
    St st_ = St::Accept;
    std::int32_t conn_ = -1;
    std::uint8_t buf_[Server::RecordBytes] = {};
    std::size_t pos_ = 0;
    std::uint32_t tenant_ = 0;
    std::uint64_t reqId_ = 0;
};

Server::Server(workload::Workbench &wb,
               const sim::MultiCoreParams &mc_params,
               const ServerParams &params)
    : wb_(wb), params_(params),
      sys_(mc_params, wb.image(), wb.linker(),
           wb.loader().stackTop(), wb.awaitingRestore()),
      kernel_(params.kernel, sys_, wb.image(), wb.linker())
{
    assert(params_.workers >= 1 && params_.clients >= 1 &&
           params_.tenants >= 1);

    gen_.assign(params_.tenants, 0);
    inFlight_.assign(params_.tenants, 0);
    churnPending_.assign(params_.tenants, false);

    // Load generation 0 of every tenant, then the dispatch veneer
    // whose PLT imports bind lazily into whichever generation is
    // current at call time.
    std::vector<std::string> handler_syms;
    for (std::uint32_t t = 0; t < params_.tenants; ++t) {
        wb_.loader().dlopen(
            wb_.image(),
            workload::buildTenantModule(tenantSpec(t, 0)));
        handler_syms.push_back("t" + std::to_string(t) +
                               "_handle");
    }
    wb_.loader().dlopen(wb_.image(),
                        workload::buildDispatchModule(
                            "dispatch_mod", handler_syms));
    for (std::uint32_t t = 0; t < params_.tenants; ++t)
        dispatchAddrs_.push_back(wb_.image().symbolAddress(
            "dispatch" + std::to_string(t)));

    kernel_.listen(Port, params_.backlog);

    // Workers first (lower tids drain the accept queue eagerly).
    // Worker stacks are mapped eagerly so a lockstep checker
    // attached after construction sees every mapping when it forks
    // its reference memory.
    for (std::uint32_t w = 0; w < params_.workers; ++w)
        kernel_.spawn(std::make_unique<ServerWorker>(*this),
                      "worker" + std::to_string(w), 0,
                      /*eager_stack=*/true);
    const std::uint64_t per = params_.requests / params_.clients;
    const std::uint64_t extra = params_.requests % params_.clients;
    for (std::uint32_t c = 0; c < params_.clients; ++c) {
        auto body = std::make_unique<ServerClient>(
            *this, c, per + (c < extra ? 1 : 0));
        clientBodies_.push_back(body.get());
        kernel_.spawn(std::move(body),
                      "client" + std::to_string(c));
    }
}

Server::Server(workload::Workbench &wb,
               const sim::MultiCoreParams &mc_params,
               const ServerParams &params,
               const std::uint8_t *data, std::size_t size,
               bool trusted)
    : Server(wb, mc_params, params)
{
    snapshot::Deserializer d(data, size, !trusted);
    if (d.fingerprint() != snapshotFingerprint()) {
        throw snapshot::SnapshotError(
            "server snapshot was taken with different workload/"
            "machine/server parameters (fingerprint mismatch)");
    }

    // Replay the warm run's churn history so the module table has
    // the exact shape Image::load validates against. Tenant modules
    // are size-invariant across generations (only immediates vary)
    // and the loader's first-fit reuse gives a replay the identical
    // layout; no broadcasts or stats — the snapshot carries those.
    // On a for_restore Workbench the replay is layout only
    // (LoaderOptions::skeletonForRestore): relocation, binding and
    // slot indexing would all be overwritten by the loads below.
    d.enterSection("os_meta");
    d.enterStruct("os_meta");
    const std::uint32_t churns = d.u32();
    for (std::uint32_t i = 0; i < churns; ++i) {
        const std::uint32_t t = d.u32();
        const std::string old_name =
            tenantModuleName(t, gen_[t]);
        ++gen_[t];
        wb_.loader().dlclose(wb_.image(), old_name,
                             [](isa::Addr) {});
        wb_.loader().dlopen(wb_.image(),
                            workload::buildTenantModule(
                                tenantSpec(t, gen_[t])));
        churnHistory_.push_back(t);
    }
    d.leaveStruct();
    d.leaveSection();

    wb_.load(d);
    d.enterSection("multicore");
    sys_.load(d);
    d.leaveSection();
    d.enterSection("kernel");
    kernel_.load(d);
    d.leaveSection();

    d.enterSection("server");
    d.enterStruct("server");
    for (auto &g : gen_)
        d.checkU32(g, "tenant generation");
    for (auto &f : inFlight_)
        f = d.u32();
    for (std::uint32_t t = 0; t < params_.tenants; ++t)
        churnPending_[t] = d.boolean();
    nextChurnTenant_ = d.u32();
    clientsDone_ = d.u32();
    stats_.requestsServed = d.u64();
    stats_.tenantChurns = d.u64();
    stats_.gotResets = d.u64();
    stats_.deferredChurns = d.u64();
    d.leaveStruct();
    latency_.load(d);
    d.leaveSection();

    resumed_ = true;
}

Server::~Server() = default;

std::uint64_t
Server::snapshotFingerprint() const
{
    snapshot::Fingerprint fp;
    fp.mix(workload::configFingerprint(wb_.params(),
                                       wb_.machine()));
    const auto &mp = sys_.params();
    fp.mix(mp.numCores);
    fp.mix(mp.stackBytes);
    fp.mix(mp.cacheCoherence);
    fp.mix(params_.workers);
    fp.mix(params_.clients);
    fp.mix(params_.tenants);
    fp.mix(params_.churnPeriod);
    fp.mix(params_.backlog);
    fp.mix(params_.workPerRequest);
    fp.mix(params_.seed);
    fp.mix(params_.kernel.quantum);
    fp.mix(params_.kernel.preempt);
    fp.mix(params_.kernel.kernelStepInsts);
    fp.mix(params_.kernel.kernelStepCycles);
    fp.mix(static_cast<std::uint64_t>(
        params_.kernel.pipeCapacity));
    return fp.value();
}

std::vector<std::uint8_t>
Server::snapshot() const
{
    assert(clientsDone_ == 0 &&
           "snapshot a warm server before any client runs dry");
    const auto save = [this](snapshot::Serializer &s) {
        s.beginSection("os_meta");
        s.beginStruct("os_meta");
        s.u32(static_cast<std::uint32_t>(churnHistory_.size()));
        for (const auto t : churnHistory_)
            s.u32(t);
        s.endStruct();
        s.endSection();

        wb_.save(s);
        s.beginSection("multicore");
        sys_.save(s);
        s.endSection();
        s.beginSection("kernel");
        kernel_.save(s);
        s.endSection();

        s.beginSection("server");
        s.beginStruct("server");
        for (const auto g : gen_)
            s.u32(g);
        for (const auto f : inFlight_)
            s.u32(f);
        for (std::uint32_t t = 0; t < params_.tenants; ++t)
            s.boolean(static_cast<bool>(churnPending_[t]));
        s.u32(nextChurnTenant_);
        s.u32(clientsDone_);
        s.u64(stats_.requestsServed);
        s.u64(stats_.tenantChurns);
        s.u64(stats_.gotResets);
        s.u64(stats_.deferredChurns);
        s.endStruct();
        latency_.save(s);
        s.endSection();
    };
    return snapshot::serialize(snapshotFingerprint(), save);
}

void
Server::resetMeasurement(std::uint32_t shard,
                         std::uint64_t requests)
{
    const std::uint64_t per = requests / params_.clients;
    const std::uint64_t extra = requests % params_.clients;
    for (std::uint32_t c = 0; c < clientBodies_.size(); ++c)
        clientBodies_[c]->resetMeasurement(
            shard, per + (c < extra ? 1 : 0));
    params_.requests = requests;
    measuring_ = true;
    stats_ = ServerStats{};
    kernel_.clearStats();
    sys_.clearStats();
    latency_.clear();
    if (sampler_ != nullptr)
        sampler_->clearStats();
}

void
Server::reconfigure(const workload::MachineConfig &mc)
{
    wb_.reconfigure(mc);
    sys_.reconfigure(workload::makeCoreParams(mc));
}

void
Server::setSampling(const sim::SampleParams &params)
{
    if (!params.enabled) {
        kernel_.setSampler(nullptr);
        sampler_.reset();
        return;
    }
    sampler_ = std::make_unique<sim::Sampler>(
        sys_, wb_.image(), wb_.linker(), params);
    kernel_.setSampler(sampler_.get());
}

std::string
Server::tenantModuleName(std::uint32_t t, std::uint32_t gen) const
{
    return "tenant" + std::to_string(t) + "_g" +
           std::to_string(gen);
}

workload::TenantSpec
Server::tenantSpec(std::uint32_t t, std::uint32_t gen) const
{
    workload::TenantSpec spec;
    spec.moduleName = tenantModuleName(t, gen);
    spec.handlerSym = "t" + std::to_string(t) + "_handle";
    spec.seed = params_.seed * 1000003u + t * 257u + gen;
    // Each generation calls a different pair of base-library
    // symbols, so churn also reshuffles cross-library binding.
    const auto &syms = wb_.program().calledSymbols;
    if (!syms.empty()) {
        spec.externCalls.push_back(
            syms[(t * 7u + gen * 13u) % syms.size()]);
        spec.externCalls.push_back(
            syms[(t * 11u + gen * 17u + 3u) % syms.size()]);
    }
    return spec;
}

void
Server::beginDispatch(Kernel &k, std::uint32_t tenant)
{
    if (tenant >= params_.tenants)
        throw OsError("request names unknown tenant " +
                      std::to_string(tenant));
    k.setAsid(static_cast<std::uint16_t>(1 + tenant));
    ++inFlight_[tenant];
}

void
Server::endDispatch(Kernel &k, std::uint32_t tenant)
{
    assert(inFlight_[tenant] > 0);
    --inFlight_[tenant];
    ++stats_.requestsServed;

    if (params_.churnPeriod != 0 &&
        stats_.requestsServed % params_.churnPeriod == 0) {
        requestChurn(nextChurnTenant_);
        nextChurnTenant_ =
            (nextChurnTenant_ + 1) % params_.tenants;
    }
    // A churn deferred while this tenant was busy can fire as soon
    // as its last in-flight call retires.
    if (churnPending_[tenant] && inFlight_[tenant] == 0) {
        churnPending_[tenant] = false;
        churnTenant(tenant);
    }
    (void)k;
}

void
Server::requestChurn(std::uint32_t tenant)
{
    assert(tenant < params_.tenants);
    if (inFlight_[tenant] == 0) {
        churnTenant(tenant);
    } else if (!churnPending_[tenant]) {
        churnPending_[tenant] = true;
        ++stats_.deferredChurns;
    }
}

void
Server::churnTenant(std::uint32_t t)
{
    const std::string old_name = tenantModuleName(t, gen_[t]);
    ++gen_[t];
    // Every GOT entry the unload resets is coherence traffic all
    // skip units must observe (paper §3.2).
    wb_.loader().dlclose(wb_.image(), old_name,
                         [this](isa::Addr addr) {
                             sys_.broadcastGotWrite(addr);
                             ++stats_.gotResets;
                         });
    // The replacement generation reuses the freed region, so its
    // GOT initialization lands on addresses stale ABTB entries for
    // the old generation's own trampolines still guard — those
    // ld.so stores are coherence traffic too.
    wb_.loader().dlopen(
        wb_.image(),
        workload::buildTenantModule(tenantSpec(t, gen_[t])),
        [this](isa::Addr addr) { sys_.broadcastGotWrite(addr); });
    // §3.4 software contract: on the explicit-invalidation machine
    // the coherence broadcasts above never clear the ABTB, so ld.so
    // ends any dl operation that rewrote GOT entries (dlclose slot
    // resets, dlopen-time binding, the stable-policy rebind sweep)
    // with an AbtbFlush on every hart.
    sys_.explicitFlushAll();
    ++stats_.tenantChurns;
    churnHistory_.push_back(t);
    resyncObservers();
}

void
Server::resyncObservers()
{
    // The reference machines fork memory lazily; a churn remapped
    // module pages and rewrote GOT slots behind their backs.
    for (std::uint32_t i = 0; i < sys_.numCores(); ++i) {
        cpu::Core &c = sys_.core(i);
        if (c.observer() != nullptr)
            c.observer()->onFastForward(c.state());
    }
}

void
Server::noteClientDone(Kernel &k)
{
    ++clientsDone_;
    if (draining())
        k.wakeAcceptors(Port);
}

void
Server::run()
{
    kernel_.run();
    // A resumed or measurement-reset server carries requests that
    // were in flight at the cut: their dispatch was counted before
    // it, their completion after, so the measured count lands a
    // deterministic handful off the nominal total.
    assert(resumed_ || measuring_ ||
           stats_.requestsServed == params_.requests);
}

bool
Server::runRounds(std::uint64_t rounds)
{
    return kernel_.runRounds(rounds);
}

void
Server::reportMetrics(stats::MetricsRegistry &reg,
                      const std::string &prefix) const
{
    kernel_.reportMetrics(reg, prefix);
    reg.counter(prefix + ".server.requests_served",
                stats_.requestsServed);
    reg.counter(prefix + ".server.tenant_churns",
                stats_.tenantChurns);
    reg.counter(prefix + ".server.got_resets", stats_.gotResets);
    reg.counter(prefix + ".server.deferred_churns",
                stats_.deferredChurns);
    reg.gauge(prefix + ".server.tenants", params_.tenants);
    reg.gauge(prefix + ".server.workers", params_.workers);
    reg.gauge(prefix + ".server.clients", params_.clients);
    // Always emitted (0 when idle) so the metric key set is
    // independent of traffic — the golden key test relies on that.
    const bool have = latency_.count() > 0;
    reg.gauge(prefix + ".server.latency_p50_cycles",
              have ? latency_.percentile(50.0) : 0.0);
    reg.gauge(prefix + ".server.latency_p99_cycles",
              have ? latency_.percentile(99.0) : 0.0);
    // Sampled runs only — exact-mode documents (and the metrics
    // golden) keep their key set.
    if (sampler_ != nullptr)
        sampler_->reportMetrics(reg, prefix);
}

} // namespace dlsim::os
