#include "os/sched.hh"

#include <algorithm>
#include <cassert>

#include "isa/registers.hh"
#include "linker/dynamic_linker.hh"
#include "linker/image.hh"
#include "sim/sampled.hh"
#include "snapshot/serializer.hh"

namespace dlsim::os
{

void
CallThread::step(Kernel &k)
{
    if (results_.size() >= calls_.size()) {
        k.exitThread();
        return;
    }
    const SimCall &c = calls_[results_.size()];
    k.call(c.fn, c.arg0, c.arg1, c.arg2);
}

void
CallThread::onCallDone(Kernel &k, std::uint64_t retval)
{
    (void)k;
    results_.push_back(retval);
}

void
CallThread::save(snapshot::Serializer &s) const
{
    s.beginStruct("call_thread");
    s.u32(static_cast<std::uint32_t>(results_.size()));
    for (const auto r : results_)
        s.u64(r);
    s.endStruct();
}

void
CallThread::load(snapshot::Deserializer &d)
{
    d.enterStruct("call_thread");
    results_.resize(d.count(8));
    for (auto &r : results_)
        r = d.u64();
    d.leaveStruct();
}

Kernel::Kernel(const KernelParams &params,
               sim::MultiCoreSystem &sys, linker::Image &image,
               linker::DynamicLinker &linker)
    : params_(params), sys_(sys), image_(image), linker_(linker)
{
    running_.assign(sys_.numCores(), NoTid);
    lastTid_.assign(sys_.numCores(), NoTid);
    coreAsid_.assign(sys_.numCores(), 0);
}

std::uint32_t
Kernel::spawn(std::unique_ptr<Thread> body, std::string name,
              std::uint16_t asid, bool eager_stack)
{
    const auto tid = static_cast<std::uint32_t>(tcbs_.size());
    tcbs_.emplace_back();
    Tcb &t = tcbs_.back();
    t.body = std::move(body);
    t.name = std::move(name);
    t.asid = asid;
    if (eager_stack)
        t.stackTop = sys_.allocThreadStack();
    ready_.push_back(tid);
    ++liveThreads_;
    ++stats_.threadsSpawned;
    return tid;
}

void
Kernel::ensureStack(Tcb &t)
{
    if (t.stackTop == 0)
        t.stackTop = sys_.allocThreadStack();
}

void
Kernel::dispatch(std::uint32_t core)
{
    if (ready_.empty())
        return;
    const std::uint32_t tid = ready_.front();
    ready_.pop_front();
    Tcb &t = tcbs_[tid];
    assert(t.state == ThreadState::Ready);

    cpu::Core &c = sys_.core(core);
    c.setState(t.ctx);
    if (coreAsid_[core] != t.asid) {
        c.contextSwitch(&image_, &linker_, t.asid);
        coreAsid_[core] = t.asid;
        ++stats_.asidSwitches;
    }
    // Resuming a thread mid-call on a (possibly different) core:
    // the lockstep checker's reference machine must adopt this
    // thread's full context before the next retired instruction.
    if (t.inSimCall && c.observer() != nullptr)
        c.observer()->onFastForward(c.state());

    if (lastTid_[core] != tid) {
        if (auto *unit = c.skipUnit())
            unit->threadSwitch();
        lastTid_[core] = tid;
        ++stats_.threadSwitches;
    }
    t.state = ThreadState::Running;
    running_[core] = tid;
    ++stats_.dispatches;
}

void
Kernel::undispatch(std::uint32_t core, ThreadState to)
{
    const std::uint32_t tid = running_[core];
    Tcb &t = tcbs_[tid];
    t.ctx = sys_.core(core).state();
    t.state = to;
    if (to == ThreadState::Ready)
        ready_.push_back(tid);
    running_[core] = NoTid;
}

void
Kernel::startCall(std::uint32_t core, Tcb &t)
{
    cpu::Core &c = sys_.core(core);
    ensureStack(t);
    if (c.state().regs[isa::RegSp] == 0)
        c.initStack(t.stackTop);
    c.beginCall(t.callFn, t.callArgs[0], t.callArgs[1],
                t.callArgs[2]);
    t.callPending = false;
    t.inSimCall = true;
    ++stats_.simCalls;
}

std::uint64_t
Kernel::runSlice(std::uint32_t core)
{
    const std::uint32_t tid = running_[core];
    Tcb &t = tcbs_[tid];
    cpu::Core &c = sys_.core(core);
    curTid_ = tid;
    curCore_ = core;

    const std::uint64_t cycles0 = c.cycleCount();
    std::uint64_t kernel_cycles = 0;
    std::uint64_t ff_cycles = 0;
    std::uint64_t budget = params_.quantum;

    while (budget > 0 && t.state == ThreadState::Running) {
        if (t.inSimCall) {
            // With a sampler attached, fast-forward phases execute
            // the call functionally; either way the slice charges
            // the same retired-instruction budget for the same
            // architectural work, so every scheduling decision
            // matches the exact-mode run on a machine without
            // trampoline elision.
            bool done;
            if (sampler_ != nullptr &&
                sampler_->inFastForward()) {
                const auto sl =
                    sampler_->runFunctionalSlice(core, budget);
                budget -= std::min(budget, sl.insts);
                ff_cycles += sampler_->ffCycles(sl.insts);
                done = sl.done;
            } else {
                const std::uint64_t insts0 =
                    c.instructionsRetired();
                const std::uint64_t cyc0 = c.cycleCount();
                done = c.runQuantum(budget);
                const std::uint64_t used =
                    c.instructionsRetired() - insts0;
                budget -= std::min(budget, used);
                if (sampler_ != nullptr)
                    sampler_->noteDetailed(
                        used, c.cycleCount() - cyc0);
            }
            if (!done) {
                // Quantum expired mid-call — unless the sampler's
                // phase flipped mid-slice, in which case the other
                // executor finishes the budget.
                if (budget > 0)
                    continue;
                break;
            }
            t.inSimCall = false;
            t.body->onCallDone(*this,
                               c.state().regs[isa::RegRet]);
            ++stats_.kernelSteps;
            kernel_cycles += params_.kernelStepCycles;
            budget -= std::min(budget, params_.kernelStepInsts);
        } else {
            t.body->step(*this);
            ++stats_.kernelSteps;
            kernel_cycles += params_.kernelStepCycles;
            budget -= std::min(budget, params_.kernelStepInsts);
        }
        if (t.callPending && t.state == ThreadState::Running)
            startCall(core, t);
        if (t.yielded) {
            t.yielded = false;
            break;
        }
    }

    switch (t.state) {
      case ThreadState::Running:
        // Budget exhausted (or yield). Preempt only when someone
        // else is waiting; otherwise keep the core hot.
        if (params_.preempt && !ready_.empty()) {
            if (budget == 0)
                ++stats_.preemptions;
            undispatch(core, ThreadState::Ready);
        } else {
            // Keep the thread at the head of the queue so the next
            // round re-dispatches it on this core.
            t.ctx = c.state();
            t.state = ThreadState::Ready;
            running_[core] = NoTid;
            ready_.push_front(tid);
        }
        break;
      case ThreadState::Blocked:
        ++stats_.blocks;
        undispatch(core, ThreadState::Blocked);
        break;
      case ThreadState::Done:
        t.ctx = c.state();
        running_[core] = NoTid;
        --liveThreads_;
        ++stats_.threadsExited;
        break;
      case ThreadState::Ready:
        assert(false && "thread cannot be Ready mid-slice");
        break;
    }
    return (c.cycleCount() - cycles0) + kernel_cycles +
           ff_cycles;
}

bool
Kernel::runRounds(std::uint64_t max_rounds)
{
    for (std::uint64_t r = 0; r < max_rounds; ++r) {
        if (allDone())
            return true;
        bool any = false;
        std::uint64_t round_cost = 0;
        for (std::uint32_t i = 0; i < sys_.numCores(); ++i) {
            if (running_[i] == NoTid)
                dispatch(i);
            if (running_[i] == NoTid) {
                ++stats_.idleSlices;
                continue;
            }
            any = true;
            round_cost = std::max(round_cost, runSlice(i));
        }
        ++stats_.rounds;
        now_ += round_cost;
        if (!any)
            throw OsError("os::Kernel deadlock: " +
                          std::to_string(liveThreads_) +
                          " live thread(s), none runnable");
    }
    return allDone();
}

void
Kernel::run()
{
    runRounds(UINT64_MAX);
}

void
Kernel::call(isa::Addr fn, std::uint64_t arg0, std::uint64_t arg1,
             std::uint64_t arg2)
{
    Tcb &t = tcbs_[curTid_];
    assert(!t.inSimCall && !t.callPending);
    t.callPending = true;
    t.callFn = fn;
    t.callArgs[0] = arg0;
    t.callArgs[1] = arg1;
    t.callArgs[2] = arg2;
}

void
Kernel::exitThread()
{
    tcbs_[curTid_].state = ThreadState::Done;
}

void
Kernel::yield()
{
    tcbs_[curTid_].yielded = true;
}

void
Kernel::setAsid(std::uint16_t asid)
{
    Tcb &t = tcbs_[curTid_];
    if (t.asid == asid)
        return;
    t.asid = asid;
    if (coreAsid_[curCore_] != asid) {
        sys_.core(curCore_).contextSwitch(&image_, &linker_, asid);
        coreAsid_[curCore_] = asid;
        ++stats_.asidSwitches;
    }
}

void
Kernel::block(std::vector<std::uint32_t> &waiters)
{
    waiters.push_back(curTid_);
    tcbs_[curTid_].state = ThreadState::Blocked;
}

void
Kernel::wakeAll(std::vector<std::uint32_t> &waiters)
{
    for (const std::uint32_t tid : waiters) {
        Tcb &t = tcbs_[tid];
        if (t.state != ThreadState::Blocked)
            continue;
        t.state = ThreadState::Ready;
        ready_.push_back(tid);
        ++stats_.wakeups;
    }
    waiters.clear();
}

Pipe &
Kernel::pipeAt(std::int32_t id)
{
    return *pipes_.at(static_cast<std::size_t>(id));
}

std::int32_t
Kernel::pipeCreate(std::size_t capacity)
{
    pipes_.push_back(std::make_unique<Pipe>(capacity));
    return static_cast<std::int32_t>(pipes_.size() - 1);
}

long
Kernel::pipeRead(std::int32_t pipe, std::uint8_t *dst,
                 std::size_t n)
{
    Pipe &p = pipeAt(pipe);
    if (!p.empty()) {
        const std::size_t got = p.read(dst, n);
        stats_.pipeBytesRead += got;
        wakeAll(p.writeWaiters());
        return static_cast<long>(got);
    }
    if (p.atEof())
        return 0;
    ++stats_.pipeBlockedReads;
    block(p.readWaiters());
    return WouldBlock;
}

long
Kernel::pipeWrite(std::int32_t pipe, const std::uint8_t *src,
                  std::size_t n)
{
    Pipe &p = pipeAt(pipe);
    if (p.closed())
        return Error;
    const std::size_t put = p.write(src, n);
    if (put > 0) {
        stats_.pipeBytesWritten += put;
        wakeAll(p.readWaiters());
        return static_cast<long>(put);
    }
    ++stats_.pipeBlockedWrites;
    block(p.writeWaiters());
    return WouldBlock;
}

void
Kernel::pipeCloseWrite(std::int32_t pipe)
{
    Pipe &p = pipeAt(pipe);
    p.close();
    wakeAll(p.readWaiters());
    wakeAll(p.writeWaiters());
}

void
Kernel::listen(std::int32_t port, std::uint32_t backlog)
{
    Listener &l = listeners_[port];
    l.port = port;
    l.backlogMax = std::max<std::uint32_t>(1, backlog);
    ++stats_.listens;
}

long
Kernel::connect(std::int32_t port)
{
    auto it = listeners_.find(port);
    if (it == listeners_.end())
        return Error;
    Listener &l = it->second;
    if (l.backlog.size() >= l.backlogMax) {
        ++stats_.backlogBlocks;
        block(l.connectWaiters);
        return WouldBlock;
    }
    conns_.push_back(std::make_unique<Connection>(
        static_cast<std::int32_t>(conns_.size()),
        params_.pipeCapacity));
    Connection &conn = *conns_.back();
    l.backlog.push_back(conn.id);
    wakeAll(l.acceptWaiters);
    ++stats_.connects;
    return conn.id;
}

long
Kernel::accept(std::int32_t port)
{
    Listener &l = listeners_.at(port);
    if (l.backlog.empty()) {
        block(l.acceptWaiters);
        return WouldBlock;
    }
    const std::int32_t cid = l.backlog.front();
    l.backlog.pop_front();
    connection(cid).state = ConnState::Established;
    wakeAll(l.connectWaiters); // A backlog slot freed up.
    ++stats_.accepts;
    return cid;
}

long
Kernel::connRead(std::int32_t conn, ConnSide side,
                 std::uint8_t *dst, std::size_t n)
{
    Pipe &rx = connection(conn).rxPipe(side);
    if (!rx.empty()) {
        const std::size_t got = rx.read(dst, n);
        stats_.pipeBytesRead += got;
        wakeAll(rx.writeWaiters());
        return static_cast<long>(got);
    }
    if (rx.atEof())
        return 0;
    ++stats_.pipeBlockedReads;
    block(rx.readWaiters());
    return WouldBlock;
}

long
Kernel::connWrite(std::int32_t conn, ConnSide side,
                  const std::uint8_t *src, std::size_t n)
{
    Pipe &tx = connection(conn).txPipe(side);
    if (tx.closed())
        return Error;
    const std::size_t put = tx.write(src, n);
    if (put > 0) {
        stats_.pipeBytesWritten += put;
        wakeAll(tx.readWaiters());
        return static_cast<long>(put);
    }
    ++stats_.pipeBlockedWrites;
    block(tx.writeWaiters());
    return WouldBlock;
}

void
Kernel::connShutdown(std::int32_t conn, ConnSide side)
{
    Connection &c = connection(conn);
    const bool was_closed = c.state == ConnState::Closed;
    Pipe &tx = c.txPipe(side);
    c.shutdownWrite(side);
    wakeAll(tx.readWaiters()); // Readers now see EOF.
    wakeAll(tx.writeWaiters());
    if (!was_closed && c.state == ConnState::Closed)
        ++stats_.connsClosed;
}

void
Kernel::wakeAcceptors(std::int32_t port)
{
    auto it = listeners_.find(port);
    if (it != listeners_.end())
        wakeAll(it->second.acceptWaiters);
}

void
Kernel::save(snapshot::Serializer &s) const
{
    s.beginStruct("kernel");
    s.u32(static_cast<std::uint32_t>(tcbs_.size()));
    s.u32(static_cast<std::uint32_t>(pipes_.size()));
    s.u32(static_cast<std::uint32_t>(listeners_.size()));
    s.u32(static_cast<std::uint32_t>(conns_.size()));
    s.u32(static_cast<std::uint32_t>(running_.size()));
    s.u64(now_);
    s.u32(liveThreads_);
    s.u32(static_cast<std::uint32_t>(ready_.size()));
    for (const auto tid : ready_)
        s.u32(tid);
    for (const auto tid : running_)
        s.u32(tid);
    for (const auto tid : lastTid_)
        s.u32(tid);
    for (const auto asid : coreAsid_)
        s.u16(asid);
    for (const auto &[name, counter] : KernelCounters)
        s.u64(stats_.*counter);
    s.endStruct();

    for (const auto &t : tcbs_) {
        s.beginStruct("tcb");
        s.u8(static_cast<std::uint8_t>(t.state));
        s.u16(t.asid);
        for (const auto r : t.ctx.regs)
            s.u64(r);
        s.u64(t.ctx.pc);
        s.boolean(t.ctx.halted);
        s.boolean(t.inSimCall);
        s.u64(t.stackTop);
        s.boolean(t.callPending);
        s.u64(t.callFn);
        for (const auto a : t.callArgs)
            s.u64(a);
        s.boolean(t.yielded);
        s.endStruct();
        t.body->save(s);
    }
    for (const auto &p : pipes_)
        p->save(s);
    for (const auto &kv : listeners_)
        kv.second.save(s);
    for (const auto &c : conns_)
        c->save(s);
}

void
Kernel::load(snapshot::Deserializer &d)
{
    d.enterStruct("kernel");
    d.checkU32(static_cast<std::uint32_t>(tcbs_.size()),
               "kernel thread count");
    const std::uint32_t npipes = d.u32();
    const std::uint32_t nlisteners = d.u32();
    const std::uint32_t nconns = d.u32();
    d.checkU32(static_cast<std::uint32_t>(running_.size()),
               "kernel core count");
    now_ = d.u64();
    liveThreads_ = d.u32();
    ready_.resize(d.count(4));
    for (auto &tid : ready_)
        tid = d.u32();
    for (auto &tid : running_)
        tid = d.u32();
    for (auto &tid : lastTid_)
        tid = d.u32();
    for (auto &asid : coreAsid_)
        asid = d.u16();
    for (const auto &[name, counter] : KernelCounters)
        stats_.*counter = d.u64();
    d.leaveStruct();

    for (auto &t : tcbs_) {
        d.enterStruct("tcb");
        t.state = static_cast<ThreadState>(d.u8());
        t.asid = d.u16();
        for (auto &r : t.ctx.regs)
            r = d.u64();
        t.ctx.pc = d.u64();
        t.ctx.halted = d.boolean();
        t.inSimCall = d.boolean();
        t.stackTop = d.u64();
        t.callPending = d.boolean();
        t.callFn = d.u64();
        for (auto &a : t.callArgs)
            a = d.u64();
        t.yielded = d.boolean();
        d.leaveStruct();
        t.body->load(d);
    }
    // The data-plane tables are rebuilt from the snapshot: standalone
    // pipes and connections are runtime-created objects the restore-
    // side kernel has not made yet.
    pipes_.clear();
    for (std::uint32_t i = 0; i < npipes; ++i) {
        pipes_.push_back(std::make_unique<Pipe>(1));
        pipes_.back()->load(d);
    }
    listeners_.clear();
    for (std::uint32_t i = 0; i < nlisteners; ++i) {
        Listener l;
        l.load(d);
        const auto port = l.port;
        listeners_[port] = std::move(l);
    }
    conns_.clear();
    for (std::uint32_t i = 0; i < nconns; ++i) {
        conns_.push_back(std::make_unique<Connection>(
            static_cast<std::int32_t>(i), params_.pipeCapacity));
        conns_.back()->load(d);
    }
}

void
Kernel::reportMetrics(stats::MetricsRegistry &reg,
                      const std::string &prefix) const
{
    for (const auto &[name, counter] : KernelCounters)
        reg.counter(prefix + name, stats_.*counter);
    reg.gauge(prefix + ".vtime_cycles",
              static_cast<double>(now_));
}

} // namespace dlsim::os
