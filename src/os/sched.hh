/**
 * @file
 * os::Kernel — a deterministic OS-like layer on top of
 * sim::MultiCoreSystem: a round-robin thread scheduler with
 * blocking/ready states, pipes, and listen/accept/connect sockets.
 *
 * Threads are kernel-level entities: their *control logic* is a
 * host-side state machine (Thread::step), and their *work* is
 * simulated CPU execution started with Kernel::call() — a function
 * call on the shared image that runs in preemptible quanta on
 * whichever core the scheduler dispatched the thread to. A thread's
 * register file travels with it (cpu::MachineState context saved on
 * un-dispatch, restored on dispatch), so M threads multiplex over N
 * cores exactly like an SMP kernel's run queue, including quantum-
 * expiry preemption in the middle of a call — and in the middle of
 * a trampoline sequence, which is precisely the §3.3 case the
 * ABTB's context-switch flush policy exists for.
 *
 * Everything runs on one host thread with a virtual clock: rounds
 * of one slice per core, each round advancing virtual time by the
 * largest cycle count any core consumed (cores run in parallel in
 * simulated time). All scheduling decisions depend only on
 * simulated state, so runs are byte-identical for any host
 * parallelism and for block dispatch on or off.
 *
 * Address-space isolation between tenants is modelled with ASIDs:
 * Kernel::setAsid() performs a cpu::Core::contextSwitch, flushing
 * TLBs/RAS/ABTB per paper §3.3 (unless ASID retention is
 * configured). Thread switches within one ASID restore registers
 * only — like an OS switching threads of one process.
 */

#ifndef DLSIM_OS_SCHED_HH
#define DLSIM_OS_SCHED_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core.hh"
#include "os/pipe.hh"
#include "os/socket.hh"
#include "sim/multicore.hh"
#include "stats/metrics.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::sim
{
class Sampler;
}

namespace dlsim::os
{

class Kernel;

/** Kernel scheduling errors (deadlock, bad handles). */
class OsError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Scheduler configuration. */
struct KernelParams
{
    /** Slice budget per dispatch, in retired instructions. */
    std::uint64_t quantum = 400;
    /** Requeue a still-running thread at quantum expiry when other
     *  threads are ready (off = run-to-block). */
    bool preempt = true;
    /** Synthetic cost of one kernel step (syscall + scheduler
     *  work), charged against the slice budget and virtual time. */
    std::uint64_t kernelStepInsts = 32;
    std::uint64_t kernelStepCycles = 48;
    /** Byte capacity of each connection's two pipes. */
    std::size_t pipeCapacity = 256;
};

/** Thread lifecycle. */
enum class ThreadState : std::uint8_t
{
    Ready,
    Running,
    Blocked,
    Done,
};

/**
 * Base class of a kernel thread's control logic.
 *
 * step() is invoked whenever the thread is scheduled and no
 * simulated call is in flight. It performs kernel work through the
 * Kernel API and returns; a syscall that blocked (returned
 * Kernel::WouldBlock) parks the thread, and step() must return
 * right after it. step() is re-invoked after wakeup — bodies are
 * written as resumable state machines, like a kernel's syscall
 * restart logic.
 */
class Thread
{
  public:
    virtual ~Thread() = default;

    /** One kernel step; see class comment for the contract. */
    virtual void step(Kernel &k) = 0;

    /** A call() started earlier retired its final instruction. */
    virtual void onCallDone(Kernel &k, std::uint64_t retval)
    {
        (void)k;
        (void)retval;
    }

    /**
     * Checkpoint the body's own state-machine fields (Kernel::save
     * emits them inline in the thread's record, in tid order).
     * Bodies with no state beyond the Tcb keep the no-op default.
     */
    virtual void save(snapshot::Serializer &s) const { (void)s; }
    virtual void load(snapshot::Deserializer &d) { (void)d; }
};

/** One simulated function call: entry address and arguments. */
struct SimCall
{
    isa::Addr fn = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::uint64_t arg2 = 0;
};

/**
 * The simplest thread body: make `calls` one after another, record
 * each return value, then exit. Threads of one process that only
 * compute (no pipes or sockets) are bodies of this kind.
 */
class CallThread : public Thread
{
  public:
    explicit CallThread(std::vector<SimCall> calls)
        : calls_(std::move(calls))
    {
    }

    void step(Kernel &k) override;
    void onCallDone(Kernel &k, std::uint64_t retval) override;
    void save(snapshot::Serializer &s) const override;
    void load(snapshot::Deserializer &d) override;

    /** Return values of the calls finished so far, in call order. */
    const std::vector<std::uint64_t> &results() const
    {
        return results_;
    }

  private:
    std::vector<SimCall> calls_;
    std::vector<std::uint64_t> results_;
};

/** Aggregate kernel activity counters. */
struct KernelStats
{
    std::uint64_t rounds = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t threadSwitches = 0;
    std::uint64_t asidSwitches = 0;
    std::uint64_t idleSlices = 0;
    std::uint64_t kernelSteps = 0;
    std::uint64_t simCalls = 0;
    std::uint64_t blocks = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t threadsSpawned = 0;
    std::uint64_t threadsExited = 0;
    std::uint64_t pipeBlockedReads = 0;
    std::uint64_t pipeBlockedWrites = 0;
    std::uint64_t pipeBytesRead = 0;
    std::uint64_t pipeBytesWritten = 0;
    std::uint64_t listens = 0;
    std::uint64_t connects = 0;
    std::uint64_t accepts = 0;
    std::uint64_t backlogBlocks = 0;
    std::uint64_t connsClosed = 0;
};

/** Every KernelStats counter with its metric name under the
 *  kernel's prefix, in checkpoint order. */
inline constexpr std::pair<const char *, std::uint64_t KernelStats::*>
    KernelCounters[] = {
        {".sched.rounds", &KernelStats::rounds},
        {".sched.dispatches", &KernelStats::dispatches},
        {".sched.preemptions", &KernelStats::preemptions},
        {".sched.thread_switches", &KernelStats::threadSwitches},
        {".sched.asid_switches", &KernelStats::asidSwitches},
        {".sched.idle_slices", &KernelStats::idleSlices},
        {".sched.kernel_steps", &KernelStats::kernelSteps},
        {".sched.sim_calls", &KernelStats::simCalls},
        {".sched.blocks", &KernelStats::blocks},
        {".sched.wakeups", &KernelStats::wakeups},
        {".threads.spawned", &KernelStats::threadsSpawned},
        {".threads.exited", &KernelStats::threadsExited},
        {".pipe.blocked_reads", &KernelStats::pipeBlockedReads},
        {".pipe.blocked_writes", &KernelStats::pipeBlockedWrites},
        {".pipe.bytes_read", &KernelStats::pipeBytesRead},
        {".pipe.bytes_written", &KernelStats::pipeBytesWritten},
        {".sock.listens", &KernelStats::listens},
        {".sock.connects", &KernelStats::connects},
        {".sock.accepts", &KernelStats::accepts},
        {".sock.backlog_blocks", &KernelStats::backlogBlocks},
        {".sock.conns_closed", &KernelStats::connsClosed},
};

/** The scheduler plus its pipe and socket tables. */
class Kernel
{
  public:
    /** Syscall result: the calling thread was parked; return from
     *  step() immediately and retry when re-invoked. */
    static constexpr long WouldBlock = -1;
    /** Syscall result: invalid operation (no listener on the port,
     *  write on a closed pipe). */
    static constexpr long Error = -2;

    Kernel(const KernelParams &params, sim::MultiCoreSystem &sys,
           linker::Image &image, linker::DynamicLinker &linker);

    /**
     * Create a thread in Ready state.
     * @param eager_stack Map its call stack now instead of at the
     *        first call(); required when a lockstep checker will be
     *        attached before the run (the checker forks reference
     *        memory at attach and would miss later mappings).
     * @return The thread id.
     */
    std::uint32_t spawn(std::unique_ptr<Thread> body,
                        std::string name, std::uint16_t asid = 0,
                        bool eager_stack = false);

    /**
     * Run scheduler rounds (one slice per core per round) until all
     * threads are Done or `max_rounds` elapse. Throws OsError on
     * deadlock (live threads, none runnable).
     * @return True when all threads are Done.
     */
    bool runRounds(std::uint64_t max_rounds);

    /** Run to completion (no round bound). */
    void run();

    bool allDone() const { return liveThreads_ == 0; }

    /** @name Syscalls (valid inside step()/onCallDone() only) @{ */
    /** Calling thread's id. */
    std::uint32_t self() const { return curTid_; }

    /** Virtual time in cycles (round-granular). */
    std::uint64_t now() const { return now_; }

    /** Begin a simulated function call; onCallDone fires when it
     *  returns. At most one call in flight per thread. */
    void call(isa::Addr fn, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0, std::uint64_t arg2 = 0);

    /** Terminate the calling thread. */
    void exitThread();

    /** Give up the rest of the slice, staying Ready. */
    void yield();

    /**
     * Switch the calling thread's address space (tenant). Performs
     * a §3.3 context switch on the current core when the ASID
     * actually changes.
     */
    void setAsid(std::uint16_t asid);

    /** Create a standalone pipe. @return Pipe id. */
    std::int32_t pipeCreate(std::size_t capacity);

    /** Read up to n bytes; 0 = EOF, WouldBlock = parked. */
    long pipeRead(std::int32_t pipe, std::uint8_t *dst,
                  std::size_t n);

    /** Write up to n bytes (partial writes allowed); WouldBlock =
     *  pipe full, parked. Error = closed. */
    long pipeWrite(std::int32_t pipe, const std::uint8_t *src,
                   std::size_t n);

    /** Close a pipe's write end; blocked readers see EOF. */
    void pipeCloseWrite(std::int32_t pipe);

    /** Open a listening socket on `port`. */
    void listen(std::int32_t port, std::uint32_t backlog);

    /** Connect to `port`: queue in the backlog. @return Connection
     *  id, WouldBlock (backlog full) or Error (no listener). */
    long connect(std::int32_t port);

    /** Accept on `port`. @return Connection id or WouldBlock. */
    long accept(std::int32_t port);

    /** Connection stream I/O; same contract as pipeRead/pipeWrite. */
    long connRead(std::int32_t conn, ConnSide side,
                  std::uint8_t *dst, std::size_t n);
    long connWrite(std::int32_t conn, ConnSide side,
                   const std::uint8_t *src, std::size_t n);

    /** Half-close `side`'s write direction. */
    void connShutdown(std::int32_t conn, ConnSide side);

    /** Wake every thread parked in accept() on `port` — used by a
     *  server draining its acceptors once all clients are done. */
    void wakeAcceptors(std::int32_t port);
    /** @} */

    Connection &connection(std::int32_t id)
    {
        return *conns_.at(static_cast<std::size_t>(id));
    }
    ThreadState threadState(std::uint32_t tid) const
    {
        return tcbs_[tid].state;
    }

    const KernelStats &stats() const { return stats_; }
    sim::MultiCoreSystem &system() { return sys_; }

    /**
     * Attach (or detach, with nullptr) a sampled-execution engine.
     * While the sampler's shared phase machine is in fast-forward,
     * runSlice executes in-flight calls functionally on the
     * sampler's per-core RefCores instead of the detailed cores;
     * detailed slices report their retired work back so the phase
     * machine advances over the combined instruction stream. All
     * kernel logic (quanta, blocking, wakeups, churn) is untouched
     * — only how an in-flight call's instructions are executed
     * changes.
     */
    void setSampler(sim::Sampler *sampler)
    {
        sampler_ = sampler;
    }

    /** Zero the activity counters (thread/pipe/socket state and the
     *  virtual clock are kept — latency measurement uses deltas). */
    void clearStats() { stats_ = KernelStats{}; }

    /**
     * Checkpoint the scheduler: TCBs (context, call state, body
     * state via Thread::save), ready queue, per-core dispatch
     * state, pipes, listeners, connections, virtual clock and
     * stats. Must be taken between rounds (no thread mid-slice —
     * runRounds guarantees this at every exit). load() expects a
     * kernel whose spawn history matches the saved one exactly.
     */
    void save(snapshot::Serializer &s) const;
    void load(snapshot::Deserializer &d);

    /**
     * Register scheduler/pipe/socket activity as counters under
     * `<prefix>.sched.*`, `<prefix>.pipe.*`, `<prefix>.sock.*` and
     * the virtual clock as a gauge. Pass "dlsim.os".
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** Per-thread control block. */
    struct Tcb
    {
        std::unique_ptr<Thread> body;
        std::string name;
        ThreadState state = ThreadState::Ready;
        std::uint16_t asid = 0;
        cpu::MachineState ctx{};
        bool inSimCall = false;
        isa::Addr stackTop = 0;

        /** Pending call() captured during a kernel step. */
        bool callPending = false;
        isa::Addr callFn = 0;
        std::uint64_t callArgs[3] = {0, 0, 0};
        bool yielded = false;
    };

    void dispatch(std::uint32_t core);
    void undispatch(std::uint32_t core, ThreadState to);
    /** Run one slice of core `i`'s current thread.
     *  @return Cycles consumed (simulated + synthetic kernel). */
    std::uint64_t runSlice(std::uint32_t core);
    /** Start the pending call on the thread's current core. */
    void startCall(std::uint32_t core, Tcb &t);
    void ensureStack(Tcb &t);
    /** Park the current thread on `waiters`. */
    void block(std::vector<std::uint32_t> &waiters);
    void wakeAll(std::vector<std::uint32_t> &waiters);
    Pipe &pipeAt(std::int32_t id);

    KernelParams params_;
    sim::MultiCoreSystem &sys_;
    linker::Image &image_;
    linker::DynamicLinker &linker_;

    std::deque<Tcb> tcbs_; ///< Stable addresses; tid = index.
    std::deque<std::uint32_t> ready_;
    std::vector<std::uint32_t> running_; ///< Per core; NoTid = idle.
    std::vector<std::uint32_t> lastTid_; ///< Last thread per core.
    std::vector<std::uint16_t> coreAsid_;
    std::uint32_t liveThreads_ = 0;

    std::vector<std::unique_ptr<Pipe>> pipes_;
    std::map<std::int32_t, Listener> listeners_;
    std::vector<std::unique_ptr<Connection>> conns_;

    std::uint64_t now_ = 0;
    std::uint32_t curTid_ = 0;
    std::uint32_t curCore_ = 0;
    KernelStats stats_;
    sim::Sampler *sampler_ = nullptr;

    static constexpr std::uint32_t NoTid = UINT32_MAX;
};

} // namespace dlsim::os

#endif // DLSIM_OS_SCHED_HH
