/**
 * @file
 * The simulated CPU core.
 *
 * An execution-driven, in-order model with a front-end-accurate
 * timing account: every retired instruction costs one base cycle
 * plus the penalties of its I-side access (I-TLB, L1I, L2, L3), its
 * data access (D-TLB, L1D, ...), and a pipeline-refill penalty on
 * branch misprediction. This is the machinery needed to measure what
 * the paper measures — structure pressure and the cycles it costs —
 * without modelling an out-of-order backend the results don't depend
 * on.
 *
 * The paper's mechanism hooks in at exactly the points §3 describes:
 *
 *  - Branch resolution consults TrampolineSkipUnit::substituteTarget
 *    with the architecturally resolved target; on a hit the returned
 *    function address becomes the effective target: it is compared
 *    against the front-end prediction, trains the BTB, and execution
 *    continues there — the trampoline is never fetched, never
 *    retired, and performs no GOT load.
 *  - The retire stream drives ABTB population (call followed by a
 *    memory-indirect jump) and bloom-filter snooping of stores.
 *
 * The core also provides the evaluation methodology substrate: a
 * call-site profiler (standing in for the paper's Pin tool) and a
 * resolver trap that runs the DynamicLinker with its GOT store
 * performed architecturally on the data path.
 */

#ifndef DLSIM_CPU_CORE_HH
#define DLSIM_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "branch/predictor.hh"
#include "core/skip_unit.hh"
#include "cpu/perf_counters.hh"
#include "isa/instruction.hh"
#include "isa/registers.hh"
#include "linker/dynamic_linker.hh"
#include "linker/image.hh"
#include "linker/patcher.hh"
#include "cpu/retire_observer.hh"
#include "mem/hierarchy.hh"
#include "trace/trace.hh"

namespace dlsim::cpu
{

using isa::Addr;

/** Sentinel return address used by Core::callFunction. */
constexpr Addr MagicReturnVa = 0x0000700000001000ull;

/** Architectural register state of one hart/process. */
struct MachineState
{
    std::array<std::uint64_t, isa::NumRegs> regs{};
    Addr pc = 0;
    bool halted = false;
};

/** Fatal simulation errors (bad memory access, undecodable pc). */
class SimError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * The per-instruction counters, grouped into one cache-line-aligned
 * block. Each worker thread of a parallel sweep owns one Core;
 * keeping the hot counters contiguous and line-aligned means the
 * per-step increments touch a single private line — they can never
 * false-share with whatever the allocator placed around the Core.
 */
struct alignas(64) CoreCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t trampolineInsts = 0;
    std::uint64_t trampolineJmps = 0;
    std::uint64_t skippedTrampolines = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t resolverCalls = 0;
    /** Demand-paging first-touch faults taken (BindPolicy::Demand). */
    std::uint64_t demandFaults = 0;
    /** Position within the current issue group. */
    std::uint32_t issueSlot = 0;
};

/** Core configuration. */
struct CoreParams
{
    mem::HierarchyParams mem;
    branch::PredictorParams predictor;

    /** Pipeline refill cost of a branch misprediction. */
    std::uint32_t mispredictPenalty = 15;

    /**
     * Superscalar issue width: instructions retired per base
     * cycle. Taken control transfers end the fetch group (the
     * classic taken-branch bubble), so every executed trampoline
     * costs a group break on a wide machine — one of the costs
     * trampoline elision removes. Default 4, the width of the
     * paper's Core2-class Xeon testbed.
     */
    std::uint32_t issueWidth = 4;

    /** Enable the paper's mechanism. */
    bool skipUnitEnabled = false;
    core::SkipUnitParams skip;

    /**
     * Synthetic cost of one lazy-resolver invocation (the symbol
     * hash lookup ld.so performs), charged on top of the
     * architectural pops and GOT store the trap performs.
     */
    std::uint64_t resolverInsts = 300;
    std::uint64_t resolverCycles = 900;

    /**
     * Demand-driven loading (BindPolicy::Demand): charge each
     * first-touch page fault this many cycles (minor-fault service:
     * trap, page allocation, fill, return). Pure timing — a fault
     * retires no instructions, so the demand arm's instruction
     * stream is identical to the lazy arm's.
     */
    std::uint64_t demandFaultCycles = 2000;

    /** Demand-paged library regions exist: the fetch path must
     *  touch pages so first-fetch faults have somewhere to happen.
     *  Set by makeCoreParams from MachineConfig::bindPolicy. */
    bool demandPaging = false;

    /** Record library call sites (the Pin-tool stand-in). */
    bool collectCallSiteTrace = false;

    /**
     * Count executions per trampoline (Table 3 / Fig. 4 census).
     * Costs a hash update per trampoline execution.
     */
    bool profileTrampolines = false;

    /**
     * When non-empty, record the retire stream (control transfers,
     * stores, and instruction counts) to this file for trace-driven
     * replay (src/trace) — the Pin-collection analogue.
     */
    std::string tracePath;

    /**
     * Architectural checker: on every substitution, verify that the
     * GOT slot still holds the memoized function address — i.e.,
     * that a skip can never diverge from the unmodified machine.
     */
    bool checkSkips = true;

    /** Retain TLB entries across context switches (ASIDs). */
    bool asidTlbRetention = false;

    /**
     * Dispatch whole basic blocks per run-loop iteration from the
     * image's block translation cache instead of one instruction at
     * a time. Counters, timing and every architectural observable
     * are byte-identical either way (tests/test_block_dispatch.cc),
     * so it is excluded from the snapshot configuration
     * fingerprints. Off (`--blocks 0`) selects the per-instruction
     * loop, which stays as the timing reference: the block-dispatch
     * differential tests, server_traffic's identity check and the
     * guarded block-speedup gauge compare against it, and trace
     * recording (tracePath) uses it regardless. It does not affect
     * the functional fast-forward engine.
     */
    bool blockDispatch = true;
};

/** The simulated core. */
class Core
{
  public:
    /** @param for_restore The core is about to be overwritten by
     *         load(): its caches skip zero-filling the arrays that
     *         load() writes (see mem::Cache::Cache). */
    explicit Core(const CoreParams &params = {},
                  bool for_restore = false);

    /** @name Process attachment @{ */
    /** Attach (without flushing) — initial program placement. */
    void attachProcess(linker::Image *image,
                       linker::DynamicLinker *linker,
                       std::uint16_t asid);

    /**
     * OS context switch to another process: flushes TLBs (unless
     * ASID retention), the RAS, and the ABTB (per §3.3, unless its
     * ASID retention is configured).
     */
    void contextSwitch(linker::Image *image,
                       linker::DynamicLinker *linker,
                       std::uint16_t asid);
    /** @} */

    MachineState &state() { return state_; }
    void setState(const MachineState &state);

    /** Point the stack pointer at the top of the stack region. */
    void initStack(Addr stack_top);

    /**
     * Run until Halt (or max_insts retired).
     * @return Instructions retired by this call.
     */
    std::uint64_t run(std::uint64_t max_insts = UINT64_MAX);

    /** Result of one function invocation. */
    struct CallResult
    {
        std::uint64_t instructions = 0;
        std::uint64_t cycles = 0;
        std::uint64_t returnValue = 0;
    };

    /**
     * Call a function at `function` with up to three integer
     * arguments, running until it returns. Used by the request-
     * driven workload engines to measure per-request latency.
     */
    CallResult callFunction(Addr function,
                            std::uint64_t arg0 = 0,
                            std::uint64_t arg1 = 0,
                            std::uint64_t arg2 = 0);

    /** @name Resumable calls (multicore interleaving) @{ */
    /** Set up a call like callFunction but do not run. */
    void beginCall(Addr function, std::uint64_t arg0 = 0,
                   std::uint64_t arg1 = 0, std::uint64_t arg2 = 0);

    /**
     * Run at most `max_insts` instructions of the in-progress call.
     * @return True once the call has returned (or the hart halted).
     */
    bool runQuantum(std::uint64_t max_insts);
    /** @} */

    /**
     * Snoop hook invoked (with the store address) after every
     * retired store of this core; a multicore system uses it to
     * broadcast coherence invalidations to the other cores.
     */
    void setStoreSnoopHook(std::function<void(Addr)> hook)
    {
        storeSnoopHook_ = std::move(hook);
    }

    /**
     * Retire a lazy resolver's GOT store on the skip unit: the
     * bloom filter snoops it (§3.2), and on the explicit-
     * invalidation machine (§3.4) ld.so follows the update with an
     * AbtbFlush on every hart of the address space — through the
     * flush-all hook when a multicore system installed one, else
     * on this core alone. Both lazy resolvers call this: the
     * detailed trap and sim::Sampler's functional one.
     */
    void retireGotStore(Addr got_addr);

    /** Flush-all hook for retireGotStore (MultiCoreSystem). */
    void setFlushAllHook(std::function<void()> hook)
    {
        flushAllHook_ = std::move(hook);
    }

    /**
     * Attach an architectural-event observer (the lockstep checker).
     * Not owned; pass nullptr to detach. Hooks fire synchronously at
     * retire, resolver service, call setup, and external writes.
     */
    void setRetireObserver(RetireObserver *observer)
    {
        observer_ = observer;
    }
    RetireObserver *observer() const { return observer_; }

    /** @name Cheap counter accessors (harness schedule anchors) @{ */
    std::uint64_t instructionsRetired() const
    {
        return cnt_.instructions;
    }
    std::uint64_t cycleCount() const { return cnt_.cycles; }
    /** @} */

    /** Snapshot of all performance counters. */
    PerfCounters counters() const;

    /** Zero all statistics (leaves cache/predictor *contents*). */
    void clearStats();

    /**
     * Register every structure's statistics: the counter block plus
     * the memory hierarchy under `<prefix>.cpu`, the branch ensemble
     * under `<prefix>.cpu.{btb,direction,ras}`, and the skip unit
     * under `<prefix>.core.{abtb,bloom,skip}` when enabled. Pass
     * "dlsim" for the canonical namespace.
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    /** Null when the mechanism is disabled. */
    core::TrampolineSkipUnit *skipUnit() { return skipUnit_.get(); }
    const core::TrampolineSkipUnit *skipUnit() const
    {
        return skipUnit_.get();
    }

    branch::BranchPredictor &predictor() { return predictor_; }
    mem::Hierarchy &hierarchy() { return hierarchy_; }
    const CoreParams &params() const { return params_; }
    linker::Image *image() { return image_; }

    /** Toggle block dispatch (reconfigure/bench --blocks). Takes
     *  effect at the next run() call; safe at any quantum boundary
     *  since the two loops are observably identical. */
    void setBlockDispatch(bool on) { params_.blockDispatch = on; }

    /** @name Profiler output (Pin-tool stand-in) @{ */
    const linker::CallSiteTrace &callSiteTrace() const
    {
        return trace_;
    }
    void clearCallSiteTrace();

    /** Per-trampoline execution counts (profileTrampolines mode). */
    const std::unordered_map<Addr, std::uint64_t> &
    trampolineCounts() const
    {
        return trampolineCounts_;
    }
    /** @} */

    /**
     * External (non-CPU) write to a GOT address, e.g. by dlclose.
     * Forwarded to the skip unit as a coherence invalidation and to
     * the caches.
     */
    void onExternalGotWrite(Addr addr);

    /**
     * Checkpoint the core: architectural state, counters, profiler
     * state, the memory hierarchy, the branch ensemble, and the
     * skip unit (when present). The attached image/linker are not
     * part of the core's snapshot; composers save them separately
     * and re-attach on load.
     */
    void save(snapshot::Serializer &s) const;

    /** Restore; throws SnapshotError on any structural mismatch
     *  (including skip unit presence). */
    void load(snapshot::Deserializer &d);

    /**
     * Override timing-only knobs after a snapshot restore, so one
     * warm checkpoint can fan out a machine sweep. These scalars
     * never influence which state structures *contain* — only the
     * cycle cost of events — so changing them post-restore is
     * exactly equivalent to having warmed up with them.
     */
    void setTiming(std::uint32_t issue_width,
                   std::uint32_t mispredict_penalty,
                   std::uint64_t resolver_insts,
                   std::uint64_t resolver_cycles,
                   std::uint64_t demand_fault_cycles)
    {
        params_.issueWidth = issue_width;
        params_.mispredictPenalty = mispredict_penalty;
        params_.resolverInsts = resolver_insts;
        params_.resolverCycles = resolver_cycles;
        params_.demandFaultCycles = demand_fault_cycles;
    }

    /**
     * Replace the skip unit with a cold one of the given geometry
     * (or remove it). Snapshot-based sweeps restore a shared warm
     * machine and then give every arm its own fresh ABTB/bloom
     * configuration; measurement starts with the unit empty in
     * every arm, so arms differ only in the mechanism under test.
     */
    void resetSkipUnit(bool enabled,
                       const core::SkipUnitParams &skip);

    /** Flush and finalise the retire trace (tracePath mode). */
    void closeTrace();

  private:
    /**
     * The per-instruction loop is instantiated twice, on whether an
     * observer is attached. The overwhelmingly common case — no
     * observer — compiles to a loop with no null-check and no
     * RetireRecord assembly at all; the run entry points dispatch
     * once per quantum instead of once per instruction. runLoopT
     * is the timing reference block dispatch is checked against
     * (CoreParams::blockDispatch) and the trace recorder's loop.
     * stepT decodes the slot at pc and retires it through
     * retireBodyOp or controlT.
     */
    template <bool Observed> void stepT();
    template <bool Observed>
    std::uint64_t runLoopT(std::uint64_t max_insts);

    /**
     * Execute and retire one control transfer at pc: fetch,
     * prediction, ABTB substitution, mispredict accounting, retire
     * hooks, and the pc update. The one control path, for stepT and
     * for block terminators (read from the block, not the slot).
     * `repeat_line`: a proven same-L1I-line repeat fetch.
     * @return True when the transfer left the fall-through path
     *         (taken, or substituted).
     */
    template <bool Observed>
    bool controlT(const isa::Instruction &inst, Addr pc,
                  std::uint8_t flags, bool repeat_line);

    /**
     * Block dispatcher: one block-cache lookup per straight-line
     * run, body ops executed by execBodyOp through their handler,
     * the terminator by controlT (Halt, which is not a transfer, by
     * retireBodyOp). The observed loop retires body ops through
     * retireBodyOp like stepT; the unobserved one batches the
     * bookkeeping per straight-line run and fetches once per L1I-
     * line run. Successors follow the block's memoized edges before
     * probing the head table. Byte-identical observables to
     * runLoopT.
     */
    template <bool Observed>
    std::uint64_t runBlockLoopT(std::uint64_t max_insts);

    /** What a non-control op stored, for retire records and the
     *  trace. */
    struct BodyEffect
    {
        bool didStore = false;
        Addr storeAddr = 0;
        std::uint64_t storeValue = 0;
    };

    /**
     * The one executor of the non-control opcodes (everything a
     * block body holds, plus Halt), shared by the per-instruction
     * loop and both block loops: demand-paged text touch, the
     * architectural effect (by the op's fused handler,
     * linker::handlerOf(inst): ALU results by select, the rest by
     * switch), and the skip unit's store-snoop/
     * retire hook. Fetch, issue and retire counting stay with the
     * caller: per op in retireBodyOp, batched in the unobserved
     * block loop.
     */
    BodyEffect execBodyOp(const isa::Instruction &inst,
                          linker::Handler handler, Addr pc);

    /**
     * Retire one non-control op with per-op bookkeeping: front end,
     * execBodyOp, pc advance, trace and observer record. stepT uses
     * it for every non-control op, the observed block loop for
     * every body op, and both block loops for a Halt terminator.
     */
    template <bool Observed>
    void retireBodyOp(const isa::Instruction &inst,
                      linker::Handler handler, Addr pc,
                      std::uint8_t flags, bool repeat_line);

    /** Append one retire to the trace: its store (if any), then
     *  `ev`, the op's own event. */
    void traceRetire(Addr pc, const BodyEffect &eff,
                     const trace::TraceEvent &ev);

    /** Per-op front end of controlT and retireBodyOp: the I-side
     *  access (`repeat_line`: a proven same-line repeat), the issue
     *  slot, the retire count and the trampoline census. */
    void frontEnd(Addr pc, std::uint8_t flags, bool repeat_line);

    /** I-side access through the verified-touch memo: a proven
     *  itlb+l1i hit costs nothing, anything else takes the full
     *  walk and refills the memo slot. */
    void fetchMemoized(Addr pc);

    void serviceResolver();

    std::uint64_t readData(Addr addr);
    void writeData(Addr addr, std::uint64_t value);

    /**
     * Demand-paging fetch touch: fault in the page backing `va`,
     * charging the fault latency. Called only when
     * params_.demandPaging (gated at the call sites so the
     * overwhelmingly common non-demand arms pay one predictable
     * branch): by execBodyOp for the non-control ops and by
     * controlT for control transfers. Pure latency, so its order
     * against the op's I-side access is immaterial.
     */
    void
    demandTouchFetch(Addr va)
    {
        if (image_->addressSpace().demandTouchFetch(va)) {
            ++cnt_.demandFaults;
            cnt_.cycles += params_.demandFaultCycles;
        }
    }

    /** Demand-paging data touch epilogue: charge any first-touch
     *  faults the enclosed access just took. */
    void
    chargeDemandFaults(std::uint64_t faults_before)
    {
        const std::uint64_t taken =
            image_->addressSpace().demandFaults() - faults_before;
        if (taken != 0) {
            cnt_.demandFaults += taken;
            cnt_.cycles += taken * params_.demandFaultCycles;
        }
    }

    static bool condTaken(isa::CondKind cond, std::uint64_t value);

    CoreParams params_;
    mem::Hierarchy hierarchy_;
    branch::BranchPredictor predictor_;
    std::unique_ptr<core::TrampolineSkipUnit> skipUnit_;

    linker::Image *image_ = nullptr;
    linker::DynamicLinker *linker_ = nullptr;
    std::uint16_t asid_ = 0;

    MachineState state_;

    /**
     * @name Verified-touch memos
     * Direct-mapped (by L1-line low bits) tables of the D-TLB/L1D
     * and I-TLB/L1I slots past walks resolved to
     * (Hierarchy::dataRef / fetchRef). A later access probing the
     * same table slot is settled by dataRepeatAt()/fetchRepeatAt(),
     * which re-verify both pointers by key compare — the key
     * embeds line, ASID, and validity — before touching anything.
     * The memos therefore need NO invalidation protocol at all:
     * ASID switches, snapshot restores, coherence snoops, and
     * evictions all change or clear the keys, and a failed compare
     * simply falls back to the full walk. Direct mapping keeps the
     * probe to a single compare while covering the few lines hot
     * code alternates between (stack + source + destination on the
     * D side, a loop body's line cycle on the I side). Gated off
     * entirely when an L1 line spans pages (one TLB entry vouches
     * for one page); the I memo additionally requires the next-line
     * prefetcher off (callers gate on their fast-fetch flag).
     * @{ */
    struct RepeatMemo
    {
        /** Line tag: fail fast on a plain compare before the
         *  verify derefs the (possibly cold) TLB/cache slots. */
        Addr line = ~Addr{0};
        mem::Hierarchy::RepeatRef ref{};
    };
    /** 32 slots × 24 bytes × two memos stays comfortably host-L1-
     *  resident while covering a ~2KB loop body's line cycle (I
     *  side) and the handful of stack/source/destination/GOT lines
     *  hot code alternates between (D side). */
    static constexpr std::size_t RepeatMemoSlots = 32;
    RepeatMemo dataMemo_[RepeatMemoSlots];
    RepeatMemo fetchMemo_[RepeatMemoSlots];
    std::uint32_t dataLineShift_ = 0;
    std::uint32_t fetchLineShift_ = 0;
    bool dataFastOk_ = false;
    /** True when the I-side memo may be probed at all: next-line
     *  prefetcher off (fetchRepeatAt cannot reproduce its fill) and
     *  L1I lines within one page. */
    bool fetchFastOk_ = false;
    /** @} */
    std::function<void(Addr)> storeSnoopHook_;
    std::function<void()> flushAllHook_;
    RetireObserver *observer_ = nullptr;
    std::unique_ptr<trace::TraceWriter> traceWriter_;

    /** Hot per-instruction counters (one aligned block). */
    CoreCounters cnt_;

    /** Profiler state. */
    std::unordered_map<Addr, std::uint64_t> trampolineCounts_;
    linker::CallSiteTrace trace_;
    std::unordered_set<Addr> tracedSites_;
    bool hasLastCtl_ = false;
    Addr lastCtlVa_ = 0;
    bool lastCtlWasCall_ = false;
};

} // namespace dlsim::cpu

#endif // DLSIM_CPU_CORE_HH
