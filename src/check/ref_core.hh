/**
 * @file
 * RefCore: a minimal in-order *functional* reference core.
 *
 * Executes the same `isa::` instruction stream as the timing
 * `cpu::Core` but models architecturally visible state only —
 * registers, memory, control flow. No caches, no predictor, no
 * skip unit, no cycle accounting. Its memory is a copy-on-write
 * fork of the process image's address space, so the reference and
 * the timing core start byte-identical and pay pages only where
 * execution actually writes.
 *
 * The LockstepChecker steps a RefCore once per timing-core retire
 * and compares the two machines; any divergence is, by
 * construction, a violation of the mechanism's "architecturally
 * identical to the unmodified system" contract (paper §3).
 *
 * A RefCore can alternatively be bound *directly* to an address
 * space instead of forking one. sim::Sampler uses this to
 * fast-forward the live machine between detailed-timing sample
 * windows: functional stores land in the real process image, so
 * when the timing core resumes, architectural state is exactly what
 * exact-mode execution would have produced.
 */

#ifndef DLSIM_CHECK_REF_CORE_HH
#define DLSIM_CHECK_REF_CORE_HH

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "cpu/core.hh"
#include "linker/image.hh"
#include "mem/address_space.hh"

namespace dlsim::check
{

using isa::Addr;

/** Faults during reference execution (bad memory, undecodable pc).
 *  In a lockstep run these are themselves divergences: the timing
 *  core executed the same instruction without faulting. */
class RefExecError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** What one reference step did (for comparison at retire). */
struct RefStep
{
    Addr pc = 0;
    isa::Opcode op = isa::Opcode::Nop;
    /** Pc after the step (architectural next). */
    Addr nextPc = 0;
    /** Control transfer redirected away from fall-through. */
    bool taken = false;
    bool didStore = false;
    Addr storeAddr = 0;
    std::uint64_t storeValue = 0;
};

/** Why a runFast() batch stopped. */
enum class FastStop
{
    Budget,   ///< max_steps executed.
    Resolver, ///< pc reached the lazy-resolver trap.
    StopPc,   ///< pc reached the caller's stop address.
    Halted,   ///< the machine executed Halt.
};

/** The functional reference executor. */
class RefCore
{
  public:
    /** @param image Decode source (shared with the timing core —
     *        patches and dlopen/dlclose stay visible). */
    explicit RefCore(const linker::Image *image);

    /**
     * Direct-memory mode: execute against `direct` (typically the
     * image's own address space) instead of a private fork. Stores
     * are architecturally real — this is the fast-forward engine,
     * not a checker. sync() then only adopts register state.
     */
    RefCore(const linker::Image *image, mem::AddressSpace *direct);

    /**
     * Adopt `state` and (fork mode only) re-fork reference memory
     * from the image's current address space. Call when the two
     * machines are known architecturally identical: at attach,
     * after a snapshot restore, and after a fast-forward phase.
     */
    void sync(const cpu::MachineState &state);

    cpu::MachineState &state() { return state_; }
    const cpu::MachineState &state() const { return state_; }

    /** Reference memory: the private fork, or the directly bound
     *  space. (The checker mirrors external writes and resolver
     *  stores into its fork.) */
    mem::AddressSpace &memory() { return space(); }

    /**
     * Execute exactly one instruction at state().pc. Never services
     * the resolver trap — the checker replays resolver effects from
     * the timing core's ResolverRecord instead. Throws RefExecError
     * on a memory fault, an undecodable pc, or pc == ResolverVa.
     */
    RefStep step();

    /** Result of one runFast() batch. */
    struct FastRun
    {
        std::uint64_t steps = 0;
        FastStop stop = FastStop::Budget;
    };

    /**
     * Execute up to `max_steps` instructions functionally, as fast
     * as the interpreter can go: whole blocks from the image's
     * block cache, chained through the static control edges (direct
     * jumps and calls, both CondBr arms, block fall-through) via
     * successor indices memoized on first traversal, with no
     * per-step event records. Stops *before* executing anything at
     * `stop_pc` or the resolver trap — the caller services the trap
     * (or ends the run) and calls again. Step count, stop class and
     * final state equal a step() loop's that checks the same stops
     * before every step (tests/test_block_dispatch.cc). Throws
     * RefExecError on a memory fault or undecodable pc.
     */
    FastRun runFast(std::uint64_t max_steps, Addr stop_pc);

  private:
    mem::AddressSpace &space() { return direct_ ? *direct_ : *mem_; }
    /**
     * Execute `inst` at `pc`, advancing `pc`; step() fills the
     * per-step record (Record=true), runFast compiles it out and
     * threads a local pc through whole block chains (callers own
     * the state_.pc sync). Force-inlined into both, so the
     * loop-carried pc stays in a register; ALU ops are tested
     * first and evaluated by select, without a jump table.
     * @return True for a taken transfer or a halt.
     */
    template <bool Record>
    bool execT(const isa::Instruction &inst, RefStep *st, Addr &pc);

    /** Inlined memory fast paths; a fault throws RefExecError
     *  naming `addr` and the faulting instruction's `pc` from an
     *  out-of-line cold function. */
    std::uint64_t read64(Addr addr, Addr pc);
    void write64(Addr addr, std::uint64_t value, Addr pc);

    const linker::Image *image_;
    std::unique_ptr<mem::AddressSpace> mem_;
    mem::AddressSpace *direct_ = nullptr;
    cpu::MachineState state_;
};

} // namespace dlsim::check

#endif // DLSIM_CHECK_REF_CORE_HH
