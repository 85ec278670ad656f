/**
 * @file
 * Retire-stream observer interface.
 *
 * The timing core publishes one record per architectural event — a
 * retired instruction, a serviced resolver trap, a call setup, an
 * external (cross-core or dlclose) write — to an attached observer.
 * The lockstep checker in src/check implements this interface to
 * replay every event on a functional reference core and compare
 * architectural state instruction by instruction; dlsim_cpu itself
 * has no dependency on the checker.
 *
 * Records carry the *architectural* view (the resolved target before
 * any ABTB substitution) alongside the effective view (after
 * substitution), so an observer can verify that a substituted target
 * is reachable from the architectural one by executing trampoline
 * instructions only.
 */

#ifndef DLSIM_CPU_RETIRE_OBSERVER_HH
#define DLSIM_CPU_RETIRE_OBSERVER_HH

#include <cstdint>

#include "isa/instruction.hh"

namespace dlsim::cpu
{

struct MachineState;

/** One retired instruction, as the timing core saw it. */
struct RetireRecord
{
    isa::Addr pc = 0;
    isa::Opcode op = isa::Opcode::Nop;
    bool isControl = false;
    /** Control transfer actually redirected (taken). */
    bool taken = false;
    /** Architecturally resolved next pc (before substitution);
     *  the fall-through for non-control instructions. */
    isa::Addr nextPc = 0;
    /** Pc the core will actually fetch next (after substitution). */
    isa::Addr effectivePc = 0;

    /** ABTB substitution applied to this transfer. */
    bool substituted = false;
    isa::Addr subTrampoline = 0; ///< ABTB key (== nextPc).
    isa::Addr subFunction = 0;   ///< Memoized target (== effectivePc).
    isa::Addr subGotAddr = 0;    ///< Guarded GOT slot.

    bool didStore = false;
    isa::Addr storeAddr = 0;
    std::uint64_t storeValue = 0;
    /** Load-source address of memory-indirect transfers (GOT slot). */
    isa::Addr loadSrc = 0;

    std::uint64_t cycle = 0;       ///< Core cycle count at retire.
    std::uint64_t retireIndex = 0; ///< Instructions retired so far.

    /** Post-retire architectural state (registers, pc, halted). */
    const MachineState *state = nullptr;
};

/** One serviced lazy-resolver trap. */
struct ResolverRecord
{
    std::uint32_t moduleId = 0;
    std::uint32_t relocIdx = 0;
    isa::Addr gotAddr = 0;       ///< Slot the resolver stored to.
    std::uint64_t value = 0;     ///< Value stored (resolved addr).
    isa::Addr target = 0;        ///< Pc after the trap returns.
    std::uint64_t cycle = 0;
    std::uint64_t retireIndex = 0;
    const MachineState *state = nullptr;
};

/**
 * Observer of one core's architectural event stream. All hooks are
 * invoked synchronously on the simulation thread, in program order.
 */
class RetireObserver
{
  public:
    virtual ~RetireObserver() = default;

    /**
     * Core::beginCall completed: registers are set up and the magic
     * return address has been poked at [sp] (bypassing the data
     * path). `state` is the post-setup machine state.
     */
    virtual void onBeginCall(const MachineState &state,
                             isa::Addr ret_slot_addr,
                             std::uint64_t ret_value) = 0;

    /** One instruction retired. */
    virtual void onRetire(const RetireRecord &rec) = 0;

    /** One resolver trap serviced (GOT store already performed). */
    virtual void onResolver(const ResolverRecord &rec) = 0;

    /**
     * A write to this core's address space performed outside its
     * own data path (cross-core store, dlclose, harness event). The
     * new value is already visible in the shared address space.
     */
    virtual void onExternalWrite(isa::Addr addr) = 0;

    /**
     * The core's architectural state was replaced wholesale after a
     * functional fast-forward phase (sim::Sampler): the
     * skipped retires were executed on a functional engine with
     * stores applied to the real address space, and `state` is the
     * machine at the point detailed execution resumes. An observer
     * tracking state (the lockstep checker) must re-adopt it, as it
     * would after a snapshot restore. Default: ignore.
     */
    virtual void onFastForward(const MachineState &state)
    {
        (void)state;
    }
};

} // namespace dlsim::cpu

#endif // DLSIM_CPU_RETIRE_OBSERVER_HH
