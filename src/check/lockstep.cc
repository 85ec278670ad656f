#include "check/lockstep.hh"

#include <array>
#include <sstream>

namespace dlsim::check
{

namespace
{

std::string
hexAddr(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

} // namespace

LockstepChecker::LockstepChecker(cpu::Core &core)
    : core_(core), ref_(core.image())
{
    resync();
}

void
LockstepChecker::resync()
{
    ref_.sync(core_.state());
}

void
LockstepChecker::diverge(const std::string &kind,
                         const std::string &detail,
                         std::uint64_t cycle,
                         std::uint64_t retire_index, isa::Addr pc)
{
    std::ostringstream os;
    os << "lockstep divergence [" << kind << "]\n";
    os << "  at cycle " << cycle << ", retired instruction "
       << retire_index << ", pc " << hexAddr(pc) << "\n";
    if (const linker::Slot *slot = core_.image()->decode(pc))
        os << "  inst: " << slot->inst.toString(pc) << "\n";
    os << "  " << detail << "\n";
    os << "  timing pc " << hexAddr(core_.state().pc) << ", ref pc "
       << hexAddr(ref_.state().pc) << "\n";
    if (const auto *unit = core_.skipUnit())
        os << unit->dumpState();
    else
        os << "(skip unit disabled)\n";
    throw LockstepError(os.str());
}

void
LockstepChecker::compareRegs(const cpu::MachineState &timing,
                             std::uint64_t cycle,
                             std::uint64_t retire_index,
                             isa::Addr pc)
{
    const auto &rr = ref_.state().regs;
    for (int r = 0; r < isa::NumRegs; ++r) {
        if (rr[r] == timing.regs[r])
            continue;
        std::ostringstream os;
        os << "register r" << r << ": ref "
           << hexAddr(rr[r]) << ", timing "
           << hexAddr(timing.regs[r]);
        diverge("register", os.str(), cycle, retire_index, pc);
    }
}

void
LockstepChecker::onBeginCall(const cpu::MachineState &state,
                             isa::Addr ret_slot_addr,
                             std::uint64_t ret_value)
{
    // beginCall pokes the magic return address outside the data
    // path; mirror both the poke and the register setup. This does
    // not mask drift: any earlier divergence was already reported
    // at its own retire.
    ref_.state() = state;
    ref_.memory().poke64(ret_slot_addr, ret_value);
}

void
LockstepChecker::onRetire(const cpu::RetireRecord &rec)
{
    ++stats_.checkedRetires;

    if (ref_.state().pc != rec.pc) {
        diverge("pc",
                "timing retired at " + hexAddr(rec.pc) +
                    " but reference is at " +
                    hexAddr(ref_.state().pc),
                rec.cycle, rec.retireIndex, rec.pc);
    }

    RefStep st;
    try {
        st = ref_.step();
    } catch (const RefExecError &e) {
        diverge("ref-fault", e.what(), rec.cycle, rec.retireIndex,
                rec.pc);
    }

    if (st.didStore != rec.didStore) {
        diverge("store-presence",
                std::string("reference ") +
                    (st.didStore ? "stored" : "did not store") +
                    " but timing core " +
                    (rec.didStore ? "stored" : "did not"),
                rec.cycle, rec.retireIndex, rec.pc);
    }
    if (st.didStore && (st.storeAddr != rec.storeAddr ||
                        st.storeValue != rec.storeValue)) {
        diverge("store",
                "ref [" + hexAddr(st.storeAddr) + "] = " +
                    hexAddr(st.storeValue) + ", timing [" +
                    hexAddr(rec.storeAddr) + "] = " +
                    hexAddr(rec.storeValue),
                rec.cycle, rec.retireIndex, rec.pc);
    }
    if (st.nextPc != rec.nextPc) {
        diverge("next-pc",
                "architectural target: ref " + hexAddr(st.nextPc) +
                    ", timing " + hexAddr(rec.nextPc),
                rec.cycle, rec.retireIndex, rec.pc);
    }

    if (rec.substituted) {
        walkSkippedTrampoline(rec);
        ++stats_.verifiedSubstitutions;
    }

    compareRegs(*rec.state, rec.cycle, rec.retireIndex, rec.pc);

    if (ref_.state().halted != rec.state->halted) {
        diverge("halt",
                std::string("ref halted=") +
                    (ref_.state().halted ? "1" : "0") +
                    ", timing halted=" +
                    (rec.state->halted ? "1" : "0"),
                rec.cycle, rec.retireIndex, rec.pc);
    }
}

void
LockstepChecker::walkSkippedTrampoline(const cpu::RetireRecord &rec)
{
    // The timing core jumped straight to rec.effectivePc; the
    // reference must reach it by executing the elided PLT
    // instructions — and nothing else. A stale ABTB entry shows up
    // here: the walk loads the *current* GOT value, so it lands
    // somewhere other than the memoized target (or traps to the
    // resolver) and the checker reports it.
    auto &rs = ref_.state();
    const std::array<std::uint64_t, isa::NumRegs> before = rs.regs;

    int steps = 0;
    while (rs.pc != rec.effectivePc) {
        if (++steps > MaxWalkSteps) {
            diverge("skip-walk",
                    "substituted target " +
                        hexAddr(rec.effectivePc) +
                        " (trampoline " +
                        hexAddr(rec.subTrampoline) +
                        ", GOT slot " + hexAddr(rec.subGotAddr) +
                        ") not reached within " +
                        std::to_string(MaxWalkSteps) + " steps",
                    rec.cycle, rec.retireIndex, rec.pc);
        }
        if (rs.pc == linker::ResolverVa) {
            diverge("skip-target",
                    "substitution to " + hexAddr(rec.effectivePc) +
                        " but the architectural path traps to the "
                        "resolver — stale ABTB entry for "
                        "trampoline " + hexAddr(rec.subTrampoline) +
                        " (GOT slot " + hexAddr(rec.subGotAddr) +
                        " was rewritten without a flush?)",
                    rec.cycle, rec.retireIndex, rec.pc);
        }
        const linker::Slot *slot = core_.image()->decode(rs.pc);
        if (!slot || !(slot->flags & linker::FlagPlt)) {
            diverge("skip-target",
                    "walk from trampoline " +
                        hexAddr(rec.subTrampoline) +
                        " left PLT code at " + hexAddr(rs.pc) +
                        " without reaching substituted target " +
                        hexAddr(rec.effectivePc),
                    rec.cycle, rec.retireIndex, rec.pc);
        }
        RefStep st;
        try {
            st = ref_.step();
        } catch (const RefExecError &e) {
            diverge("ref-fault", e.what(), rec.cycle,
                    rec.retireIndex, rec.pc);
        }
        ++stats_.walkedInstructions;
        if (st.didStore) {
            diverge("skip-walk",
                    "elided PLT instruction at " + hexAddr(st.pc) +
                        " performed a store — a trampoline with "
                        "side effects must not be skipped",
                    rec.cycle, rec.retireIndex, rec.pc);
        }
    }

    // Registers written by the elided instructions (the ARM
    // scratch-register prologue) are ABI call-clobbered: the
    // skipped machine legitimately leaves them unwritten. Adopt the
    // timing core's values so later reads stay in lockstep.
    for (int r = 0; r < isa::NumRegs; ++r) {
        if (rs.regs[r] != before[r])
            rs.regs[r] = rec.state->regs[r];
    }
}

void
LockstepChecker::onResolver(const cpu::ResolverRecord &rec)
{
    ++stats_.resolverReplays;
    auto &rs = ref_.state();

    if (rs.pc != linker::ResolverVa) {
        diverge("resolver",
                "timing core serviced the resolver but reference "
                "is at " + hexAddr(rs.pc),
                rec.cycle, rec.retireIndex, linker::ResolverVa);
    }

    // Replay the trap architecturally: pop the module id and
    // relocation index the PLT pushed, compare operands, perform
    // the same GOT store, branch to the resolved target.
    mem::MemFault fault = mem::MemFault::None;
    const auto module_id =
        ref_.memory().read64(rs.regs[isa::RegSp], fault);
    rs.regs[isa::RegSp] += 8;
    const auto reloc_idx =
        ref_.memory().read64(rs.regs[isa::RegSp], fault);
    rs.regs[isa::RegSp] += 8;
    if (fault != mem::MemFault::None) {
        diverge("resolver", "reference stack unreadable at trap",
                rec.cycle, rec.retireIndex, linker::ResolverVa);
    }
    if (module_id != rec.moduleId || reloc_idx != rec.relocIdx) {
        diverge("resolver",
                "trap operands: ref (module " +
                    std::to_string(module_id) + ", reloc " +
                    std::to_string(reloc_idx) + "), timing (" +
                    std::to_string(rec.moduleId) + ", " +
                    std::to_string(rec.relocIdx) + ")",
                rec.cycle, rec.retireIndex, linker::ResolverVa);
    }
    if (ref_.memory().write64(rec.gotAddr, rec.value) !=
        mem::MemFault::None) {
        diverge("resolver",
                "reference GOT slot " + hexAddr(rec.gotAddr) +
                    " unwritable",
                rec.cycle, rec.retireIndex, linker::ResolverVa);
    }
    rs.pc = rec.target;

    compareRegs(*rec.state, rec.cycle, rec.retireIndex,
                linker::ResolverVa);
}

void
LockstepChecker::onExternalWrite(isa::Addr addr)
{
    ++stats_.externalWrites;
    // A write into a region mapped after the reference memory was
    // forked (a dlopen placed at a fresh address) has nothing to
    // mirror into: the remap itself ends with a resync, which forks
    // the region in with its final contents.
    if (ref_.memory().findRegion(addr) == nullptr)
        return;
    // The new value is already visible in the shared/process
    // address space; mirror it into reference memory.
    ref_.memory().poke64(addr,
                         core_.image()->addressSpace().peek64(addr));
}

} // namespace dlsim::check
