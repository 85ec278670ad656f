#include "check/ref_core.hh"

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

bool
condTaken(isa::CondKind cond, std::uint64_t value)
{
    switch (cond) {
      case isa::CondKind::Eq0:
        return value == 0;
      case isa::CondKind::Ne0:
        return value != 0;
      case isa::CondKind::Lt0:
        return static_cast<std::int64_t>(value) < 0;
      case isa::CondKind::Ge0:
        return static_cast<std::int64_t>(value) >= 0;
    }
    return false;
}

/**
 * ALU result by select, not by switch: all seven results are
 * computed and the one `kind` names is picked. The op mix of a
 * fast-forward run mispredicts a jump table; this costs a few
 * unconditional arithmetic ops and no branch. The index is masked
 * into the eight-entry table (Image::load rejects kinds past Shr;
 * the eighth entry yields 0 for one that slips past).
 */
inline std::uint64_t
aluSelect(isa::AluKind kind, std::uint64_t a, std::uint64_t b)
{
    static_assert(static_cast<int>(isa::AluKind::Add) == 0 &&
                      static_cast<int>(isa::AluKind::Sub) == 1 &&
                      static_cast<int>(isa::AluKind::And) == 2 &&
                      static_cast<int>(isa::AluKind::Or) == 3 &&
                      static_cast<int>(isa::AluKind::Xor) == 4 &&
                      static_cast<int>(isa::AluKind::Mul) == 5 &&
                      static_cast<int>(isa::AluKind::Shr) == 6 &&
                      isa::LastAluKind == isa::AluKind::Shr,
                  "aluSelect's table is in AluKind order");
    const std::uint64_t results[8] = {
        a + b, a - b, a & b, a | b, a ^ b, a * b, a >> (b & 63), 0,
    };
    return results[static_cast<unsigned>(kind) & 7];
}

// The throws of the inlined hot paths live out of line, so the
// string building stays out of the block chains.
[[gnu::noinline, gnu::cold]] [[noreturn]] void
throwMemFault(const char *what, Addr addr, Addr pc)
{
    throw RefExecError(std::string("reference ") + what +
                       " fault at " + hexAddr(addr) + " (pc " +
                       hexAddr(pc) + ")");
}

[[gnu::noinline, gnu::cold]] [[noreturn]] void
throwUndecodable(Addr pc)
{
    throw RefExecError("reference: undecodable pc " + hexAddr(pc));
}

} // namespace

RefCore::RefCore(const linker::Image *image) : image_(image)
{
    mem_ = image_->addressSpace().fork();
}

RefCore::RefCore(const linker::Image *image,
                 mem::AddressSpace *direct)
    : image_(image), direct_(direct)
{
}

void
RefCore::sync(const cpu::MachineState &state)
{
    state_ = state;
    if (!direct_)
        mem_ = image_->addressSpace().fork();
}

[[gnu::always_inline]] inline std::uint64_t
RefCore::read64(Addr addr, Addr pc)
{
    mem::MemFault fault = mem::MemFault::None;
    const auto value = space().read64(addr, fault);
    if (fault != mem::MemFault::None) [[unlikely]]
        throwMemFault("load", addr, pc);
    return value;
}

[[gnu::always_inline]] inline void
RefCore::write64(Addr addr, std::uint64_t value, Addr pc)
{
    if (space().write64(addr, value) != mem::MemFault::None)
        [[unlikely]] throwMemFault("store", addr, pc);
}

template <bool Record>
[[gnu::always_inline]] inline bool
RefCore::execT(const isa::Instruction &inst, RefStep *st, Addr &pc)
{
    const Addr fallthrough = pc + inst.size;
    auto &regs = state_.regs;

    if constexpr (Record) {
        st->pc = pc;
        st->op = inst.op;
    }

    // ALU ops first and without a branch on their operands: operand
    // b is read from a masked register index (an immediate form's
    // NoReg reads some register harmlessly) and selected, and the
    // result is selected from all seven (aluSelect).
    if (inst.op == isa::Opcode::IntAlu) {
        const std::uint64_t reg_b = regs[inst.src2 & (isa::NumRegs - 1)];
        const std::uint64_t b = inst.src2 == isa::NoReg
                                    ? static_cast<std::uint64_t>(
                                          inst.imm)
                                    : reg_b;
        regs[inst.dst] = aluSelect(inst.alu, regs[inst.src1], b);
        if constexpr (Record)
            st->nextPc = fallthrough;
        pc = fallthrough;
        return false;
    }

    Addr nextPc = fallthrough;
    bool taken = false;

    const auto effAddr = [&]() -> Addr {
        return inst.memBase == isa::NoReg
                   ? static_cast<Addr>(inst.imm)
                   : regs[inst.memBase] +
                         static_cast<Addr>(inst.imm);
    };
    const auto load = [&](Addr addr) { return read64(addr, pc); };
    const auto store = [&](Addr addr, std::uint64_t value) {
        if constexpr (Record) {
            st->storeAddr = addr;
            st->storeValue = value;
            st->didStore = true;
        }
        write64(addr, value, pc);
    };

    switch (inst.op) {
      case isa::Opcode::Nop:
      case isa::Opcode::IntAlu: // executed above
      case isa::Opcode::AbtbFlush:
        // The flush is architecturally a nop: it touches no
        // visible state.
        break;
      case isa::Opcode::MovImm:
        regs[inst.dst] = static_cast<std::uint64_t>(inst.imm);
        break;
      case isa::Opcode::Load:
        regs[inst.dst] = load(effAddr());
        break;
      case isa::Opcode::Store:
        store(effAddr(), regs[inst.src1]);
        break;
      case isa::Opcode::Push:
        regs[isa::RegSp] -= 8;
        store(regs[isa::RegSp], regs[inst.src1]);
        break;
      case isa::Opcode::PushImm:
        regs[isa::RegSp] -= 8;
        store(regs[isa::RegSp],
              static_cast<std::uint64_t>(inst.imm));
        break;
      case isa::Opcode::Pop:
        regs[inst.dst] = load(regs[isa::RegSp]);
        regs[isa::RegSp] += 8;
        break;
      case isa::Opcode::CallRel:
      case isa::Opcode::CallIndReg:
      case isa::Opcode::CallIndMem: {
        if (inst.op == isa::Opcode::CallRel) {
            nextPc = fallthrough + static_cast<Addr>(inst.imm);
        } else if (inst.op == isa::Opcode::CallIndReg) {
            nextPc = regs[inst.src1];
        } else {
            nextPc = load(effAddr());
        }
        regs[isa::RegSp] -= 8;
        store(regs[isa::RegSp], fallthrough);
        taken = true;
        break;
      }
      case isa::Opcode::JmpRel:
        nextPc = fallthrough + static_cast<Addr>(inst.imm);
        taken = true;
        break;
      case isa::Opcode::JmpIndReg:
        nextPc = regs[inst.src1];
        taken = true;
        break;
      case isa::Opcode::JmpIndMem:
        nextPc = load(effAddr());
        taken = true;
        break;
      case isa::Opcode::CondBr:
        if (condTaken(inst.cond, regs[inst.src1])) {
            nextPc = fallthrough + static_cast<Addr>(inst.imm);
            taken = true;
        }
        break;
      case isa::Opcode::Ret:
        nextPc = load(regs[isa::RegSp]);
        regs[isa::RegSp] += 8;
        taken = true;
        break;
      case isa::Opcode::Halt:
        state_.halted = true;
        break;
    }

    if constexpr (Record) {
        st->nextPc = nextPc;
        st->taken = taken;
    }
    pc = nextPc;
    return taken || state_.halted;
}

RefStep
RefCore::step()
{
    if (state_.pc == linker::ResolverVa) {
        throw RefExecError(
            "reference core reached the resolver trap outside a "
            "resolver replay (stale skip into the lazy path?)");
    }

    const linker::Slot *slot = image_->decode(state_.pc);
    if (!slot)
        throwUndecodable(state_.pc);

    RefStep st;
    execT<true>(slot->inst, &st, state_.pc);
    return st;
}

RefCore::FastRun
RefCore::runFast(std::uint64_t max_steps, Addr stop_pc)
{
    FastRun r;
    while (r.steps < max_steps) {
        // Chain-entry checks only: the stop sentinels (magic
        // return, resolver trap) are distinguished addresses
        // reachable solely via taken transfers, so block chaining
        // re-tests them only when it follows a taken edge.
        if (state_.halted) {
            r.stop = FastStop::Halted;
            return r;
        }
        Addr pc = state_.pc;
        if (pc == stop_pc) {
            r.stop = FastStop::StopPc;
            return r;
        }
        if (pc == linker::ResolverVa) {
            r.stop = FastStop::Resolver;
            return r;
        }
        std::int32_t bi = image_->blockIndex(pc);
        if (bi < 0)
            throwUndecodable(pc);
        // Chain blocks with pc in a local (execT is inlined, so it
        // stays in a register). Blocks are copied by value and op
        // pointers re-derived per iteration: building a successor
        // can reallocate the arena.
        while (true) {
            const linker::Image::Block b = image_->block(bi);
            const linker::Image::BlockOp *ops = image_->blockOps(b);
            const std::uint64_t remaining = max_steps - r.steps;
            const std::uint32_t body = b.bodyOps;
            if (remaining < body) {
                // Budget lapses mid-body: stop after the last op
                // the budget covers.
                const auto n = static_cast<std::uint32_t>(remaining);
                for (std::uint32_t i = 0; i < n; ++i) {
                    ++r.steps;
                    execT<false>(ops[i].inst, nullptr, pc);
                }
                state_.pc = pc;
                break; // outer condition fails -> tail classifies
            }
            for (std::uint32_t i = 0; i < body; ++i) {
                ++r.steps;
                execT<false>(ops[i].inst, nullptr, pc);
            }
            if (!b.hasTerm) {
                // Capped block or decoded-code edge: mid-chain
                // fall-through, no sentinel checks.
                state_.pc = pc;
                if (r.steps >= max_steps)
                    break;
                std::int32_t succ = b.succFall;
                if (succ < 0) {
                    succ = image_->blockIndex(pc);
                    if (succ < 0)
                        throwUndecodable(pc);
                    image_->memoSuccFall(bi, succ);
                }
                bi = succ;
                continue;
            }
            if (remaining == body) {
                // Budget lapses right before the terminator.
                state_.pc = pc;
                break;
            }
            ++r.steps;
            const isa::Opcode term_op = ops[body].inst.op;
            const bool tk = execT<false>(ops[body].inst, nullptr, pc);
            state_.pc = pc;
            if (state_.halted)
                break; // outer loop / tail classifies Halted
            if (term_op == isa::Opcode::CondBr && !tk) {
                // Not-taken CondBr falls through mid-chain: budget
                // check only.
                if (r.steps >= max_steps)
                    break;
                std::int32_t succ = b.succFall;
                if (succ < 0) {
                    succ = image_->blockIndex(pc);
                    if (succ < 0)
                        throwUndecodable(pc);
                    image_->memoSuccFall(bi, succ);
                }
                bi = succ;
                continue;
            }
            if (term_op == isa::Opcode::JmpRel ||
                term_op == isa::Opcode::CallRel ||
                term_op == isa::Opcode::CondBr) {
                // Taken edge with a static target: re-run the
                // chain-entry checks inline, then follow the
                // memoized successor.
                if (r.steps >= max_steps || pc == stop_pc ||
                    pc == linker::ResolverVa) {
                    break; // outer loop / tail classifies
                }
                std::int32_t succ = b.succTaken;
                if (succ < 0) {
                    succ = image_->blockIndex(pc);
                    if (succ < 0)
                        throwUndecodable(pc);
                    image_->memoSuccTaken(bi, succ);
                }
                bi = succ;
                continue;
            }
            // Indirect transfer (register/memory jump or call,
            // Ret): the target varies, so return to the outer loop
            // and look it up afresh.
            break;
        }
    }
    if (state_.halted)
        r.stop = FastStop::Halted;
    else if (state_.pc == stop_pc)
        r.stop = FastStop::StopPc;
    else if (state_.pc == linker::ResolverVa)
        r.stop = FastStop::Resolver;
    return r;
}

} // namespace dlsim::check
