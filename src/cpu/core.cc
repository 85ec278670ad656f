#include "cpu/core.hh"

#include <sstream>

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "snapshot/serializer.hh"

namespace dlsim::cpu
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

/**
 * The ALU result for AluKind index `kind` (the handler pair's
 * index, (handler - AddRR) >> 1), by select: all seven results are
 * computed and one is picked. Masked into the eight-entry table;
 * handlerOf never yields an ALU handler past ShrRI.
 */
inline std::uint64_t
aluSelect(unsigned kind, std::uint64_t a, std::uint64_t b)
{
    using linker::Handler;
    static_assert(static_cast<int>(isa::AluKind::Add) == 0 &&
                      static_cast<int>(isa::AluKind::Sub) == 1 &&
                      static_cast<int>(isa::AluKind::And) == 2 &&
                      static_cast<int>(isa::AluKind::Or) == 3 &&
                      static_cast<int>(isa::AluKind::Xor) == 4 &&
                      static_cast<int>(isa::AluKind::Mul) == 5 &&
                      static_cast<int>(isa::AluKind::Shr) == 6 &&
                      isa::LastAluKind == isa::AluKind::Shr,
                  "aluSelect's table is in AluKind order");
    static_assert(static_cast<int>(Handler::SubRR) ==
                          static_cast<int>(Handler::AddRR) + 2 &&
                      static_cast<int>(Handler::AddRI) ==
                          static_cast<int>(Handler::AddRR) + 1 &&
                      static_cast<int>(Handler::ShrRI) ==
                          static_cast<int>(Handler::AddRR) + 13,
                  "ALU handlers pair RR, RI per kind in AluKind order");
    const std::uint64_t results[8] = {
        a + b, a - b, a & b, a | b, a ^ b, a * b, a >> (b & 63), 0,
    };
    return results[kind & 7];
}

} // namespace

Core::Core(const CoreParams &params, bool for_restore)
    : params_(params), hierarchy_(params.mem, for_restore),
      predictor_(params.predictor)
{
    dataLineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(params_.mem.l1d.lineBytes));
    dataFastOk_ = params_.mem.l1d.lineBytes <= mem::PageBytes;
    fetchLineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(params_.mem.l1i.lineBytes));
    fetchFastOk_ = !params_.mem.iPrefetchNextLine &&
                   params_.mem.l1i.lineBytes <= mem::PageBytes;
    if (params_.skipUnitEnabled) {
        skipUnit_ =
            std::make_unique<core::TrampolineSkipUnit>(params_.skip);
    }
    if (!params_.tracePath.empty()) {
        traceWriter_ =
            std::make_unique<trace::TraceWriter>(params_.tracePath);
    }
}

void
Core::attachProcess(linker::Image *image,
                    linker::DynamicLinker *linker, std::uint16_t asid)
{
    image_ = image;
    linker_ = linker;
    asid_ = asid;
    image_->setFetchLineShift(fetchLineShift_);
    if (skipUnit_)
        skipUnit_->setAsid(asid);
}

void
Core::contextSwitch(linker::Image *image,
                    linker::DynamicLinker *linker, std::uint16_t asid)
{
    if (!params_.asidTlbRetention)
        hierarchy_.flushTlbs();
    predictor_.contextSwitch();
    if (skipUnit_)
        skipUnit_->contextSwitch();
    attachProcess(image, linker, asid);
}

void
Core::setState(const MachineState &state)
{
    state_ = state;
}

void
Core::initStack(Addr stack_top)
{
    state_.regs[isa::RegSp] = stack_top - 64;
}

// The leaf functions of the block dispatcher's body loop are called
// half a billion times on the fig5 grid; the call overhead alone is
// measurable, and -O2 declines to inline them on size grounds.
// Force it: they have only a handful of call sites each.
#if defined(__GNUC__)
#define DLSIM_HOT_INLINE __attribute__((always_inline)) inline
#define DLSIM_NOINLINE __attribute__((noinline))
#else
#define DLSIM_HOT_INLINE inline
#define DLSIM_NOINLINE
#endif

DLSIM_HOT_INLINE std::uint64_t
Core::readData(Addr addr)
{
    ++cnt_.loads;
    // Verified-touch memo probe (see the member doc): a hit is
    // re-proven by key compare inside dataRepeatAt() before
    // anything is touched, so the fast path is exact with no
    // invalidation protocol, and a miss costs one failed compare
    // before the full walk refills the slot.
    const Addr line = addr >> dataLineShift_;
    auto &memo = dataMemo_[line & (RepeatMemoSlots - 1)];
    if (dataFastOk_ && memo.line == line &&
        hierarchy_.dataRepeatAt(memo.ref, addr, asid_)) {
        // Verified dtlb+l1d hit: no extra cycles.
    } else {
        cnt_.cycles += hierarchy_.data(addr, asid_).extraCycles;
        memo = {line, hierarchy_.dataRef()};
    }
    mem::MemFault fault = mem::MemFault::None;
    std::uint64_t value;
    if (params_.demandPaging) {
        auto &as = image_->addressSpace();
        const std::uint64_t before = as.demandFaults();
        value = as.read64(addr, fault);
        chargeDemandFaults(before);
    } else {
        value = image_->addressSpace().read64(addr, fault);
    }
    if (fault != mem::MemFault::None) {
        throw SimError("load fault at " + hexAddr(addr) + " (pc " +
                       hexAddr(state_.pc) + ")");
    }
    return value;
}

DLSIM_HOT_INLINE void
Core::writeData(Addr addr, std::uint64_t value)
{
    ++cnt_.stores;
    // Verified-touch memo probe; see readData for the argument.
    const Addr line = addr >> dataLineShift_;
    auto &memo = dataMemo_[line & (RepeatMemoSlots - 1)];
    if (dataFastOk_ && memo.line == line &&
        hierarchy_.dataRepeatAt(memo.ref, addr, asid_)) {
        // Verified dtlb+l1d hit: no extra cycles.
    } else {
        cnt_.cycles += hierarchy_.data(addr, asid_).extraCycles;
        memo = {line, hierarchy_.dataRef()};
    }
    mem::MemFault fault;
    if (params_.demandPaging) {
        auto &as = image_->addressSpace();
        const std::uint64_t before = as.demandFaults();
        fault = as.write64(addr, value);
        chargeDemandFaults(before);
    } else {
        fault = image_->addressSpace().write64(addr, value);
    }
    if (fault != mem::MemFault::None) {
        throw SimError("store fault at " + hexAddr(addr) + " (pc " +
                       hexAddr(state_.pc) + ")");
    }
    if (storeSnoopHook_)
        storeSnoopHook_(addr);
}

DLSIM_HOT_INLINE bool
Core::condTaken(isa::CondKind cond, std::uint64_t value)
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

void
Core::serviceResolver()
{
    auto &regs = state_.regs;

    // Stack on entry: [sp]=module id (PLT0), [sp+8]=relocation
    // index (PLT entry), [sp+16]=original return address.
    const auto module_id =
        static_cast<std::uint32_t>(readData(regs[isa::RegSp]));
    regs[isa::RegSp] += 8;
    const auto reloc_idx =
        static_cast<std::uint32_t>(readData(regs[isa::RegSp]));
    regs[isa::RegSp] += 8;

    const auto result = linker_->resolve(module_id, reloc_idx);

    // The GOT update is an architectural store: the D-cache sees it
    // and — crucially — the bloom filter snoops it, flushing the
    // ABTB exactly once per symbol, at startup (§3.2).
    writeData(result.gotAddr, result.value);
    if (traceWriter_) {
        trace::TraceEvent ev;
        ev.kind = trace::EventKind::Store;
        ev.pc = linker::ResolverVa;
        ev.addr = result.gotAddr;
        traceWriter_->append(ev);
    }
    retireGotStore(result.gotAddr);

    // Synthetic cost of the symbol hash lookup in ld.so.
    cnt_.instructions += params_.resolverInsts;
    cnt_.cycles += params_.resolverCycles;
    ++cnt_.resolverCalls;

    state_.pc = result.target;

    if (observer_) {
        ResolverRecord rec;
        rec.moduleId = module_id;
        rec.relocIdx = reloc_idx;
        rec.gotAddr = result.gotAddr;
        rec.value = result.value;
        rec.target = result.target;
        rec.cycle = cnt_.cycles;
        rec.retireIndex = cnt_.instructions;
        rec.state = &state_;
        observer_->onResolver(rec);
    }
}

void
Core::retireGotStore(Addr got_addr)
{
    if (!skipUnit_)
        return;
    skipUnit_->retireStore(got_addr);
    // §3.4 alternate implementation: no bloom filter, so the
    // (modified) dynamic linker executes the architecturally
    // visible flush after every GOT update, on every hart.
    if (!params_.skip.explicitInvalidation)
        return;
    if (flushAllHook_)
        flushAllHook_();
    else
        skipUnit_->explicitFlush();
}

DLSIM_HOT_INLINE void
Core::fetchMemoized(Addr pc)
{
    // Exact for the same reason as readData's probe: fetchRepeatAt
    // re-proves the hit by key compare before touching anything.
    const Addr line = pc >> fetchLineShift_;
    auto &memo = fetchMemo_[line & (RepeatMemoSlots - 1)];
    if (fetchFastOk_ && memo.line == line &&
        hierarchy_.fetchRepeatAt(memo.ref, pc, asid_))
        return; // Verified itlb+l1i hit: no extra cycles.
    cnt_.cycles += hierarchy_.fetch(pc, asid_).extraCycles;
    memo = {line, hierarchy_.fetchRef()};
}

DLSIM_HOT_INLINE void
Core::frontEnd(Addr pc, std::uint8_t flags, bool repeat_line)
{
    // Fetch. Base throughput is issueWidth instructions per
    // cycle; miss penalties serialise on top. The repeat-line case
    // is a guaranteed itlb+l1i hit (see Hierarchy::fetchRepeat),
    // which costs zero extra cycles — the same zero a full fetch()
    // would return for it.
    if (repeat_line)
        hierarchy_.fetchRepeat();
    else
        fetchMemoized(pc);
    if (++cnt_.issueSlot >= params_.issueWidth) {
        ++cnt_.cycles;
        cnt_.issueSlot = 0;
    }
    ++cnt_.instructions;
    // Body ops can carry FlagPlt (the ARM prologue ALU ops and the
    // x86 lazy-path pushes) but never FlagPltJmp: the PLT jump is a
    // control transfer, i.e. a block terminator.
    if (flags & linker::FlagPlt) {
        ++cnt_.trampolineInsts;
        if (flags & linker::FlagPltJmp) {
            ++cnt_.trampolineJmps;
            if (params_.profileTrampolines)
                ++trampolineCounts_[pc];
        }
    }
}

DLSIM_HOT_INLINE Core::BodyEffect
Core::execBodyOp(const isa::Instruction &inst, linker::Handler handler,
                 Addr pc)
{
    using linker::Handler;
    // First-touch fault of demand-paged text. Pure latency, so it
    // commutes with the caller's fetch and with the unobserved
    // block loop's batched bookkeeping.
    if (params_.demandPaging)
        demandTouchFetch(pc);
    auto &regs = state_.regs;
    const auto imm = static_cast<std::uint64_t>(inst.imm);

    // The 14 ALU handlers in one range test, then without a branch:
    // operand b by select between a masked register load (an
    // immediate form's NoReg reads some register harmlessly) and
    // the immediate, the result by select from all seven. A jump
    // table over the handlers mispredicts on the op mix.
    const auto alu = static_cast<unsigned>(handler) -
                     static_cast<unsigned>(Handler::AddRR);
    if (alu <= static_cast<unsigned>(Handler::ShrRI) -
                   static_cast<unsigned>(Handler::AddRR)) {
        const std::uint64_t reg_b = regs[inst.src2 & (isa::NumRegs - 1)];
        const std::uint64_t b = alu & 1 ? imm : reg_b;
        regs[inst.dst] = aluSelect(alu >> 1, regs[inst.src1], b);
        if (skipUnit_)
            skipUnit_->retireOther();
        return {};
    }

    BodyEffect eff;
    // Memory ops set state_.pc first so a fault's diagnostic names
    // the faulting op (the unobserved block loop leaves it stale).
    switch (handler) {
      case Handler::Nop:
      case Handler::AddRR: // the ALU handlers: executed above
      case Handler::AddRI:
      case Handler::SubRR:
      case Handler::SubRI:
      case Handler::AndRR:
      case Handler::AndRI:
      case Handler::OrRR:
      case Handler::OrRI:
      case Handler::XorRR:
      case Handler::XorRI:
      case Handler::MulRR:
      case Handler::MulRI:
      case Handler::ShrRR:
      case Handler::ShrRI:
        break;
      case Handler::MovImm:
        regs[inst.dst] = imm;
        break;
      case Handler::LoadBase:
        state_.pc = pc;
        regs[inst.dst] = readData(regs[inst.memBase] + imm);
        break;
      case Handler::LoadAbs:
        state_.pc = pc;
        regs[inst.dst] = readData(imm);
        break;
      case Handler::StoreBase:
        state_.pc = pc;
        eff = {true, regs[inst.memBase] + imm, regs[inst.src1]};
        break;
      case Handler::StoreAbs:
        state_.pc = pc;
        eff = {true, imm, regs[inst.src1]};
        break;
      case Handler::Push:
        state_.pc = pc;
        regs[isa::RegSp] -= 8;
        eff = {true, regs[isa::RegSp], regs[inst.src1]};
        break;
      case Handler::PushImm:
        state_.pc = pc;
        regs[isa::RegSp] -= 8;
        eff = {true, regs[isa::RegSp], imm};
        break;
      case Handler::Pop:
        state_.pc = pc;
        regs[inst.dst] = readData(regs[isa::RegSp]);
        regs[isa::RegSp] += 8;
        break;
      case Handler::AbtbFlush:
        if (skipUnit_)
            skipUnit_->explicitFlush();
        break;
      case Handler::Halt:
        state_.halted = true;
        break;
      case Handler::Control:
        // Control transfers: controlT executes those.
        break;
    }

    if (eff.didStore)
        writeData(eff.storeAddr, eff.storeValue);

    // Retire hook, per op: the bloom filter's store snooping is
    // order-sensitive.
    if (skipUnit_) {
        if (eff.didStore)
            skipUnit_->retireStore(eff.storeAddr);
        else
            skipUnit_->retireOther();
    }
    return eff;
}

void
Core::traceRetire(Addr pc, const BodyEffect &eff,
                  const trace::TraceEvent &ev)
{
    if (eff.didStore) {
        trace::TraceEvent st;
        st.kind = trace::EventKind::Store;
        st.pc = pc;
        st.addr = eff.storeAddr;
        traceWriter_->append(st);
    }
    traceWriter_->append(ev);
}

// Out of line on purpose: the block loops inline execBodyOp
// instead, so this per-op path is hot only with block dispatch off
// or an observer attached, and stepT stays small.
template <bool Observed>
DLSIM_NOINLINE void
Core::retireBodyOp(const isa::Instruction &inst,
                   linker::Handler handler, Addr pc,
                   std::uint8_t flags, bool repeat_line)
{
    frontEnd(pc, flags, repeat_line);
    const BodyEffect eff = execBodyOp(inst, handler, pc);
    state_.pc = pc + inst.size;

    if (traceWriter_) {
        trace::TraceEvent ev;
        ev.kind = trace::EventKind::Other;
        ev.op = inst.op;
        ev.pc = pc;
        traceRetire(pc, eff, ev);
    }

    if constexpr (Observed) {
        RetireRecord rec;
        rec.pc = pc;
        rec.op = inst.op;
        rec.nextPc = state_.pc;
        rec.effectivePc = state_.pc;
        rec.didStore = eff.didStore;
        rec.storeAddr = eff.storeAddr;
        rec.storeValue = eff.storeValue;
        rec.cycle = cnt_.cycles;
        rec.retireIndex = cnt_.instructions;
        rec.state = &state_;
        observer_->onRetire(rec);
    }
}

template <bool Observed>
void
Core::stepT()
{
    if (state_.pc == linker::ResolverVa) {
        serviceResolver();
        return;
    }

    // Decoded afresh on every step: no slot pointer outlives the
    // step, so a dlopen or dlclose between steps (which rebuilds the
    // code index) cannot leave one dangling.
    const linker::Slot *slot = image_->decode(state_.pc);
    if (!slot)
        throw SimError("undecodable pc " + hexAddr(state_.pc));

    const linker::Handler handler = linker::handlerOf(slot->inst);
    if (handler != linker::Handler::Control) {
        retireBodyOp<Observed>(slot->inst, handler, state_.pc,
                               slot->flags, false);
        return;
    }
    controlT<Observed>(slot->inst, state_.pc, slot->flags, false);
}

template <bool Observed>
bool
Core::controlT(const isa::Instruction &inst, Addr pc,
               std::uint8_t flags, bool repeat_line)
{
    const Addr fallthrough = pc + inst.size;

    // Demand-paged library text: the first fetch of a page takes a
    // first-touch fault (charged as pure latency).
    if (params_.demandPaging)
        demandTouchFetch(pc);
    frontEnd(pc, flags, repeat_line);
    const Addr predicted = predictor_.predictNext(inst, pc);

    auto &regs = state_.regs;
    const auto effAddr = [&]() -> Addr {
        return inst.memBase == isa::NoReg
                   ? static_cast<Addr>(inst.imm)
                   : regs[inst.memBase] +
                         static_cast<Addr>(inst.imm);
    };

    Addr next = fallthrough;
    bool redirected = false;
    Addr load_src = 0;
    BodyEffect eff;

    switch (inst.op) {
      case isa::Opcode::CallRel:
      case isa::Opcode::CallIndReg:
      case isa::Opcode::CallIndMem: {
        if (inst.op == isa::Opcode::CallRel) {
            next = fallthrough + static_cast<Addr>(inst.imm);
        } else if (inst.op == isa::Opcode::CallIndReg) {
            next = regs[inst.src1];
        } else {
            load_src = effAddr();
            next = readData(load_src);
        }
        regs[isa::RegSp] -= 8;
        eff = {true, regs[isa::RegSp], fallthrough};
        writeData(eff.storeAddr, eff.storeValue);
        redirected = true;
        break;
      }
      case isa::Opcode::JmpRel:
        next = fallthrough + static_cast<Addr>(inst.imm);
        redirected = true;
        break;
      case isa::Opcode::JmpIndReg:
        next = regs[inst.src1];
        redirected = true;
        break;
      case isa::Opcode::JmpIndMem:
        load_src = effAddr();
        next = readData(load_src);
        redirected = true;
        break;
      case isa::Opcode::CondBr: {
        ++cnt_.condBranches;
        if (condTaken(inst.cond, regs[inst.src1])) {
            next = fallthrough + static_cast<Addr>(inst.imm);
            redirected = true;
        }
        break;
      }
      case isa::Opcode::Ret:
        next = readData(regs[isa::RegSp]);
        regs[isa::RegSp] += 8;
        redirected = true;
        break;
      default:
        // Non-control ops retire through retireBodyOp.
        break;
    }

    // Branch resolution, with the ABTB consulted on the
    // architecturally resolved target (§3.2 back end).
    Addr effective = next;
    bool substituted = false;
    core::AbtbEntry sub_entry;
    if (skipUnit_ && redirected) {
        if (const auto entry = skipUnit_->substituteTarget(next)) {
            if (params_.checkSkips) {
                const auto got_value =
                    image_->addressSpace().peek64(entry->gotAddr);
                if (got_value != entry->function) {
                    throw SimError("ABTB checker: stale entry for "
                                   "trampoline " +
                                   hexAddr(entry->trampoline));
                }
            }
            effective = entry->function;
            substituted = true;
            sub_entry = *entry;
            ++cnt_.skippedTrampolines;
        }
    }
    ++cnt_.branches;
    if (predicted != effective) {
        ++cnt_.mispredicts;
        cnt_.cycles += params_.mispredictPenalty;
        if (inst.op == isa::Opcode::CondBr)
            ++cnt_.condMispredicts;
    }
    predictor_.resolve(inst, pc, redirected, effective);

    // Retire hooks, in program order: the store side of a call
    // retires before its control side arms the pattern detector.
    if (skipUnit_) {
        if (eff.didStore)
            skipUnit_->retireStore(eff.storeAddr);
        skipUnit_->retireControl(inst.op, next, load_src);
    }

    // Retire-stream tracing (the Pin-collection analogue); same
    // store-before-control ordering as the live hooks.
    if (traceWriter_) {
        trace::TraceEvent ev;
        ev.kind = trace::EventKind::Control;
        ev.op = inst.op;
        ev.flags = flags;
        ev.taken = redirected ? 1 : 0;
        ev.pc = pc;
        ev.addr = next;
        ev.loadSrc = load_src;
        traceRetire(pc, eff, ev);
    }

    // Call-site profiler (Pin-tool stand-in): record each PLT
    // trampoline's entering instruction and resolved target.
    if (params_.collectCallSiteTrace) {
        if ((flags & linker::FlagPltJmp) && hasLastCtl_) {
            const linker::Slot *target_slot = image_->decode(next);
            const bool still_lazy =
                next == linker::ResolverVa ||
                (target_slot &&
                 (target_slot->flags & linker::FlagPlt));
            if (!still_lazy &&
                tracedSites_.insert(lastCtlVa_).second) {
                trace_.push_back({lastCtlVa_, pc, next,
                                  !lastCtlWasCall_});
            }
        }
        hasLastCtl_ = true;
        lastCtlVa_ = pc;
        lastCtlWasCall_ = isa::isCall(inst.op);
    }

    // Advance.
    const bool left_path = redirected || effective != fallthrough;
    if (left_path) {
        // Taken transfer: the fetch group ends here.
        if (cnt_.issueSlot != 0) {
            ++cnt_.cycles;
            cnt_.issueSlot = 0;
        }
        state_.pc = effective;
    } else {
        state_.pc = fallthrough;
    }

    if constexpr (Observed) {
        RetireRecord rec;
        rec.pc = pc;
        rec.op = inst.op;
        rec.isControl = true;
        rec.taken = redirected;
        rec.nextPc = next;
        rec.effectivePc = effective;
        rec.substituted = substituted;
        if (substituted) {
            rec.subTrampoline = sub_entry.trampoline;
            rec.subFunction = sub_entry.function;
            rec.subGotAddr = sub_entry.gotAddr;
        }
        rec.didStore = eff.didStore;
        rec.storeAddr = eff.storeAddr;
        rec.storeValue = eff.storeValue;
        rec.loadSrc = load_src;
        rec.cycle = cnt_.cycles;
        rec.retireIndex = cnt_.instructions;
        rec.state = &state_;
        observer_->onRetire(rec);
    }
    return left_path;
}

template <bool Observed>
std::uint64_t
Core::runLoopT(std::uint64_t max_insts)
{
    const std::uint64_t start = cnt_.instructions;
    while (!state_.halted && state_.pc != MagicReturnVa &&
           cnt_.instructions - start < max_insts) {
        stepT<Observed>();
    }
    return cnt_.instructions - start;
}

template <bool Observed>
std::uint64_t
Core::runBlockLoopT(std::uint64_t max_insts)
{
    const std::uint64_t start = cnt_.instructions;

    // Same-line repeat fetches can skip the full hierarchy walk:
    // lines are aligned power-of-two runs, so with lineBytes <=
    // PageBytes a same-line pc is also same-page, and nothing
    // between two body-op fetches touches the I-side structures —
    // body ops access only the D side. The next-line prefetcher
    // would break that guarantee (it fills L1I between fetches), so
    // it disables the fast path (fetchFastOk_). The blocks carry
    // their line runs (BlockOp::lineRun, Block::termSameLine),
    // computed for this core's L1I line (attachProcess).
    const bool fast_fetch = fetchFastOk_;
    const std::uint32_t line_shift = fetchLineShift_;

    // L1I line of the most recent instruction fetch when that was
    // the last op of the block just left (unobserved loop only): a
    // body op on it is a guaranteed repeat hit. The no-line sentinel
    // whenever anything other than a plain fetch may have touched
    // the I side since.
    Addr last_line = ~Addr{0};

    // Carried block index: control edges memoize their successor
    // in the Block itself — the static taken and fall-through edges
    // and the last indirect landing — so steady-state dispatch
    // follows an index instead of re-probing the hash table.
    // Negative means "probe by pc"; `memo_from` is then the block
    // whose indirect landing the probe's result is memoized for.
    // Memos are stored in blocks_ and die with it on any flush;
    // block indices are stable otherwise (the cache only appends).
    std::int32_t bi = -1;
    std::int32_t memo_from = -1;

    while (!state_.halted && state_.pc != MagicReturnVa &&
           cnt_.instructions - start < max_insts) {
        if (state_.pc == linker::ResolverVa) {
            // May patch code and flush the block cache; never hold
            // block pointers or indices across it.
            serviceResolver();
            last_line = ~Addr{0};
            bi = -1;
            memo_from = -1;
            continue;
        }
        if (bi < 0) {
            bi = image_->blockIndex(state_.pc);
            if (bi < 0) {
                // Not decodable: take the per-instruction step so
                // the "undecodable pc" error path is byte-identical.
                stepT<Observed>();
                last_line = ~Addr{0};
                memo_from = -1;
                continue;
            }
            if (memo_from >= 0)
                image_->memoSuccIndirect(memo_from, state_.pc, bi);
            memo_from = -1;
        }
        const linker::Image::Block &b = image_->block(bi);
        const linker::Image::BlockOp *ops = image_->blockOps(b);
        const std::uint64_t remaining =
            max_insts - (cnt_.instructions - start);
        const std::uint32_t body = b.bodyOps;
        const std::uint32_t n =
            remaining < body ? static_cast<std::uint32_t>(remaining)
                             : body;
        if constexpr (Observed) {
            // Per-op bookkeeping, exactly as stepT retires a body op,
            // so the observer sees every retire's cycle and index.
            // Every op of a line run but its first is a repeat.
            std::uint32_t run_left = 0;
            for (std::uint32_t i = 0; i < n; ++i) {
                const bool repeat = run_left != 0;
                run_left = repeat ? run_left - 1 : ops[i].lineRun;
                retireBodyOp<true>(ops[i].inst, ops[i].handler,
                                   ops[i].va, ops[i].flags,
                                   fast_fetch && repeat);
            }
        } else {
            // Bulk bookkeeping for the whole straight-line run. Each
            // op does `if (++issueSlot >= W) { ++cycles; slot = 0; }`,
            // so n ops from slot s wrap floor((s+n)/W) times and land
            // on (s+n) mod W; cycle additions commute, and nothing
            // unobserved reads the counters mid-block, so the block-
            // end totals are byte-identical to the per-op sequence.
            // (32-bit: s < W and n <= MaxBlockOps.)
            const std::uint32_t slots = cnt_.issueSlot + n;
            cnt_.cycles += slots / params_.issueWidth;
            cnt_.issueSlot = slots % params_.issueWidth;
            cnt_.instructions += n;
            if (n == body) {
                cnt_.trampolineInsts += b.pltBodyOps;
            } else {
                for (std::uint32_t i = 0; i < n; ++i) {
                    if (ops[i].flags & linker::FlagPlt)
                        ++cnt_.trampolineInsts;
                }
            }
            if (!fast_fetch) {
                for (std::uint32_t i = 0; i < n; ++i) {
                    fetchMemoized(ops[i].va);
                    execBodyOp(ops[i].inst, ops[i].handler, ops[i].va);
                }
            } else {
                // One memoized fetch per L1I-line run (loop bodies
                // re-walk the same short cycle of lines, so it is
                // usually a proven hit), then one batched repeat for
                // the rest of the run: fetch and execute the head,
                // then the rest. A first run on the line of the
                // previous block's last fetch repeats as a whole.
                std::uint32_t i = 0;
                if (n != 0 && (ops[0].va >> line_shift) == last_line) {
                    i = std::min(n, 1u + ops[0].lineRun);
                    hierarchy_.fetchRepeatN(i);
                    for (std::uint32_t k = 0; k < i; ++k)
                        execBodyOp(ops[k].inst, ops[k].handler,
                                   ops[k].va);
                }
                while (i < n) {
                    const std::uint32_t end =
                        std::min(n, i + 1 + ops[i].lineRun);
                    fetchMemoized(ops[i].va);
                    execBodyOp(ops[i].inst, ops[i].handler, ops[i].va);
                    if (++i == end)
                        continue;
                    hierarchy_.fetchRepeatN(end - i);
                    for (; i < end; ++i)
                        execBodyOp(ops[i].inst, ops[i].handler,
                                   ops[i].va);
                }
            }
        }
        if (n < body) {
            // Quantum boundary mid-body: resume at the next op,
            // exactly where the per-instruction loop would stop.
            state_.pc = ops[n].va;
            break;
        }
        if (!b.hasTerm) {
            // Capped block or run off decoded code: fall through.
            last_line = ops[body - 1].va >> line_shift;
            state_.pc = b.endVa;
            std::int32_t succ = b.succFall;
            if (succ < 0) {
                succ = image_->blockIndex(b.endVa);
                if (succ >= 0)
                    image_->memoSuccFall(bi, succ);
            }
            bi = succ;
            continue;
        }
        if (remaining == body) {
            // Quantum boundary right before the terminator.
            state_.pc = b.endVa;
            break;
        }
        // The terminator, read from the block. Copy it and the
        // memos first: block storage must not be assumed stable
        // across its execution. When it shares an L1I line with the
        // last body op — the previous instruction fetched, in both
        // body paths — its fetch is a guaranteed repeat: body ops
        // touch only the D side, so the I-side repeat pointers still
        // name that line (ready() turns false if anything unusual
        // intervened).
        const linker::Image::BlockOp term = ops[body];
        const bool repeat = fast_fetch && b.termSameLine &&
                            hierarchy_.fetchRepeatReady();
        const std::int32_t memo_fall = b.succFall;
        const std::int32_t memo_taken = b.succTaken;
        const std::int32_t memo_indirect = b.succIndirect;
        const Addr memo_indirect_va = b.succIndirectVa;
        state_.pc = term.va;
        if (term.handler != linker::Handler::Control) {
            // Halt ends the block but transfers nothing: it retires
            // as a body op.
            retireBodyOp<Observed>(term.inst, term.handler, term.va,
                                   term.flags, repeat);
            bi = -1;
            continue;
        }
        controlT<Observed>(term.inst, term.va, term.flags, repeat);
        // controlT's last I-side operation is its fetch of term.va
        // (an ABTB substitution adds no fetch).
        last_line = term.va >> line_shift;
        // Follow the edge the transfer took: a static edge through
        // its memo, any other landing (indirect target, ABTB
        // substitution, resolver trap) through the indirect memo
        // when it matches, else by a probe at the loop top.
        const isa::Opcode term_op = term.inst.op;
        const Addr term_fall = term.va + term.inst.size;
        const bool term_static = term_op == isa::Opcode::JmpRel ||
                                 term_op == isa::Opcode::CallRel ||
                                 term_op == isa::Opcode::CondBr;
        if (term_op == isa::Opcode::CondBr &&
            state_.pc == term_fall) {
            std::int32_t succ = memo_fall;
            if (succ < 0) {
                succ = image_->blockIndex(state_.pc);
                if (succ >= 0)
                    image_->memoSuccFall(bi, succ);
            }
            bi = succ;
        } else if (term_static &&
                   state_.pc ==
                       term_fall + static_cast<Addr>(term.inst.imm)) {
            std::int32_t succ = memo_taken;
            if (succ < 0) {
                succ = image_->blockIndex(state_.pc);
                if (succ >= 0)
                    image_->memoSuccTaken(bi, succ);
            }
            bi = succ;
        } else if (memo_indirect >= 0 &&
                   state_.pc == memo_indirect_va) {
            bi = memo_indirect;
        } else {
            memo_from = bi;
            bi = -1;
        }
    }
    return cnt_.instructions - start;
}

std::uint64_t
Core::run(std::uint64_t max_insts)
{
    // The D-side memo deliberately survives run() boundaries:
    // every hit is re-verified by key compare against the current
    // ASID and cache/TLB contents, so context switches, snapshot
    // restores, and cross-quantum invalidations are all caught by
    // the verification itself (see DataMemo).
    // Trace recording logs an event per retired op, so it keeps the
    // per-instruction loop; otherwise block dispatch is a pure
    // speed-up with identical observables.
    if (params_.blockDispatch && !traceWriter_) {
        return observer_ ? runBlockLoopT<true>(max_insts)
                         : runBlockLoopT<false>(max_insts);
    }
    return observer_ ? runLoopT<true>(max_insts)
                     : runLoopT<false>(max_insts);
}

void
Core::beginCall(Addr function, std::uint64_t arg0,
                std::uint64_t arg1, std::uint64_t arg2)
{
    state_.halted = false;
    state_.regs[isa::RegArg0] = arg0;
    state_.regs[isa::RegArg1] = arg1;
    state_.regs[isa::RegArg2] = arg2;

    state_.regs[isa::RegSp] -= 8;
    image_->addressSpace().poke64(state_.regs[isa::RegSp],
                                  MagicReturnVa);
    state_.pc = function;

    if (observer_) {
        observer_->onBeginCall(state_, state_.regs[isa::RegSp],
                               MagicReturnVa);
    }
}

bool
Core::runQuantum(std::uint64_t max_insts)
{
    run(max_insts);
    return state_.halted || state_.pc == MagicReturnVa;
}

Core::CallResult
Core::callFunction(Addr function, std::uint64_t arg0,
                   std::uint64_t arg1, std::uint64_t arg2)
{
    beginCall(function, arg0, arg1, arg2);

    const std::uint64_t insts0 = cnt_.instructions;
    const std::uint64_t cycles0 = cnt_.cycles;
    run(UINT64_MAX);

    CallResult result;
    result.instructions = cnt_.instructions - insts0;
    result.cycles = cnt_.cycles - cycles0;
    result.returnValue = state_.regs[isa::RegRet];
    return result;
}

PerfCounters
Core::counters() const
{
    PerfCounters c;
    c.instructions = cnt_.instructions;
    c.cycles = cnt_.cycles;
    c.trampolineInsts = cnt_.trampolineInsts;
    c.trampolineJmps = cnt_.trampolineJmps;
    c.skippedTrampolines = cnt_.skippedTrampolines;
    c.loads = cnt_.loads;
    c.stores = cnt_.stores;
    c.branches = cnt_.branches;
    c.mispredicts = cnt_.mispredicts;
    c.condBranches = cnt_.condBranches;
    c.condMispredicts = cnt_.condMispredicts;
    c.l1iMisses = hierarchy_.l1i().misses();
    c.l1dMisses = hierarchy_.l1d().misses();
    c.l2Misses = hierarchy_.l2().misses();
    c.l3Misses = hierarchy_.l3().misses();
    c.itlbMisses = hierarchy_.itlb().misses();
    c.dtlbMisses = hierarchy_.dtlb().misses();
    c.btbLookups = predictor_.btb().lookups();
    c.btbMisses = predictor_.btb().misses();
    c.resolverCalls = cnt_.resolverCalls;
    c.demandFaults = cnt_.demandFaults;
    return c;
}

void
Core::clearStats()
{
    const std::uint32_t slot = cnt_.issueSlot;
    cnt_ = CoreCounters{};
    cnt_.issueSlot = slot;
    hierarchy_.clearStats();
    predictor_.clearStats();
    if (skipUnit_)
        skipUnit_->clearStats();
}

void
Core::reportMetrics(stats::MetricsRegistry &reg,
                    const std::string &prefix) const
{
    counters().reportMetrics(reg, prefix + ".cpu");
    hierarchy_.reportMetrics(reg, prefix + ".cpu");
    predictor_.reportMetrics(reg, prefix + ".cpu");
    if (skipUnit_)
        skipUnit_->reportMetrics(reg, prefix + ".core");
}

void
Core::clearCallSiteTrace()
{
    trace_.clear();
    tracedSites_.clear();
    hasLastCtl_ = false;
}

void
Core::onExternalGotWrite(Addr addr)
{
    if (skipUnit_)
        skipUnit_->coherenceInvalidate(addr);
    // The write lands in this process's address space, so the stale
    // copy to drop is this ASID's — a targeted invalidation, not a
    // physical snoop.
    hierarchy_.invalidateDataLine(addr, asid_);
    if (observer_)
        observer_->onExternalWrite(addr);
}

void
Core::closeTrace()
{
    if (traceWriter_)
        traceWriter_->close();
}


void
Core::save(snapshot::Serializer &s) const
{
    s.beginStruct("cpu");
    for (const std::uint64_t r : state_.regs)
        s.u64(r);
    s.u64(state_.pc);
    s.boolean(state_.halted);
    s.u32(cnt_.issueSlot);
    s.u16(asid_);
    s.u64(cnt_.instructions);
    s.u64(cnt_.cycles);
    s.u64(cnt_.trampolineInsts);
    s.u64(cnt_.trampolineJmps);
    s.u64(cnt_.skippedTrampolines);
    s.u64(cnt_.loads);
    s.u64(cnt_.stores);
    s.u64(cnt_.branches);
    s.u64(cnt_.mispredicts);
    s.u64(cnt_.condBranches);
    s.u64(cnt_.condMispredicts);
    s.u64(cnt_.resolverCalls);
    s.u64(cnt_.demandFaults);
    // Profiler maps/sets are unordered; emit sorted for stable
    // bytes.
    std::vector<std::pair<Addr, std::uint64_t>> counts(
        trampolineCounts_.begin(), trampolineCounts_.end());
    std::sort(counts.begin(), counts.end());
    s.u64(counts.size());
    for (const auto &[va, n] : counts) {
        s.u64(va);
        s.u64(n);
    }
    s.u64(trace_.size());
    for (const linker::CallSiteRecord &r : trace_) {
        s.u64(r.callVa);
        s.u64(r.trampolineVa);
        s.u64(r.targetVa);
        s.boolean(r.tailJump);
    }
    std::vector<Addr> traced(tracedSites_.begin(),
                             tracedSites_.end());
    std::sort(traced.begin(), traced.end());
    s.u64(traced.size());
    for (const Addr va : traced)
        s.u64(va);
    s.boolean(hasLastCtl_);
    s.u64(lastCtlVa_);
    s.boolean(lastCtlWasCall_);
    s.boolean(skipUnit_ != nullptr);
    s.endStruct();
    hierarchy_.save(s);
    predictor_.save(s);
    if (skipUnit_)
        skipUnit_->save(s);
}

void
Core::load(snapshot::Deserializer &d)
{
    d.enterStruct("cpu");
    for (std::uint64_t &r : state_.regs)
        r = d.u64();
    state_.pc = d.u64();
    state_.halted = d.boolean();
    cnt_.issueSlot = d.u32();
    asid_ = d.u16();
    cnt_.instructions = d.u64();
    cnt_.cycles = d.u64();
    cnt_.trampolineInsts = d.u64();
    cnt_.trampolineJmps = d.u64();
    cnt_.skippedTrampolines = d.u64();
    cnt_.loads = d.u64();
    cnt_.stores = d.u64();
    cnt_.branches = d.u64();
    cnt_.mispredicts = d.u64();
    cnt_.condBranches = d.u64();
    cnt_.condMispredicts = d.u64();
    cnt_.resolverCalls = d.u64();
    cnt_.demandFaults = d.u64();
    trampolineCounts_.clear();
    const std::size_t ncounts = d.count<std::uint64_t>(16);
    trampolineCounts_.reserve(ncounts);
    for (std::uint64_t i = 0; i < ncounts; ++i) {
        const Addr va = d.u64();
        trampolineCounts_[va] = d.u64();
    }
    trace_.clear();
    const std::size_t ntrace = d.count<std::uint64_t>(25);
    trace_.reserve(ntrace);
    for (std::uint64_t i = 0; i < ntrace; ++i) {
        linker::CallSiteRecord r;
        r.callVa = d.u64();
        r.trampolineVa = d.u64();
        r.targetVa = d.u64();
        r.tailJump = d.boolean();
        trace_.push_back(r);
    }
    tracedSites_.clear();
    const std::size_t ntraced = d.count<std::uint64_t>(8);
    tracedSites_.reserve(ntraced);
    for (std::uint64_t i = 0; i < ntraced; ++i)
        tracedSites_.insert(d.u64());
    hasLastCtl_ = d.boolean();
    lastCtlVa_ = d.u64();
    lastCtlWasCall_ = d.boolean();
    d.checkBool(skipUnit_ != nullptr, "skip unit presence");
    d.leaveStruct();
    hierarchy_.load(d);
    predictor_.load(d);
    if (skipUnit_)
        skipUnit_->load(d);
}

void
Core::resetSkipUnit(bool enabled,
                    const core::SkipUnitParams &skip)
{
    params_.skipUnitEnabled = enabled;
    params_.skip = skip;
    if (!enabled) {
        skipUnit_.reset();
        return;
    }
    skipUnit_ = std::make_unique<core::TrampolineSkipUnit>(skip);
    skipUnit_->setAsid(asid_);
}

} // namespace dlsim::cpu
