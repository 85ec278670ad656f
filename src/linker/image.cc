#include "linker/image.hh"

#include "isa/opcode.hh"
#include "snapshot/serializer.hh"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace dlsim::linker
{

namespace
{

/** Empty sentinel for the block table's value array (no tombstones:
 *  the block cache is only ever flushed wholesale). */
constexpr std::int32_t BlockEmpty = -1;

/** A block terminator: any control transfer, or Halt. Everything
 *  else (including AbtbFlush, which is a hint, not a transfer) is
 *  straight-line body. */
inline bool
endsBlock(isa::Opcode op)
{
    return isa::isControl(op) || op == isa::Opcode::Halt;
}

/** Snapshot record of one slot: u64 va, u8 flags, u16 moduleId, u16
 *  pltIndex, eight u8 instruction fields, i64 imm. */
constexpr std::size_t SlotWireBytes = 29;

} // namespace

void
CodeIndex::reset(std::uint64_t capacity)
{
    mask_ = capacity - 1;
    keys_.assign(capacity, 0);
    vals_.assign(capacity, None);
}

void
CodeIndex::insert(Addr va, std::uint32_t slot)
{
    std::uint64_t i = hash(va) & mask_;
    while (vals_[i] != None) {
        if (keys_[i] == va)
            return;
        i = (i + 1) & mask_;
    }
    keys_[i] = va;
    vals_[i] = slot;
}

void
CodeIndex::erase(Addr va, std::uint32_t slot)
{
    std::uint64_t hole = hash(va) & mask_;
    while (true) {
        if (vals_[hole] == None)
            return;
        if (keys_[hole] == va)
            break;
        hole = (hole + 1) & mask_;
    }
    if (vals_[hole] != slot)
        return;
    // Backward shift: walk the rest of the cluster and move back
    // into the hole every entry whose home bucket does not lie
    // cyclically in (hole, j] — a probe for it would start at or
    // before the hole and must not meet an empty bucket there.
    for (std::uint64_t j = (hole + 1) & mask_; vals_[j] != None;
         j = (j + 1) & mask_) {
        const std::uint64_t home = hash(keys_[j]) & mask_;
        if (((j - home) & mask_) < ((j - hole) & mask_))
            continue; // home in (hole, j]: reachable as is
        keys_[hole] = keys_[j];
        vals_[hole] = vals_[j];
        hole = j;
    }
    keys_[hole] = 0;
    vals_[hole] = None;
}

Image::Image() : as_(std::make_unique<mem::AddressSpace>()) {}

const Slot *
Image::decode(Addr va) const
{
    const std::uint32_t index = findSlot(va);
    if (index == NoSlot) {
        ++decodeMisses_;
        return nullptr;
    }
    ++decodeHits_;
    return &slots_[index];
}

Slot *
Image::decodeMutable(Addr va)
{
    const std::uint32_t index = findSlot(va);
    if (index == NoSlot)
        return nullptr;
    // The caller is about to rewrite this slot in place (software
    // call-site patching). The index maps va -> slot, so it stays
    // valid, but any cached block may hold a pre-decoded copy of
    // this slot in its body.
    invalidateBlocks();
    return &slots_[index];
}

std::int32_t
Image::blockIndex(Addr head) const
{
    if (blockMask_ != 0) {
        std::uint64_t i = CodeIndex::hash(head) & blockMask_;
        while (blockVals_[i] != BlockEmpty) {
            if (blockKeys_[i] == head) {
                ++blockHits_;
                return blockVals_[i];
            }
            i = (i + 1) & blockMask_;
        }
    }
    return buildBlock(head);
}

std::int32_t
Image::buildBlock(Addr head) const
{
    // findSlot, not decode(): block building must not perturb the
    // decode() counters relative to per-instruction dispatch.
    std::uint32_t cur = findSlot(head);
    if (cur == NoSlot)
        return BlockEmpty;

    Block b;
    b.headVa = head;
    b.firstOp = static_cast<std::uint32_t>(blockOps_.size());
    Addr va = head;
    while (true) {
        const Slot &s = slots_[cur];
        if (endsBlock(s.inst.op)) {
            b.hasTerm = true;
            b.endVa = va;
            blockOps_.push_back(
                {s.inst, s.va, s.flags, handlerOf(s.inst)});
            break;
        }
        if (b.bodyOps == MaxBlockOps) {
            b.endVa = va; // capped: resume here, no terminator
            break;
        }
        blockOps_.push_back(
            {s.inst, s.va, s.flags, handlerOf(s.inst)});
        ++b.bodyOps;
        if (s.flags & FlagPlt)
            ++b.pltBodyOps;
        va += s.inst.size;
        // Adjacency first, then the index.
        const std::uint32_t next = cur + 1;
        if (next < slots_.size() && slots_[next].va == va) {
            cur = next;
            continue;
        }
        cur = findSlot(va);
        if (cur == NoSlot) {
            b.endVa = va; // runs off decoded code; resume at va
            break;
        }
    }

    // I-line runs, back to front: body vas ascend, so the ops that
    // share a line are consecutive.
    BlockOp *ops = blockOps_.data() + b.firstOp;
    const auto same_line = [this](Addr x, Addr y) {
        return ((x ^ y) >> fetchLineShift_) == 0;
    };
    for (std::uint32_t i = b.bodyOps; i-- > 1;) {
        if (same_line(ops[i - 1].va, ops[i].va))
            ops[i - 1].lineRun =
                static_cast<std::uint8_t>(ops[i].lineRun + 1);
    }
    b.termSameLine = b.hasTerm && b.bodyOps != 0 &&
                     same_line(ops[b.bodyOps - 1].va, b.endVa);

    const auto index = static_cast<std::int32_t>(blocks_.size());
    blocks_.push_back(b);
    ++blockBuilds_;
    if (blockMask_ == 0 || 2 * blocks_.size() > blockMask_ + 1)
        blockTableGrow();
    else
        blockTableInsert(head, index);
    return index;
}

void
Image::blockTableInsert(Addr va, std::int32_t index) const
{
    std::uint64_t i = CodeIndex::hash(va) & blockMask_;
    while (blockVals_[i] != BlockEmpty)
        i = (i + 1) & blockMask_;
    blockKeys_[i] = va;
    blockVals_[i] = index;
}

void
Image::blockTableGrow() const
{
    const std::uint64_t capacity = std::bit_ceil(
        std::max<std::uint64_t>(1024, 4 * blocks_.size()));
    blockMask_ = capacity - 1;
    blockKeys_.assign(capacity, 0);
    blockVals_.assign(capacity, BlockEmpty);
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        blockTableInsert(blocks_[i].headVa,
                         static_cast<std::int32_t>(i));
    }
}

void
Image::invalidateBlocks()
{
    if (blocks_.empty())
        return;
    blocks_.clear();
    blockOps_.clear();
    blockKeys_.clear();
    blockVals_.clear();
    blockMask_ = 0;
    ++blockGen_;
    ++blockFlushes_;
}

void
Image::adoptAddressSpace(std::unique_ptr<mem::AddressSpace> as)
{
    as_ = std::move(as);
}

std::unique_ptr<mem::AddressSpace>
Image::releaseAddressSpace()
{
    return std::move(as_);
}

std::size_t
Image::findModule(const std::string &name) const
{
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        if (modules_[i].loaded && modules_[i].module.name() == name)
            return i;
    }
    return SIZE_MAX;
}

bool
Image::lookupExport(const std::string &name, std::size_t &module_id,
                    const elf::Export *&exp,
                    std::uint16_t ns) const
{
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        if (!modules_[i].loaded || modules_[i].namespaceId != ns)
            continue;
        const auto &exports = modules_[i].module.exports();
        const auto it = exports.find(name);
        if (it != exports.end()) {
            module_id = i;
            exp = &it->second;
            return true;
        }
    }
    return false;
}

Addr
Image::symbolAddress(const std::string &name, std::uint16_t ns) const
{
    std::size_t module_id = 0;
    const elf::Export *exp = nullptr;
    if (!lookupExport(name, module_id, exp, ns))
        throw std::out_of_range("undefined symbol: " + name);
    const auto &lm = modules_[module_id];
    if (exp->ifunc) {
        const auto pick =
            std::min<std::size_t>(hwCapLevel_,
                                  exp->ifuncCandidates.size() - 1);
        return lm.funcAddrs[exp->ifuncCandidates[pick]];
    }
    return lm.funcAddrs[exp->funcIndex];
}

std::uint64_t
Image::totalTrampolines() const
{
    std::uint64_t total = 0;
    for (const auto &lm : modules_) {
        if (lm.loaded)
            total += lm.pltEntryVas.size();
    }
    return total;
}

std::string
Image::trampolineSymbol(Addr plt_jmp_va) const
{
    const std::uint32_t index = findSlot(plt_jmp_va);
    if (index == NoSlot)
        return {};
    const Slot &s = slots_[index];
    if (!(s.flags & FlagPltJmp) || s.pltIndex == NoPltIndex)
        return {};
    const auto &lm = modules_[s.moduleId];
    return lm.module.imports()[s.pltIndex] + "@" + lm.module.name();
}

std::string
Image::dumpLayout() const
{
    std::ostringstream os;
    os << std::hex;
    for (const auto &lm : modules_) {
        if (!lm.loaded)
            continue;
        os << lm.module.name() << ":\n"
           << "  text 0x" << lm.textBase << " (+0x" << lm.textSize
           << " bytes, " << std::dec
           << lm.module.functions().size() << " functions)\n"
           << std::hex << "  plt  0x" << lm.pltBase << " ("
           << std::dec << lm.pltEntryVas.size() << " entries)\n"
           << std::hex << "  got  0x" << lm.gotBase << "\n"
           << "  data 0x" << lm.dataBase << " (+0x"
           << lm.module.dataSize() << ")\n";
    }
    return os.str();
}

std::uint16_t
Image::addModule(elf::Module module)
{
    const auto id = static_cast<std::uint16_t>(modules_.size());
    LoadedModule lm{std::move(module)};
    lm.id = id;
    modules_.push_back(std::move(lm));
    return id;
}

void
Image::addSlot(Slot slot)
{
    slots_.push_back(slot);
}

void
Image::indexSlots()
{
    // Re-indexing means the decodable-code set changed (dlopen,
    // dlclose, snapshot restore): every cached block is suspect.
    invalidateBlocks();
    // Capacity 2x every slot ever added keeps the load factor
    // <= 0.5; closed modules' slots stay in slots_ but not here.
    index_.reset(std::bit_ceil(
        std::max<std::uint64_t>(16, 2 * slots_.size())));
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        if (modules_[slots_[i].moduleId].loaded)
            index_.insert(slots_[i].va, i);
    }
}

void
Image::indexModuleSlots(std::uint16_t module_id)
{
    if (2 * slots_.size() > index_.capacity()) {
        indexSlots();
        return;
    }
    invalidateBlocks();
    const LoadedModule &lm = modules_[module_id];
    for (std::uint32_t i = lm.slotBegin; i < lm.slotEnd; ++i)
        index_.insert(slots_[i].va, i);
}

void
Image::removeModuleSlots(std::uint16_t module_id)
{
    invalidateBlocks();
    LoadedModule &lm = modules_[module_id];
    lm.loaded = false;
    for (std::uint32_t i = lm.slotBegin; i < lm.slotEnd; ++i)
        index_.erase(slots_[i].va, i);
}


void
Image::save(snapshot::Serializer &s) const
{
    s.beginStruct("image");
    s.u32(hwCapLevel_);
    s.u16(nextNamespace_);
    s.u32(static_cast<std::uint32_t>(modules_.size()));
    for (const LoadedModule &m : modules_) {
        s.boolean(m.loaded);
        s.u16(m.namespaceId);
    }
    s.u64(slots_.size());
    s.records(slots_, SlotWireBytes,
              [](std::uint8_t *p, const Slot &slot) {
                  const isa::Instruction &in = slot.inst;
                  snapshot::putLe64(p, slot.va);
                  p[8] = slot.flags;
                  snapshot::putLe16(p + 9, slot.moduleId);
                  snapshot::putLe16(p + 11, slot.pltIndex);
                  p[13] = static_cast<std::uint8_t>(in.op);
                  p[14] = in.size;
                  p[15] = static_cast<std::uint8_t>(in.alu);
                  p[16] = static_cast<std::uint8_t>(in.cond);
                  p[17] = in.dst;
                  p[18] = in.src1;
                  p[19] = in.src2;
                  p[20] = in.memBase;
                  snapshot::putLe64(p + 21,
                                    static_cast<std::uint64_t>(in.imm));
              });
    // Two retired u64 fields, kept so the format is unchanged. They
    // held decodeHits_/decodeMisses_, host-side lookup counts that
    // made the checkpoint of one machine state differ by dispatch
    // engine.
    s.u64(0);
    s.u64(0);
    s.endStruct();
}

void
Image::load(snapshot::Deserializer &d)
{
    d.enterStruct("image");
    hwCapLevel_ = d.u32();
    nextNamespace_ = d.u16();
    d.checkU32(static_cast<std::uint32_t>(modules_.size()),
               "image module count");
    for (LoadedModule &m : modules_) {
        m.loaded = d.boolean();
        m.namespaceId = d.u16();
    }
    d.checkU64(slots_.size(), "image slot count");
    // Bulk-unpack the slot array: one raw() view replaces ~13
    // bounds-checked reads per slot, which is measurable when a
    // sweep restores a several-hundred-thousand-slot image into
    // every arm. Every field that later indexes modules_, imports()
    // or MachineState::regs, or is cast to an enum, is
    // range-checked.
    const auto bad_reg = [](isa::Reg r) {
        return r >= isa::NumRegs && r != isa::NoReg;
    };
    const std::uint8_t *p = d.raw(slots_.size() * SlotWireBytes);
    std::size_t owner = 0; // module whose slot range holds the slot
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        Slot &slot = slots_[i];
        slot.va = snapshot::le64(p);
        slot.flags = p[8];
        slot.moduleId = snapshot::le16(p + 9);
        slot.pltIndex = snapshot::le16(p + 11);
        isa::Instruction &in = slot.inst;
        in.op = static_cast<isa::Opcode>(p[13]);
        in.size = p[14];
        in.alu = static_cast<isa::AluKind>(p[15]);
        in.cond = static_cast<isa::CondKind>(p[16]);
        in.dst = p[17];
        in.src1 = p[18];
        in.src2 = p[19];
        in.memBase = p[20];
        in.imm = static_cast<std::int64_t>(snapshot::le64(p + 21));
        p += SlotWireBytes;
        if (in.op > isa::LastOpcode || in.alu > isa::LastAluKind ||
            in.cond > isa::LastCondKind || in.size == 0 ||
            in.size > 15 || (slot.flags & ~(FlagPlt | FlagPltJmp)))
            d.fail("slot opcode, size or flags out of range");
        if (bad_reg(in.dst) || bad_reg(in.src1) || bad_reg(in.src2) ||
            bad_reg(in.memBase))
            d.fail("slot register out of range");
        // A slot belongs to the module whose range holds it, so
        // dlclose's range erase and indexSlots() agree on it.
        while (owner < modules_.size() &&
               modules_[owner].slotEnd <= i)
            ++owner;
        if (owner == modules_.size() || slot.moduleId != owner ||
            (slot.pltIndex != NoPltIndex &&
             slot.pltIndex >=
                 modules_[slot.moduleId].module.imports().size()))
            d.fail("slot module or plt index out of range");
    }
    // The two retired counter fields (see save()).
    d.u64();
    d.u64();
    d.leaveStruct();
    // Rebuild the derived slot index from the restored slots and
    // loaded flags.
    indexSlots();
}

} // namespace dlsim::linker
