/**
 * @file
 * The loaded process image: modules mapped into an address space,
 * their PLT/GOT sections, and the code index the CPU fetches from.
 *
 * PLT geometry matches x86-64 ELF (paper Fig. 2): each trampoline is
 * 16 bytes — an indirect jump through the module's GOTPLT slot,
 * followed by a push of the relocation index and a jump to PLT0 that
 * are executed only on the first (resolving) invocation. Four
 * trampolines share a 64-byte I-cache line, but because programs call
 * a sparse subset of the available imports, PLT lines are effectively
 * dedicated per used trampoline — the I-cache pressure the paper
 * measures.
 */

#ifndef DLSIM_LINKER_IMAGE_HH
#define DLSIM_LINKER_IMAGE_HH

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "elf/module.hh"
#include "isa/instruction.hh"
#include "mem/address_space.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::linker
{

using isa::Addr;

/** Virtual address the GOT[1] resolver slot points at. Control
 *  transfers to this address trap to the DynamicLinker's resolver
 *  (standing in for _dl_runtime_resolve in ld.so). */
constexpr Addr ResolverVa = 0x0000700000000000ull;

/** Bytes per PLT entry and for PLT0, as on x86-64 ELF. */
constexpr std::uint32_t PltEntryBytes = 16;

/** Bytes per PLT entry in ARM style (three 4-byte instructions
 *  plus the 8-byte lazy tail, padded; paper Fig. 2b). */
constexpr std::uint32_t ArmPltEntryBytes = 24;

/**
 * Trampoline flavour emitted by the loader (paper Fig. 2).
 *
 * X86: a single memory-indirect jump (`jmp *sym@got.plt`).
 * Arm: an address-materialising prologue (two ALU instructions
 * writing the scratch register, standing in for ARM's
 * `add ip, pc, ...; add ip, ip, ...`) followed by the indirect
 * load-and-branch (`ldr pc, [ip, ...]`). Skipping an ARM trampoline
 * also skips the scratch-register writes; this is safe because the
 * ABI makes ip call-clobbered, exactly the property real ARM PLTs
 * rely on.
 */
enum class PltStyle : std::uint8_t
{
    X86,
    Arm,
};

/** Flags on decoded slots. */
enum SlotFlag : std::uint8_t
{
    FlagNone = 0,
    /** Instruction belongs to a PLT section. */
    FlagPlt = 1,
    /** The first (jmp *GOT) instruction of a PLT entry. */
    FlagPltJmp = 2,
};

/** Sentinel for Slot::pltIndex on non-PLT slots. */
constexpr std::uint16_t NoPltIndex = 0xffff;

/**
 * Fused executor index of one instruction, derived from its
 * decoded fields by handlerOf(): the opcode together with, for ALU
 * ops, the ALU kind and whether the second operand is a register
 * (RR) or the immediate (RI), and, for loads and stores, whether
 * the address is base-relative or absolute. cpu::Core's body-op
 * executor selects the ALU handlers' results by index (kind from
 * (handler - AddRR) >> 1, operand form from its low bit) and
 * switches on the rest. Every control transfer maps to
 * Control: those are executed by the core's control path, never
 * as a body op. check::RefCore deliberately decodes the opcode
 * itself, so a mapping bug here shows up as a lockstep divergence.
 */
enum class Handler : std::uint8_t
{
    Nop,
    AddRR,
    AddRI,
    SubRR,
    SubRI,
    AndRR,
    AndRI,
    OrRR,
    OrRI,
    XorRR,
    XorRI,
    MulRR,
    MulRI,
    ShrRR,
    ShrRI,
    MovImm,
    LoadBase,
    LoadAbs,
    StoreBase,
    StoreAbs,
    Push,
    PushImm,
    Pop,
    AbtbFlush,
    Halt,
    Control,
};

/** The handler an instruction executes with (see Handler). */
inline Handler
handlerOf(const isa::Instruction &inst)
{
    // Table-driven and inline rather than a switch: block building
    // and the per-instruction loop derive it for every op, and the
    // opcode mix would mispredict a jump table.
    using isa::Opcode;
    constexpr Handler C = Handler::Control;
    static constexpr Handler Base[] = {
        Handler::Nop,
        Handler::AddRR,     // + 2 * alu, + 1 for an immediate
        Handler::MovImm,
        Handler::LoadBase,  // + 1 for an absolute address
        Handler::StoreBase, // + 1 for an absolute address
        Handler::Push,
        Handler::PushImm,
        Handler::Pop,
        C, C, C, C, C, C, C, C, // CallRel .. Ret
        Handler::Halt,
        Handler::AbtbFlush,
    };
    static_assert(std::size(Base) ==
                  static_cast<std::size_t>(isa::LastOpcode) + 1);
    static_assert(static_cast<int>(Opcode::CallRel) == 8 &&
                  static_cast<int>(Opcode::Ret) == 15 &&
                  static_cast<int>(Opcode::Halt) == 16);
    // ALU ops: two handlers per kind, in AluKind order, RR then RI.
    static_assert(static_cast<int>(Handler::ShrRI) -
                      static_cast<int>(Handler::AddRR) ==
                  2 * static_cast<int>(isa::LastAluKind) + 1);
    static_assert(static_cast<int>(Handler::LoadAbs) ==
                      static_cast<int>(Handler::LoadBase) + 1 &&
                  static_cast<int>(Handler::StoreAbs) ==
                      static_cast<int>(Handler::StoreBase) + 1);
    // Out-of-range fields come only from corrupt input (Image::load
    // rejects it); they must not index the table.
    if (inst.op > isa::LastOpcode || inst.alu > isa::LastAluKind)
        return Handler::Control;
    const bool alu = inst.op == Opcode::IntAlu;
    const bool mem =
        inst.op == Opcode::Load || inst.op == Opcode::Store;
    const int offset =
        alu ? 2 * static_cast<int>(inst.alu) + (inst.src2 == isa::NoReg)
            : mem && inst.memBase == isa::NoReg;
    return static_cast<Handler>(
        static_cast<int>(Base[static_cast<std::size_t>(inst.op)]) +
        offset);
}

/** One decoded instruction at a fixed virtual address. */
struct Slot
{
    Addr va = 0;
    std::uint8_t flags = FlagNone;
    std::uint16_t moduleId = 0;
    /** Import index when this is a PLT entry's slot. */
    std::uint16_t pltIndex = NoPltIndex;
    isa::Instruction inst;
};

/** Runtime state of one loaded module. */
struct LoadedModule
{
    explicit LoadedModule(elf::Module m) : module(std::move(m)) {}

    elf::Module module;
    std::uint16_t id = 0;
    Addr textBase = 0;
    Addr pltBase = 0;  ///< PLT0 address; entry k at +16*(k+1).
    Addr gotBase = 0;  ///< GOT[0]=module id, GOT[1]=resolver,
                       ///< GOT[2+k]=import k.
    Addr dataBase = 0;
    std::uint64_t textSize = 0; ///< Including the PLT.
    /** Resolution scope (dlmopen namespace); 0 = default. */
    std::uint16_t namespaceId = 0;
    std::vector<Addr> funcAddrs;    ///< Per defined function.
    std::vector<Addr> pltEntryVas;  ///< Per import: trampoline addr.
    std::vector<Addr> gotSlotAddrs; ///< Per import: GOTPLT slot addr.
    bool loaded = true;
    /** The module's slots: Image::slots_[slotBegin, slotEnd). The
     *  loader emits them contiguously when it places the module. */
    std::uint32_t slotBegin = 0;
    std::uint32_t slotEnd = 0;
    /** Byte offset from a PLT entry to its lazy re-entry push. */
    std::uint32_t lazyEntryOffset = 6;
    /** Stride between PLT entries for this module. */
    std::uint32_t pltStride = PltEntryBytes;

    /** Address of PLT entry k's lazy re-entry point (its push). */
    Addr lazyGotValue(std::uint32_t import_index) const
    {
        return pltEntryVas[import_index] + lazyEntryOffset;
    }
};

/**
 * The code index: an open-addressed (linear probing) va -> slot
 * number table. No tombstones: erase() closes the gap by backward-
 * shift deletion, so a probe still stops at the first empty bucket.
 * The owner keeps the load factor <= 0.5 (Image re-sizes through
 * reset() before an insert could pass it). The initial one-bucket
 * table answers "absent" until the first reset().
 */
class CodeIndex
{
  public:
    /** find()'s answer for an absent va. */
    static constexpr std::uint32_t None = 0xffffffffu;

    /** Mix a va into a well-distributed hash (vas are structured). */
    static std::uint64_t
    hash(Addr va)
    {
        const std::uint64_t h = va * 0x9e3779b97f4a7c15ull;
        return h ^ (h >> 29);
    }

    /** Slot number mapped at va, or None. */
    std::uint32_t
    find(Addr va) const
    {
        std::uint64_t i = hash(va) & mask_;
        while (true) {
            const std::uint32_t v = vals_[i];
            if (v == None || keys_[i] == va)
                return v;
            i = (i + 1) & mask_;
        }
    }

    /** Empty the table at `capacity` buckets (a power of two). */
    void reset(std::uint64_t capacity);
    /** Map va to slot unless va is mapped already: the first slot
     *  inserted for a va wins. */
    void insert(Addr va, std::uint32_t slot);
    /** Unmap va if it maps to `slot`. */
    void erase(Addr va, std::uint32_t slot);

    std::uint64_t capacity() const { return mask_ + 1; }

  private:
    std::vector<Addr> keys_{0};
    std::vector<std::uint32_t> vals_{None};
    std::uint64_t mask_ = 0;
};

/**
 * A loaded process image.
 *
 * Owns the address space, the loaded modules, and the code index
 * over every loaded slot. A dlopen inserts only the new module's
 * slots and a dlclose erases only the closing module's; loads,
 * restores, dlmopen and table growth rebuild it wholesale with
 * indexSlots(). Decode, block building and the trampoline census
 * all probe it. The only other va-keyed table is the block cache's
 * head table (below).
 * Construction is performed by Loader; runtime symbol binding by
 * DynamicLinker; execution by cpu::Core.
 */
class Image
{
  public:
    Image();

    /** @name Decode @{ */
    /** Decoded slot at va, or nullptr when va is not code. */
    const Slot *decode(Addr va) const;
    /**
     * Mutable access for the software patcher, which rewrites the
     * slot in place. Flushes the block cache: a cached block may
     * hold a pre-decoded copy of the slot.
     */
    Slot *decodeMutable(Addr va);
    /** decode() lookups that found / did not find a slot. Kept for
     *  dlbench's linker.decode_cache.hit_rate metric. Host-side
     *  counts of this process: checkpoints do not carry them, and a
     *  restore leaves them as they were. */
    std::uint64_t decodeCacheHits() const { return decodeHits_; }
    std::uint64_t decodeCacheMisses() const { return decodeMisses_; }
    /** @} */

    /** @name Basic-block translation cache @{
     *
     * A block is a maximal straight-line run of non-control
     * instructions starting at a head va, optionally ending in one
     * control transfer or Halt (the terminator). Blocks are packed
     * into a flat arena of pre-decoded ops and found through an
     * open-addressed head-va table, so the executors pay one lookup
     * per block instead of one per instruction. The head table stays
     * separate from the code index: it is small, flushed wholesale
     * and probed once per block, and folding it into a table sized
     * for every slot ever loaded would move hot lookups into a cold
     * table. The cache holds decoded code only — no GOT values, no
     * predictor or skip-unit state — so GOT rebinds need no flush;
     * anything that changes decoded code (patcher writes,
     * dlopen/dlclose re-indexing, snapshot restore) must call
     * invalidateBlocks().
     *
     * A block is stored in the form cpu::Core executes: each op
     * carries its handler, each body op the length of the same-L1I-
     * line run it starts (for the line shift the attached cores
     * set with setFetchLineShift()), and the block the terminator
     * and its memoized successors.
     */

    /** One pre-decoded instruction of a cached block. */
    struct BlockOp
    {
        isa::Instruction inst;
        Addr va = 0;
        std::uint8_t flags = FlagNone;
        Handler handler = Handler::Nop;
        /** Body ops only: how many of the following body ops share
         *  this op's L1I line. */
        std::uint8_t lineRun = 0;
    };

    /** Block descriptor. Ops live at blockOps(b)[0 .. bodyOps-1];
     *  when hasTerm the terminator op follows at [bodyOps]. */
    struct Block
    {
        Addr headVa = 0;
        /** First va past the body: the terminator's va when
         *  hasTerm, else the resume pc after the last body op. */
        Addr endVa = 0;
        /** Landing va of succIndirect; meaningless while it is -1. */
        Addr succIndirectVa = 0;
        std::uint32_t firstOp = 0;
        std::uint16_t bodyOps = 0;
        /** Body ops carrying FlagPlt, so full-block dispatch can
         *  bump the trampoline-instruction counter in one add. */
        std::uint16_t pltBodyOps = 0;
        bool hasTerm = false;
        /** The terminator shares the last body op's L1I line, so
         *  its fetch right after the body is a repeat hit. */
        bool termSameLine = false;
        /** Memoized successor block indices; -1 until first
         *  execution. succTaken and succFall cover the static
         *  edges; succIndirect the last landing (at succIndirectVa)
         *  that was neither: returns, register/memory-indirect
         *  jumps and calls, ABTB substitutions. Indices stay valid
         *  until the next invalidateBlocks(): the arena is
         *  append-only between flushes. */
        std::int32_t succTaken = -1;
        std::int32_t succFall = -1;
        std::int32_t succIndirect = -1;
    };

    /** Longest body a cached block may carry. */
    static constexpr std::uint16_t MaxBlockOps = 64;

    /**
     * Arena index of the block headed at va, building and caching
     * it on first use; -1 when va is not decodable. The returned
     * index (not a Block pointer) is stable until the next
     * invalidateBlocks(); pointers into blocks_/blockOps_ are not —
     * building a successor block may reallocate both vectors.
     */
    std::int32_t blockIndex(Addr head) const;

    const Block &block(std::int32_t index) const
    {
        return blocks_[static_cast<std::uint32_t>(index)];
    }
    const BlockOp *blockOps(const Block &b) const
    {
        return blockOps_.data() + b.firstOp;
    }

    /** Memoize a successor edge (const: the block cache is
     *  mutable derived state, see below). */
    void memoSuccTaken(std::int32_t index, std::int32_t succ) const
    {
        blocks_[static_cast<std::uint32_t>(index)].succTaken = succ;
    }
    void memoSuccFall(std::int32_t index, std::int32_t succ) const
    {
        blocks_[static_cast<std::uint32_t>(index)].succFall = succ;
    }
    void memoSuccIndirect(std::int32_t index, Addr landing,
                          std::int32_t succ) const
    {
        Block &b = blocks_[static_cast<std::uint32_t>(index)];
        b.succIndirectVa = landing;
        b.succIndirect = succ;
    }

    /**
     * L1I line shift the line runs are computed for. Set by
     * cpu::Core::attachProcess from its L1I geometry; a different
     * shift than the cached blocks were built for flushes them.
     */
    void
    setFetchLineShift(std::uint32_t shift)
    {
        if (shift == fetchLineShift_)
            return;
        invalidateBlocks();
        fetchLineShift_ = shift;
    }

    /**
     * Drop every cached block and bump the generation. Wired into
     * decodeMutable() (software patcher), indexSlots() (load,
     * dlmopen, snapshot restore), indexModuleSlots() (dlopen) and
     * removeModuleSlots() (dlclose); see the class comment for why
     * GOT rebinds are exempt.
     */
    void invalidateBlocks();

    /** Block-cache observability (bench_wallclock gauges). */
    std::uint64_t blockCacheHits() const { return blockHits_; }
    std::uint64_t blockCacheBuilds() const { return blockBuilds_; }
    std::uint64_t blockCacheFlushes() const { return blockFlushes_; }
    std::uint64_t blockGeneration() const { return blockGen_; }
    std::size_t liveBlocks() const { return blocks_.size(); }
    /** @} */

    mem::AddressSpace &addressSpace() { return *as_; }
    const mem::AddressSpace &addressSpace() const { return *as_; }

    /** Replace the backing address space (process fork support). */
    void adoptAddressSpace(std::unique_ptr<mem::AddressSpace> as);

    /** Take the backing address space (context-switch support). */
    std::unique_ptr<mem::AddressSpace> releaseAddressSpace();

    /** @name Modules and symbols @{ */
    const std::vector<LoadedModule> &modules() const
    {
        return modules_;
    }
    LoadedModule &moduleAt(std::size_t id) { return modules_[id]; }
    const LoadedModule &moduleAt(std::size_t id) const
    {
        return modules_[id];
    }

    /** Find a loaded module by name; SIZE_MAX when absent. */
    std::size_t findModule(const std::string &name) const;

    /**
     * Address of a defined symbol using ELF resolution order (first
     * loaded module that exports it wins), searched within one
     * dlmopen namespace. Throws when undefined in that namespace.
     * Ifuncs resolve to their currently selected candidate.
     * Versioned lookups use the `name@version` spelling.
     */
    Addr symbolAddress(const std::string &name,
                       std::uint16_t ns = 0) const;

    /**
     * The exporting module and export record for a symbol, in
     * resolution order within namespace `ns`. @return false when no
     * loaded module of that namespace defines it.
     */
    bool lookupExport(const std::string &name, std::size_t &module_id,
                      const elf::Export *&exp,
                      std::uint16_t ns = 0) const;

    /** Allocate a fresh dlmopen namespace id. */
    std::uint16_t newNamespace() { return nextNamespace_++; }
    /** @} */

    /** @name Trampoline census (Tables 2/3, Fig. 4 support) @{ */
    /** Total PLT entries (trampolines) across loaded modules. */
    std::uint64_t totalTrampolines() const;
    /** Symbol name for a trampoline address; empty if not a PLT. */
    std::string trampolineSymbol(Addr plt_jmp_va) const;
    /** @} */

    /** Hardware-capability level used to select ifunc candidates. */
    std::uint32_t hwCapLevel() const { return hwCapLevel_; }
    void setHwCapLevel(std::uint32_t level) { hwCapLevel_ = level; }

    /** Human-readable layout dump (examples / debugging). */
    std::string dumpLayout() const;

    /**
     * Checkpoint the image's mutable runtime state: per-module
     * loaded/namespace flags, every decoded slot (the software
     * patcher mutates slots in place, so patch state lives here),
     * hwcap level, and namespace allocation. The code index is
     * derived and rebuilt on load. The backing address space is
     * serialized separately by the composer.
     */
    void save(snapshot::Serializer &s) const;

    /** Restore; throws SnapshotError on module/slot count
     *  mismatch or an out-of-range slot field. Rebuilds the code
     *  index. */
    void load(snapshot::Deserializer &d);

    /** @name Construction interface (Loader/DynamicLinker) @{ */
    std::uint16_t addModule(elf::Module module);
    void addSlot(Slot slot);
    /** Rebuild the code index from every loaded slot; the first
     *  loaded slot for a va wins. */
    void indexSlots();
    /**
     * Add one just-placed module's slots to the code index (dlopen),
     * where their vas are absent. The same answers as indexSlots():
     * loaded modules never overlap (the loader places them apart
     * and AddressSpace::map asserts it), so a new slot can share a
     * va only with a closed module's slot, and closed modules are
     * not in the index. Rebuilds wholesale when the table would
     * pass load factor 0.5.
     */
    void indexModuleSlots(std::uint16_t module_id);
    /** Mark a module closed and erase its slots from the code index
     *  (dlclose). */
    void removeModuleSlots(std::uint16_t module_id);
    /** @} */

  private:
    static constexpr std::uint32_t NoSlot = CodeIndex::None;
    /** slots_ index of the loaded slot at va; NoSlot if none. */
    std::uint32_t findSlot(Addr va) const { return index_.find(va); }

    /** Walk slots from `head`, append a new block; -1 when `head`
     *  is not in the code index. */
    std::int32_t buildBlock(Addr head) const;
    void blockTableInsert(Addr va, std::int32_t index) const;
    /** Re-size the head-va table and re-insert every live block. */
    void blockTableGrow() const;

    std::unique_ptr<mem::AddressSpace> as_;
    std::vector<LoadedModule> modules_;
    std::vector<Slot> slots_;

    /** va -> slots_ index of every loaded slot. */
    CodeIndex index_;
    mutable std::uint64_t decodeHits_ = 0;
    mutable std::uint64_t decodeMisses_ = 0;

    /**
     * Block cache (see the public section). Never serialized: it is
     * derived state, rebuilt on demand after a restore. Mutable:
     * blocks are built from const blockIndex(); an Image is owned by
     * a single job thread (docs/performance.md).
     */
    mutable std::vector<BlockOp> blockOps_;
    mutable std::vector<Block> blocks_;
    mutable std::vector<Addr> blockKeys_;
    mutable std::vector<std::int32_t> blockVals_;
    mutable std::uint64_t blockMask_ = 0;
    mutable std::uint64_t blockGen_ = 0;
    mutable std::uint64_t blockHits_ = 0;
    mutable std::uint64_t blockBuilds_ = 0;
    mutable std::uint64_t blockFlushes_ = 0;
    /** log2 of the default 64-byte L1I line. */
    std::uint32_t fetchLineShift_ = 6;
    std::uint32_t hwCapLevel_ = 0;
    std::uint16_t nextNamespace_ = 1;

    friend class Loader;
    friend class DynamicLinker;
};

} // namespace dlsim::linker

#endif // DLSIM_LINKER_IMAGE_HH
