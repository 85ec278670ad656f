#include "linker/loader.hh"

#include <cassert>
#include <functional>
#include <stdexcept>

#include "snapshot/serializer.hh"

namespace dlsim::linker
{

const char *
bindPolicyName(BindPolicy p)
{
    switch (p) {
      case BindPolicy::Lazy: return "lazy";
      case BindPolicy::Now: return "now";
      case BindPolicy::Stable: return "stable";
      case BindPolicy::Demand: return "demand";
    }
    return "?";
}

BindPolicy
parseBindPolicy(const std::string &name)
{
    if (name == "lazy")
        return BindPolicy::Lazy;
    if (name == "now" || name == "eager")
        return BindPolicy::Now;
    if (name == "stable")
        return BindPolicy::Stable;
    if (name == "demand")
        return BindPolicy::Demand;
    throw std::invalid_argument(
        "unknown bind policy '" + name +
        "' (expected lazy|now|stable|demand)");
}

namespace
{

Addr
alignUp(Addr value, Addr alignment)
{
    return (value + alignment - 1) & ~(alignment - 1);
}

bool
fitsRel32(std::int64_t disp)
{
    return disp >= isa::Rel32Min && disp <= isa::Rel32Max;
}

} // namespace

Loader::Loader(LoaderOptions options)
    : options_(options), rng_(options.aslrSeed)
{
}

std::unique_ptr<Image>
Loader::load(elf::Module exe, std::vector<elf::Module> libs)
{
    auto image = std::make_unique<Image>();
    image->setHwCapLevel(options_.hwCapLevel);

    const auto exe_id = image->addModule(std::move(exe));
    std::vector<std::uint16_t> lib_ids;
    lib_ids.reserve(libs.size());
    for (auto &lib : libs)
        lib_ids.push_back(image->addModule(std::move(lib)));

    // Executable at its fixed low base.
    libCursor_ = options_.exeBase;
    placeModule(*image, exe_id);

    // Heap directly above the executable image.
    heapBase_ = alignUp(libCursor_, mem::PageBytes);
    image->addressSpace().map(heapBase_, options_.heapSize,
                              mem::PermRead | mem::PermWrite,
                              mem::RegionKind::Data, "heap");

    // Libraries: conventionally high; optionally near (within rel32
    // reach) for the software patcher; optionally randomised.
    if (options_.nearLibraries) {
        libCursor_ = alignUp(heapBase_ + options_.heapSize +
                                 (8ull << 20),
                             mem::PageBytes);
    } else {
        libCursor_ = options_.libBase;
        if (options_.aslr) {
            libCursor_ +=
                rng_.nextBelow(1ull << 16) * mem::PageBytes;
        }
    }
    for (const auto id : lib_ids) {
        if (options_.aslr) {
            libCursor_ +=
                rng_.nextBelow(64) * mem::PageBytes;
        }
        placeModule(*image, id);
        if (options_.nearLibraries) {
            // The custom allocator must keep every library within
            // rel32 reach of every call site (paper §4.3).
            const std::int64_t span = static_cast<std::int64_t>(
                libCursor_ - options_.exeBase);
            if (!fitsRel32(span)) {
                throw std::runtime_error(
                    "near-library layout exceeded rel32 reach");
            }
        }
    }

    // Stack.
    stackTop_ = options_.stackTop;
    if (options_.aslr)
        stackTop_ -= rng_.nextBelow(256) * mem::PageBytes;
    image->addressSpace().map(stackTop_ - options_.stackSize,
                              options_.stackSize,
                              mem::PermRead | mem::PermWrite,
                              mem::RegionKind::Stack, "stack");

    // A restore target skips indexing, relocation, and binding:
    // Image::load re-runs indexSlots and overwrites every slot
    // field, and the restored page pool replaces the GOT pages
    // bindModule would have written.
    if (!options_.skeletonForRestore) {
        image->indexSlots();

        relocateModule(*image, exe_id);
        for (const auto id : lib_ids)
            relocateModule(*image, id);

        bindModule(*image, exe_id);
        for (const auto id : lib_ids)
            bindModule(*image, id);
    }

    return image;
}

std::uint16_t
Loader::dlopen(Image &image, elf::Module lib,
               const std::function<void(Addr)> &got_write_hook)
{
    // First-fit reuse of dlclose'd regions (see the header): the
    // span check runs against the module before it is moved into
    // the image. Skipped under ASLR, which wants fresh placement.
    Addr reuse_base = 0;
    if (!options_.aslr) {
        const Addr need = moduleSpan(lib);
        for (auto it = freed_.begin(); it != freed_.end(); ++it) {
            if (need <= it->span) {
                reuse_base = it->base;
                freed_.erase(it);
                break;
            }
        }
    }

    const auto id = image.addModule(std::move(lib));
    if (reuse_base != 0) {
        const Addr saved = libCursor_;
        libCursor_ = reuse_base;
        placeModule(image, id);
        libCursor_ = saved;
    } else {
        if (options_.aslr)
            libCursor_ += rng_.nextBelow(64) * mem::PageBytes;
        placeModule(image, id);
    }
    // A restore skeleton replays layout only (see dlclose).
    if (options_.skeletonForRestore)
        return id;
    image.indexModuleSlots(id);
    relocateModule(image, id);
    bindModule(image, id);
    if (got_write_hook) {
        const auto &lm = image.moduleAt(id);
        got_write_hook(lm.gotBase);
        got_write_hook(lm.gotBase + 8);
        for (const Addr slot : lm.gotSlotAddrs)
            got_write_hook(slot);
    }
    // Stable linking re-binds, from the resolution map, any slot a
    // prior dlclose re-lazified that this load can satisfy again —
    // the churn steady state takes zero resolver traps.
    if (options_.bindPolicy == BindPolicy::Stable)
        rebindStaleSlots(image, id, got_write_hook);
    return id;
}

std::uint16_t
Loader::dlmopen(Image &image, std::vector<elf::Module> modules)
{
    const auto ns = image.newNamespace();
    std::vector<std::uint16_t> ids;
    ids.reserve(modules.size());
    for (auto &mod : modules) {
        const auto id = image.addModule(std::move(mod));
        image.moduleAt(id).namespaceId = ns;
        if (options_.aslr)
            libCursor_ += rng_.nextBelow(64) * mem::PageBytes;
        placeModule(image, id);
        ids.push_back(id);
    }
    image.indexSlots();
    for (const auto id : ids)
        relocateModule(image, id);
    for (const auto id : ids)
        bindModule(image, id);
    return ns;
}

void
Loader::dlclose(Image &image, const std::string &module_name,
                const std::function<void(Addr)> &got_write_hook)
{
    const auto id = image.findModule(module_name);
    if (id == SIZE_MAX)
        throw std::invalid_argument("dlclose: not loaded: " +
                                    module_name);
    auto &closing = image.moduleAt(id);

    // A restore skeleton replays layout only: the restore replaces
    // GOT pages, the stable map and the slot index wholesale.
    if (!options_.skeletonForRestore)
        unbind(image, closing, got_write_hook);

    image.addressSpace().unmap(closing.textBase);
    image.addressSpace().unmap(closing.gotBase);
    if (closing.module.dataSize() > 0)
        image.addressSpace().unmap(closing.dataBase);
    if (options_.skeletonForRestore)
        closing.loaded = false;
    else
        image.removeModuleSlots(closing.id);

    // The whole span placeModule consumed (text+PLT, GOT, data,
    // guard page) becomes reusable by a later dlopen.
    const Addr end = closing.dataBase +
                     alignUp(closing.module.dataSize(),
                             mem::PageBytes) +
                     mem::PageBytes;
    freed_.push_back({closing.textBase, end - closing.textBase});
}

void
Loader::unbind(Image &image, const LoadedModule &closing,
               const std::function<void(Addr)> &got_write_hook)
{
    const Addr lo = closing.textBase;
    const Addr hi = closing.textBase + closing.textSize;

    // Re-lazify every GOTPLT slot in other modules that resolved
    // into the closing module.
    for (auto &lm : image.modules_) {
        if (!lm.loaded || lm.id == closing.id)
            continue;
        for (std::uint32_t k = 0; k < lm.gotSlotAddrs.size(); ++k) {
            const Addr slot = lm.gotSlotAddrs[k];
            const std::uint64_t value =
                image.addressSpace().peek64(slot);
            if (value >= lo && value < hi) {
                image.addressSpace().poke64(slot,
                                            lm.lazyGotValue(k));
                if (got_write_hook)
                    got_write_hook(slot);
            }
        }
    }

    // Stable linking: resolutions into the closing module are no
    // longer valid — drop them so a later dlopen recomputes.
    if (options_.bindPolicy == BindPolicy::Stable) {
        for (auto it = stableMap_.begin();
             it != stableMap_.end();) {
            if (it->second >= lo && it->second < hi) {
                it = stableMap_.erase(it);
                ++stableInvalidations_;
            } else {
                ++it;
            }
        }
    }
}

Addr
Loader::moduleSpan(const elf::Module &mod) const
{
    // Must mirror placeModule's layout arithmetic exactly.
    Addr off = 0;
    for (const auto &fn : mod.functions()) {
        off = alignUp(off, 16);
        off += fn.sizeBytes;
    }
    const bool arm = options_.pltStyle == PltStyle::Arm;
    const Addr stride = arm ? ArmPltEntryBytes : PltEntryBytes;
    const auto num_imports = static_cast<Addr>(mod.imports().size());
    const Addr plt_bytes = PltEntryBytes + num_imports * stride;
    const Addr text_size =
        alignUp(alignUp(off, 16) + plt_bytes, mem::PageBytes);
    const Addr got_bytes =
        alignUp((num_imports + 2) * 8, mem::PageBytes);
    const Addr data_bytes = alignUp(mod.dataSize(), mem::PageBytes);
    return text_size + got_bytes + data_bytes +
           mem::PageBytes; // guard page
}

void
Loader::placeModule(Image &image, std::uint16_t module_id)
{
    auto &lm = image.moduleAt(module_id);
    const auto &mod = lm.module;

    lm.textBase = alignUp(libCursor_, mem::PageBytes);

    // Lay out functions, 16-byte aligned.
    Addr off = 0;
    lm.funcAddrs.resize(mod.functions().size());
    for (std::size_t i = 0; i < mod.functions().size(); ++i) {
        off = alignUp(off, 16);
        lm.funcAddrs[i] = lm.textBase + off;
        off += mod.functions()[i].sizeBytes;
    }

    // PLT: PLT0 plus one fixed-stride entry per import.
    const bool arm = options_.pltStyle == PltStyle::Arm;
    lm.pltStride = arm ? ArmPltEntryBytes : PltEntryBytes;
    lm.lazyEntryOffset = arm ? 12 : 6;
    lm.pltBase = lm.textBase + alignUp(off, 16);
    const auto num_imports =
        static_cast<std::uint32_t>(mod.imports().size());
    const Addr plt_bytes =
        PltEntryBytes +
        static_cast<Addr>(num_imports) * lm.pltStride;
    lm.textSize = alignUp((lm.pltBase - lm.textBase) + plt_bytes,
                          mem::PageBytes);

    // Demand-driven loading (Mururu et al.): library text and data
    // pages start absent and fault in on first touch. The
    // executable (module 0) stays eager, as the debloating paper's
    // loader only demand-pages the shared libraries.
    const bool demand_paged =
        options_.bindPolicy == BindPolicy::Demand && module_id != 0;

    image.addressSpace().map(lm.textBase, lm.textSize,
                             mem::PermRead | mem::PermExec,
                             mem::RegionKind::Text,
                             mod.name() + ".text", demand_paged);
    // Materialise the text pages: code is file-backed and present,
    // so forked processes share (and COW-account) it. Demand-paged
    // text stays absent until first fetch instead.
    if (!options_.skeletonForRestore && !demand_paged) {
        for (Addr page = lm.textBase;
             page < lm.textBase + lm.textSize;
             page += mem::PageBytes) {
            image.addressSpace().poke64(page, 0);
        }
    }

    // GOT: [0]=module id, [1]=resolver, [2+k]=import k.
    lm.gotBase = lm.textBase + lm.textSize;
    const Addr got_bytes = alignUp(
        static_cast<Addr>(num_imports + 2) * 8, mem::PageBytes);
    image.addressSpace().map(lm.gotBase, got_bytes,
                             mem::PermRead | mem::PermWrite,
                             mem::RegionKind::Got,
                             mod.name() + ".got");

    lm.gotSlotAddrs.resize(num_imports);
    lm.pltEntryVas.resize(num_imports);
    for (std::uint32_t k = 0; k < num_imports; ++k) {
        lm.gotSlotAddrs[k] = lm.gotBase + 8ull * (2 + k);
        lm.pltEntryVas[k] = lm.pltBase + PltEntryBytes +
                            lm.pltStride * static_cast<Addr>(k);
    }

    // Data section. Demand-paged data starts absent too; its
    // deterministic fill is attached by the workload engine
    // (AddressSpace::setDemandFill) where eager arms would have
    // called fillRandom.
    lm.dataBase = lm.gotBase + got_bytes;
    if (mod.dataSize() > 0) {
        image.addressSpace().map(
            lm.dataBase, alignUp(mod.dataSize(), mem::PageBytes),
            mem::PermRead | mem::PermWrite, mem::RegionKind::Data,
            mod.name() + ".data", demand_paged);
    }

    libCursor_ = lm.dataBase +
                 alignUp(mod.dataSize(), mem::PageBytes) +
                 mem::PageBytes; // guard page

    // Emit decode slots, contiguously: function bodies first.
    lm.slotBegin = static_cast<std::uint32_t>(image.slots_.size());
    for (std::size_t i = 0; i < mod.functions().size(); ++i) {
        const auto &fn = mod.functions()[i];
        for (std::size_t j = 0; j < fn.code.size(); ++j) {
            Slot slot;
            slot.va = lm.funcAddrs[i] + fn.offsets[j];
            slot.moduleId = module_id;
            slot.inst = fn.code[j];
            image.addSlot(slot);
        }
    }

    // PLT0: push <module id>; jmp *GOT[1].
    {
        Slot push0;
        push0.va = lm.pltBase;
        push0.flags = FlagPlt;
        push0.moduleId = module_id;
        push0.inst = isa::makePushImm(module_id);
        image.addSlot(push0);

        Slot jmp0;
        jmp0.va = lm.pltBase + push0.inst.size;
        jmp0.flags = FlagPlt;
        jmp0.moduleId = module_id;
        jmp0.inst = isa::makeJmpIndMemAbs(lm.gotBase + 8);
        image.addSlot(jmp0);
    }

    // PLT entries.
    const auto emit = [&](Addr va, isa::Instruction inst,
                          std::uint8_t flags, std::uint32_t k) {
        Slot slot;
        slot.va = va;
        slot.flags = flags;
        slot.moduleId = module_id;
        slot.pltIndex = static_cast<std::uint16_t>(k);
        slot.inst = inst;
        image.addSlot(slot);
        return va + inst.size;
    };

    for (std::uint32_t k = 0; k < num_imports; ++k) {
        const Addr entry = lm.pltEntryVas[k];
        Addr va = entry;

        if (arm) {
            // ARM style (paper Fig. 2b): two 4-byte address-
            // materialising instructions into the scratch register
            // (ip analogue, r12), then `ldr pc, [r12]`. Fixed
            // 4-byte encodings, as on a RISC ISA.
            isa::Instruction mov = isa::makeMovImm(
                12, static_cast<std::int64_t>(
                        lm.gotSlotAddrs[k]));
            mov.size = 4;
            isa::Instruction add =
                isa::makeAluImm(isa::AluKind::Add, 12, 12, 0);
            add.size = 4;
            isa::Instruction ldr = isa::makeJmpIndMem(12, 0);
            ldr.size = 4;
            va = emit(va, mov, FlagPlt, k);
            va = emit(va, add, FlagPlt, k);
            va = emit(va, ldr, FlagPlt | FlagPltJmp, k);
        } else {
            // x86-64 style: jmp *GOT[2+k].
            va = emit(va,
                      isa::makeJmpIndMemAbs(lm.gotSlotAddrs[k]),
                      FlagPlt | FlagPltJmp, k);
        }

        // Lazy tail: push k; jmp PLT0 (first execution only).
        assert(va == entry + lm.lazyEntryOffset);
        isa::Instruction push = isa::makePushImm(k);
        if (arm)
            push.size = 4;
        va = emit(va, push, FlagPlt, k);
        isa::Instruction back = isa::makeJmpRel(0);
        if (arm)
            back.size = 4;
        back.imm = static_cast<std::int64_t>(lm.pltBase) -
                   static_cast<std::int64_t>(va + back.size);
        emit(va, back, FlagPlt, k);
    }
    lm.slotEnd = static_cast<std::uint32_t>(image.slots_.size());
}

void
Loader::relocateModule(Image &image, std::uint16_t module_id)
{
    auto &lm = image.moduleAt(module_id);
    const auto &mod = lm.module;

    for (const auto &reloc : mod.relocations()) {
        const auto &fn = mod.functions()[reloc.funcIndex];
        const Addr inst_va = lm.funcAddrs[reloc.funcIndex] +
                             fn.offsets[reloc.instIndex];
        Slot *slot = image.decodeMutable(inst_va);
        assert(slot != nullptr);

        switch (reloc.kind) {
          case elf::RelocKind::PltCall:
          case elf::RelocKind::PltJump: {
            const Addr target = lm.pltEntryVas[reloc.targetIndex];
            const auto disp =
                static_cast<std::int64_t>(target) -
                static_cast<std::int64_t>(inst_va +
                                          slot->inst.size);
            assert(fitsRel32(disp));
            slot->inst.imm = disp;
            break;
          }
          case elf::RelocKind::LocalCall:
          case elf::RelocKind::LocalJump: {
            const Addr target = lm.funcAddrs[reloc.targetIndex];
            const auto disp =
                static_cast<std::int64_t>(target) -
                static_cast<std::int64_t>(inst_va +
                                          slot->inst.size);
            assert(fitsRel32(disp));
            slot->inst.imm = disp;
            break;
          }
          case elf::RelocKind::DataAddr:
            slot->inst.imm = static_cast<std::int64_t>(
                lm.dataBase + static_cast<Addr>(reloc.addend));
            break;
          case elf::RelocKind::FuncAddrAbs:
            // Eager, GLOB_DAT-style: resolved at load time,
            // within the module's own namespace.
            slot->inst.imm = static_cast<std::int64_t>(
                image.symbolAddress(reloc.symbol,
                                    lm.namespaceId));
            break;
        }
    }
}

void
Loader::bindModule(Image &image, std::uint16_t module_id)
{
    auto &lm = image.moduleAt(module_id);
    auto &as = image.addressSpace();

    as.poke64(lm.gotBase, module_id);
    as.poke64(lm.gotBase + 8, ResolverVa);

    for (std::uint32_t k = 0; k < lm.gotSlotAddrs.size(); ++k) {
        if (bindsLazily(options_.bindPolicy)) {
            as.poke64(lm.gotSlotAddrs[k], lm.lazyGotValue(k));
        } else if (options_.bindPolicy == BindPolicy::Stable) {
            as.poke64(lm.gotSlotAddrs[k],
                      stableResolve(image, lm.namespaceId,
                                    lm.module.imports()[k]));
        } else {
            as.poke64(lm.gotSlotAddrs[k],
                      image.symbolAddress(lm.module.imports()[k],
                                          lm.namespaceId));
        }
    }
}

Addr
Loader::stableResolve(Image &image, std::uint16_t ns,
                      const std::string &symbol)
{
    const auto it = stableMap_.find({ns, symbol});
    if (it != stableMap_.end()) {
        ++stableHits_;
        return it->second;
    }
    ++stableMisses_;
    const Addr addr = image.symbolAddress(symbol, ns);
    stableMap_.emplace(std::make_pair(ns, symbol), addr);
    return addr;
}

void
Loader::rebindStaleSlots(Image &image, std::uint16_t new_module,
                         const std::function<void(Addr)>
                             &got_write_hook)
{
    auto &as = image.addressSpace();
    for (auto &lm : image.modules_) {
        if (!lm.loaded || lm.id == new_module)
            continue;
        for (std::uint32_t k = 0; k < lm.gotSlotAddrs.size();
             ++k) {
            const Addr slot = lm.gotSlotAddrs[k];
            if (as.peek64(slot) != lm.lazyGotValue(k))
                continue;
            const std::string &sym = lm.module.imports()[k];
            std::size_t def_module = 0;
            const elf::Export *exp = nullptr;
            if (!image.lookupExport(sym, def_module, exp,
                                    lm.namespaceId))
                continue;
            as.poke64(slot,
                      stableResolve(image, lm.namespaceId, sym));
            if (got_write_hook)
                got_write_hook(slot);
        }
    }
}

void
Loader::save(snapshot::Serializer &s) const
{
    s.beginStruct("loader");
    s.u8(static_cast<std::uint8_t>(options_.bindPolicy));
    s.u32(static_cast<std::uint32_t>(stableMap_.size()));
    for (const auto &[key, addr] : stableMap_) {
        s.u16(key.first);
        s.str(key.second);
        s.u64(addr);
    }
    s.u64(stableHits_);
    s.u64(stableMisses_);
    s.u64(stableInvalidations_);
    s.endStruct();
}

void
Loader::load(snapshot::Deserializer &d)
{
    d.enterStruct("loader");
    if (static_cast<BindPolicy>(d.u8()) != options_.bindPolicy)
        d.fail("loader: bind policy mismatch");
    // The restore path may have rebuilt map/counter state while
    // replaying dlopen/dlclose history (os::Server); the snapshot
    // is the last word, so replace wholesale.
    stableMap_.clear();
    const std::uint32_t n = d.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint16_t ns = d.u16();
        std::string sym = d.str();
        const std::uint64_t addr = d.u64();
        stableMap_.emplace(std::make_pair(ns, std::move(sym)),
                           addr);
    }
    stableHits_ = d.u64();
    stableMisses_ = d.u64();
    stableInvalidations_ = d.u64();
    d.leaveStruct();
    // The restore has replaced everything a skeleton skipped: from
    // here on dlopen and dlclose do their full work.
    options_.skeletonForRestore = false;
}

} // namespace dlsim::linker
