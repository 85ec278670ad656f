#include "sim/system.hh"

#include <cassert>

#include "snapshot/serializer.hh"

namespace dlsim::sim
{

System::System(cpu::Core &core, linker::Image &image,
               linker::DynamicLinker &linker)
    : core_(core), image_(image), linker_(linker)
{
    auto proc = std::make_unique<Process>();
    proc->asid = 0;
    proc->name = "proc0";
    processes_.push_back(std::move(proc));
    current_ = processes_.front().get();
}

Process &
System::fork(Process &parent)
{
    auto child = std::make_unique<Process>();
    child->asid = nextAsid_++;
    child->name = "proc" + std::to_string(child->asid);

    if (&parent == current_) {
        child->as = image_.addressSpace().fork();
        child->state = core_.state();
    } else {
        assert(parent.as);
        child->as = parent.as->fork();
        child->state = parent.state;
    }

    processes_.push_back(std::move(child));
    return *processes_.back();
}

void
System::switchTo(Process &proc)
{
    if (&proc == current_)
        return;
    current_->as = image_.releaseAddressSpace();
    current_->state = core_.state();

    image_.adoptAddressSpace(std::move(proc.as));
    core_.contextSwitch(&image_, &linker_, proc.asid);
    core_.setState(proc.state);
    current_ = &proc;
}

const mem::AddressSpace &
System::spaceOf(const Process &proc) const
{
    if (&proc == current_)
        return image_.addressSpace();
    return *proc.as;
}

void
System::save(snapshot::Serializer &s) const
{
    // Every process's space registers its pages through one shared
    // pool so COW sharing (and the §5.5 accounting derived from it)
    // survives the roundtrip; the pool section is written last but
    // restored first (sections are located by tag).
    mem::PagePoolSaver pool;

    s.beginSection("system");
    s.beginStruct("sys");
    s.u16(nextAsid_);
    s.u32(static_cast<std::uint32_t>(processes_.size()));
    std::uint32_t cur = 0;
    for (std::size_t i = 0; i < processes_.size(); ++i) {
        if (processes_[i].get() == current_)
            cur = static_cast<std::uint32_t>(i);
    }
    s.u32(cur);
    s.endStruct();

    for (const auto &proc : processes_) {
        s.beginStruct("proc");
        s.u16(proc->asid);
        s.str(proc->name);
        // The running process's architectural state lives in the
        // core (proc->state is stale while scheduled); snapshot the
        // effective state either way.
        const cpu::MachineState &st = (proc.get() == current_)
                                          ? core_.state()
                                          : proc->state;
        for (std::uint64_t reg : st.regs)
            s.u64(reg);
        s.u64(st.pc);
        s.boolean(st.halted);
        s.endStruct();
        spaceOf(*proc).save(s, pool);
    }
    s.endSection();

    s.beginSection("pages");
    pool.save(s);
    s.endSection();

    s.beginSection("image");
    image_.save(s);
    s.endSection();

    s.beginSection("linker");
    linker_.save(s);
    s.endSection();

    s.beginSection("core");
    core_.save(s);
    s.endSection();
}

void
System::load(snapshot::Deserializer &d)
{
    mem::PagePoolLoader pool;
    d.enterSection("pages");
    pool.load(d);
    d.leaveSection();

    d.enterSection("system");
    d.enterStruct("sys");
    const std::uint16_t nextAsid = d.u16();
    const std::uint32_t count = d.u32();
    const std::uint32_t cur = d.u32();
    d.leaveStruct();
    if (count == 0 || cur >= count)
        d.fail("corrupt process table");

    // No reserve: the count sits in "sys", ahead of the records it
    // counts, so it cannot be checked against them up front; each
    // record below fails on its own if the section runs out.
    std::vector<std::unique_ptr<Process>> procs;
    for (std::uint32_t i = 0; i < count; ++i) {
        auto p = std::make_unique<Process>();
        d.enterStruct("proc");
        p->asid = d.u16();
        p->name = d.str();
        for (auto &reg : p->state.regs)
            reg = d.u64();
        p->state.pc = d.u64();
        p->state.halted = d.boolean();
        d.leaveStruct();
        p->as = std::make_unique<mem::AddressSpace>();
        p->as->load(d, pool);
        procs.push_back(std::move(p));
    }
    d.leaveSection();

    d.enterSection("image");
    image_.load(d);
    d.leaveSection();

    d.enterSection("linker");
    linker_.load(d);
    d.leaveSection();

    d.enterSection("core");
    core_.load(d);
    d.leaveSection();

    // Commit: swap in the restored process table and hand the
    // scheduled process's space to the shared image (dropping the
    // space the image held before the restore).
    processes_ = std::move(procs);
    current_ = processes_[cur].get();
    nextAsid_ = nextAsid;
    image_.releaseAddressSpace();
    image_.adoptAddressSpace(std::move(current_->as));
}

MemoryStats
System::memoryStats() const
{
    MemoryStats stats;
    for (const auto &proc : processes_) {
        const auto &as = spaceOf(*proc);
        stats.textCowCopies +=
            as.cowCopies(mem::RegionKind::Text);
        stats.gotCowCopies += as.cowCopies(mem::RegionKind::Got);
        stats.dataCowCopies +=
            as.cowCopies(mem::RegionKind::Data);
        stats.stackCowCopies +=
            as.cowCopies(mem::RegionKind::Stack);
        stats.sharedPages += as.sharedPages();
        stats.privateBytes += as.privateBytes();
    }
    return stats;
}

} // namespace dlsim::sim
