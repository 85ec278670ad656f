/**
 * @file
 * OS-level process model: fork with copy-on-write page sharing and
 * context switching between processes on one core.
 *
 * This layer exists for two of the paper's arguments:
 *
 *  - §5.5 memory savings: prefork servers (Apache) share library and
 *    program text COW across hundreds of processes; a software
 *    call-site patcher dirties ~280 text pages per process while the
 *    proposed hardware dirties none. System::memoryStats()
 *    aggregates exactly that accounting.
 *  - §3.3 context switches: ABTB entries are virtual and must be
 *    flushed on a switch unless an ASID-style retention scheme is
 *    used; System::switchTo() drives that path.
 *
 * dlsim shares one code image across processes (same modules loaded
 * at the same addresses in every process, as fork semantics give);
 * each process owns its address space, swapped into the image while
 * the process runs. Call-site patches therefore apply semantically
 * to all processes — which is what would happen anyway, since every
 * process resolves the same symbols — while the per-process COW page
 * accounting remains exact.
 *
 * System is a process table, not a scheduler: it decides nothing
 * about who runs when, its callers switch processes explicitly.
 * Threads on several cores run on os::Kernel, the one scheduler.
 * The kernel keeps one address space for all its threads, because
 * no server workload needs per-thread address spaces; giving each
 * §5.5 process its own copy-on-write space is what System is for.
 */

#ifndef DLSIM_SIM_SYSTEM_HH
#define DLSIM_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "linker/dynamic_linker.hh"
#include "linker/image.hh"
#include "mem/address_space.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::sim
{

/** One simulated OS process. */
struct Process
{
    std::uint16_t asid = 0;
    std::string name;
    /** Owned while the process is switched out; while running, the
     *  address space lives inside the shared Image. */
    std::unique_ptr<mem::AddressSpace> as;
    cpu::MachineState state;
};

/** Aggregated memory accounting across all processes. */
struct MemoryStats
{
    std::uint64_t textCowCopies = 0;
    std::uint64_t gotCowCopies = 0;
    std::uint64_t dataCowCopies = 0;
    std::uint64_t stackCowCopies = 0;
    std::uint64_t sharedPages = 0;
    std::uint64_t privateBytes = 0;

    std::uint64_t totalCowCopies() const
    {
        return textCowCopies + gotCowCopies + dataCowCopies +
               stackCowCopies;
    }
};

/** Single-core multi-process system. */
class System
{
  public:
    /**
     * Takes an already-attached core/image/linker; the image's
     * current address space becomes process 0.
     */
    System(cpu::Core &core, linker::Image &image,
           linker::DynamicLinker &linker);

    /** The master process (process 0). */
    Process &initialProcess() { return *processes_.front(); }

    /**
     * Fork `parent`: the child shares all pages copy-on-write and
     * inherits the register state the parent last ran with.
     */
    Process &fork(Process &parent);

    /** Context-switch the core to `proc`. */
    void switchTo(Process &proc);

    Process &current() { return *current_; }

    std::size_t numProcesses() const { return processes_.size(); }
    Process &process(std::size_t i) { return *processes_[i]; }

    /** COW/page accounting across every process (§5.5). */
    MemoryStats memoryStats() const;

    cpu::Core &core() { return core_; }
    linker::Image &image() { return image_; }

    /**
     * Checkpoint the whole system: the process table (ASIDs,
     * register state, per-process address spaces with their COW
     * sharing topology), the shared image, the linker, and the
     * core. The referenced core/image/linker objects themselves
     * must be rebuilt from the same parameters before load().
     */
    void save(snapshot::Serializer &s) const;

    /** Restore; replaces the process table. Throws SnapshotError
     *  on any mismatch, leaving the system untouched on the
     *  process-table level until all records parse. */
    void load(snapshot::Deserializer &d);

  private:
    const mem::AddressSpace &spaceOf(const Process &proc) const;

    cpu::Core &core_;
    linker::Image &image_;
    linker::DynamicLinker &linker_;
    std::vector<std::unique_ptr<Process>> processes_;
    Process *current_;
    std::uint16_t nextAsid_ = 1;
};

} // namespace dlsim::sim

#endif // DLSIM_SIM_SYSTEM_HH
