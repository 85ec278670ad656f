/**
 * @file
 * The program loader: maps modules into an Image, builds PLT/GOT
 * sections, and applies relocations.
 *
 * Layout reproduces the conventional process memory map the paper
 * describes (§2.3): the executable low in the address space, shared
 * libraries mapped high — far beyond the ±2GB reach of a rel32 call,
 * which is precisely why direct calls to library functions are
 * impossible and trampolines exist. Two alternatives are supported:
 *
 *  - ASLR: randomise library and stack placement (paper §2.1,
 *    "Security").
 *  - Near-library allocation: place libraries within rel32 reach of
 *    the executable, the custom-allocator arrangement the paper's
 *    software evaluation methodology needs (§4.3) and one of the
 *    things that make a software solution unattractive (§2.3).
 */

#ifndef DLSIM_LINKER_LOADER_HH
#define DLSIM_LINKER_LOADER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "elf/module.hh"
#include "linker/image.hh"
#include "stats/rng.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::linker
{

/**
 * GOT binding / library loading policy — the software baselines the
 * benches compare the §3 hardware against.
 */
enum class BindPolicy : std::uint8_t
{
    /** ld.so default: resolver trap on each import's first call. */
    Lazy = 0,
    /** BIND_NOW: every slot bound eagerly at load/dlopen time. */
    Now = 1,
    /**
     * Stable linking (Zakaria et al.): eager binding served from a
     * persistent memoised resolution map, so repeated loads (and
     * dlclose/dlopen churn) skip symbol lookup and no lazy-binding
     * trap ever fires in steady state.
     */
    Stable = 2,
    /**
     * Demand-driven loading (Mururu et al.): lazy binding plus
     * demand-paged library text/data — pages fault in on first
     * touch, creating the cold-start resolver/fault storms the
     * bloom-flush path and COW page pool must absorb.
     */
    Demand = 3,
};

/** True for the policies that bind GOT slots lazily. */
inline bool
bindsLazily(BindPolicy p)
{
    return p == BindPolicy::Lazy || p == BindPolicy::Demand;
}

/** Stable lowercase name ("lazy", "now", "stable", "demand"). */
const char *bindPolicyName(BindPolicy p);

/** Parse bindPolicyName output (plus "eager" as an alias for
 *  "now"). @throws std::invalid_argument on anything else. */
BindPolicy parseBindPolicy(const std::string &name);

/** Loader configuration. */
struct LoaderOptions
{
    /** GOT binding / library loading policy. */
    BindPolicy bindPolicy = BindPolicy::Lazy;

    /** Randomise library/stack placement. */
    bool aslr = false;
    std::uint64_t aslrSeed = 1;

    /**
     * Load libraries just above the executable, within rel32 reach —
     * required by the software call-site patcher.
     */
    bool nearLibraries = false;

    Addr exeBase = 0x400000;
    Addr libBase = 0x7f0000000000ull;
    Addr stackTop = 0x7ffffffff000ull;
    std::uint64_t stackSize = 1 << 20;
    std::uint64_t heapSize = 1 << 22;

    /** Select among ifunc candidates (0 = baseline hardware). */
    std::uint32_t hwCapLevel = 0;

    /** Trampoline flavour (paper Fig. 2: x86-64 or ARM style). */
    PltStyle pltStyle = PltStyle::X86;

    /**
     * Build a skeleton for a snapshot restore: skip the load-time
     * work a restore replaces wholesale — text-page
     * materialisation, relocation (slot immediates), GOT binding,
     * and the slot index (all pages come from the snapshot's page
     * pool, every slot field from its image record, and
     * Image::load re-runs indexSlots). Layout, module metadata,
     * and symbol tables — the parts a restore keeps — are built
     * identically. dlopen and dlclose on such an image replay
     * layout only — module add and placement, with first-fit
     * reuse — so a restore can re-create a churned module table
     * cheaply. Loader::load ends skeleton mode. An image built
     * this way and never restored is not runnable.
     */
    bool skeletonForRestore = false;
};

/**
 * Builds a runnable Image from an executable module plus libraries.
 *
 * Also provides dlopen/dlclose-style dynamic load and unload on an
 * existing image.
 */
class Loader
{
  public:
    explicit Loader(LoaderOptions options = {});

    /**
     * Load an executable and its libraries. Module order determines
     * symbol resolution precedence (executable first, then libraries
     * in the given order, like DT_NEEDED order with LD_PRELOAD at the
     * front).
     */
    std::unique_ptr<Image> load(elf::Module exe,
                                std::vector<elf::Module> libs);

    /**
     * Load an additional library into a live image (dlopen). Like
     * mmap, the loader reuses address space a prior dlclose
     * released when the incoming module fits (first fit; disabled
     * under ASLR) — so a close/reload cycle lands the new module at
     * the old virtual addresses, the scenario every stale-code
     * cache (decode index, basic-block cache) must survive.
     *
     * The module's GOT initialization (module id, resolver address,
     * lazy slot values) is reported through got_write_hook, like
     * dlclose's resets: on a real machine these are ld.so stores,
     * so any GOT-snooping structure (the §3.2 bloom filter) must
     * see them — critical precisely in the region-reuse case, where
     * stale ABTB entries for the previous occupant's trampolines
     * still name these GOT addresses.
     * @return The new module's id.
     */
    std::uint16_t dlopen(Image &image, elf::Module lib,
                         const std::function<void(Addr)>
                             &got_write_hook = {});

    /**
     * Load a module group into a *fresh namespace* (dlmopen with
     * LM_ID_NEWLM): the group's symbols are invisible to the
     * default namespace and its imports resolve only within the
     * group — complete symbol isolation, e.g. for loading two
     * versions of a library side by side.
     * @return The new namespace id.
     */
    std::uint16_t dlmopen(Image &image,
                          std::vector<elf::Module> modules);

    /**
     * Unload a library (dlclose). GOTPLT entries in other modules
     * that resolved into the closed module are reset to their lazy
     * values; each such GOT write is reported through got_write_hook
     * (modelling the coherence traffic a real unload generates) so
     * the ABTB can observe it.
     */
    void dlclose(Image &image, const std::string &module_name,
                 const std::function<void(Addr)> &got_write_hook = {});

    const LoaderOptions &options() const { return options_; }

    /** Stack region info of the last load. */
    Addr stackTop() const { return stackTop_; }

    /** Heap (scratch data) region base of the last load. */
    Addr heapBase() const { return heapBase_; }

    /** @name Stable-linking resolution map (BindPolicy::Stable) @{
     *
     * (namespace, symbol) → resolved address, memoised across
     * loads and dlopen/dlclose churn. Entries resolving into a
     * dlclose'd module are invalidated; a later dlopen re-binds any
     * still-lazy GOT slots it can now satisfy (the rebind sweep), so
     * steady-state execution takes zero resolver traps.
     */
    std::size_t stableMapSize() const { return stableMap_.size(); }
    std::uint64_t stableHits() const { return stableHits_; }
    std::uint64_t stableMisses() const { return stableMisses_; }
    std::uint64_t stableInvalidations() const
    {
        return stableInvalidations_;
    }
    /** The map itself (tests / coherence asserts). */
    const std::map<std::pair<std::uint16_t, std::string>, Addr> &
    stableMap() const
    {
        return stableMap_;
    }
    /** @} */

    /** Checkpoint the stable map + counters ("loader" record). */
    void save(snapshot::Serializer &s) const;
    void load(snapshot::Deserializer &d);

  private:
    /** Map one module at the cursor and emit its slots. */
    void placeModule(Image &image, std::uint16_t module_id);

    /** Address-space span placeModule would consume for `mod`
     *  (text+PLT, GOT, data, guard page), without side effects. */
    Addr moduleSpan(const elf::Module &mod) const;

    /** Apply a module's relocations (after placement). */
    void relocateModule(Image &image, std::uint16_t module_id);

    /** Populate a module's GOT (per the binding policy). */
    void bindModule(Image &image, std::uint16_t module_id);

    /** Stable-map resolution of `symbol` in namespace `ns`; falls
     *  back to (and memoises) a full Image::symbolAddress lookup. */
    Addr stableResolve(Image &image, std::uint16_t ns,
                       const std::string &symbol);

    /** dlclose's linker work: re-lazify GOT slots in other modules
     *  that resolved into `closing`, reporting each write via the
     *  hook, and drop its stable-map resolutions. */
    void unbind(Image &image, const LoadedModule &closing,
                const std::function<void(Addr)> &got_write_hook);

    /** Stable-mode dlopen epilogue: re-bind still-lazy GOT slots in
     *  other modules that the image can now satisfy (slots a prior
     *  dlclose re-lazified), reporting each write via the hook. */
    void rebindStaleSlots(Image &image, std::uint16_t new_module,
                          const std::function<void(Addr)>
                              &got_write_hook);

    /** A region dlclose released, available for dlopen reuse. */
    struct FreeRegion
    {
        Addr base = 0;
        Addr span = 0;
    };

    LoaderOptions options_;
    stats::Rng rng_;
    std::vector<FreeRegion> freed_;
    Addr libCursor_ = 0;
    Addr stackTop_ = 0;
    Addr heapBase_ = 0;

    /** Stable-linking state (ordered: serialization must be
     *  byte-stable). */
    std::map<std::pair<std::uint16_t, std::string>, Addr>
        stableMap_;
    std::uint64_t stableHits_ = 0;
    std::uint64_t stableMisses_ = 0;
    std::uint64_t stableInvalidations_ = 0;
};

} // namespace dlsim::linker

#endif // DLSIM_LINKER_LOADER_HH
