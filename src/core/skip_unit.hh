/**
 * @file
 * TrampolineSkipUnit: the complete speculative trampoline-skip
 * mechanism of paper §3 — the ABTB, its guarding bloom filter, the
 * retire-time population heuristic, the resolution-time target
 * substitution, and every invalidation path (§3.3, §3.4).
 *
 * Integration contract with the CPU:
 *
 *  - At branch resolution, call substituteTarget() with the
 *    architecturally resolved target. On a hit, the CPU must treat
 *    the returned function address as the correct target: compare
 *    the front-end prediction against it, train the BTB with it, and
 *    continue fetching from it — thereby never fetching the
 *    trampoline.
 *  - At retire, call exactly one of retireControl / retireStore /
 *    retireOther per retired instruction, in program order.
 *  - On a context switch, call contextSwitch().
 *  - For coherence invalidations from other cores, call
 *    coherenceInvalidate().
 */

#ifndef DLSIM_CORE_SKIP_UNIT_HH
#define DLSIM_CORE_SKIP_UNIT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>

#include "core/abtb.hh"
#include "core/bloom_filter.hh"
#include "isa/opcode.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::core
{

/** Full configuration of the mechanism. */
struct SkipUnitParams
{
    AbtbParams abtb;

    /**
     * Bloom filter sizing. The paper calls the filter "small", but
     * every retired store probes it, and the filter accumulates one
     * GOT slot per trampoline between flushes — several hundred for
     * Apache-class programs. An undersized filter saturates and its
     * false positives flush the ABTB continuously, erasing the
     * mechanism's benefit (see bench/ablation_bloom). 32Kbit (4KB)
     * with 4 hashes keeps the false-positive rate ~1e-5.
     */
    std::uint32_t bloomBits = 65536;
    std::uint32_t bloomHashes = 6;

    /**
     * §3.4 alternate implementation: no bloom filter; stores never
     * flush the ABTB, and software is responsible for executing
     * AbtbFlush when it rewrites a GOT entry. Cheaper hardware,
     * architecturally visible.
     */
    bool explicitInvalidation = false;

    /**
     * Retain entries across context switches (ASID-style), the
     * option §3.3 sketches for TLB-like retention. When false, a
     * context switch clears the ABTB just like an unmanaged TLB.
     */
    bool asidRetention = false;

    /**
     * Population pattern window: how many simple (non-control,
     * non-store) retired instructions may sit between the call and
     * the memory-indirect jump that identify a trampoline. 0 gives
     * the paper's exact x86 pattern (call immediately followed by
     * `jmp *GOT`); ARM-style trampolines (paper Fig. 2b) carry two
     * address-materialising instructions before `ldr pc, [...]`
     * and need a window of 2. Skipping then also elides those
     * scratch-register writes — safe because PLT scratch registers
     * are ABI call-clobbered.
     */
    std::uint32_t patternWindow = 0;

    /**
     * FAULT INJECTION (testing only): suppress the §3.2 bloom-hit
     * store flush, leaving stale ABTB entries live after a GOT
     * rewrite. Exists to prove the lockstep oracle catches a
     * broken invalidation path (tests/test_lockstep.cc,
     * dlsim_fuzz --inject-bug); never set in real experiments.
     */
    bool buggySuppressStoreFlush = false;
};

/**
 * Why an Abtb and a BloomFilter cannot be built from `p` exactly as
 * given (the invariants their constructors assert), or "" when they
 * can. The reason leads with the flag every tool sets the field
 * with, e.g. "--abtb-entries: ...", so a flag table can reject a
 * bad geometry as a usage error instead of an abort.
 */
std::string geometryError(const SkipUnitParams &p);

/** Mechanism statistics. */
struct SkipUnitStats
{
    std::uint64_t substitutions = 0;   ///< Resolution-time ABTB hits.
    std::uint64_t populations = 0;     ///< Call+indirect-jump inserts.
    std::uint64_t storeFlushes = 0;    ///< Bloom-hit store flushes.
    std::uint64_t coherenceFlushes = 0;
    std::uint64_t contextSwitchFlushes = 0;
    std::uint64_t explicitFlushes = 0;
    std::uint64_t falsePositiveFlushes = 0; ///< Bloom FP (diagnostic).
};

/** The paper's mechanism, front to back. */
class TrampolineSkipUnit
{
  public:
    explicit TrampolineSkipUnit(const SkipUnitParams &params = {});

    /**
     * Resolution-time: given the architecturally resolved target of
     * a call/jump, return the trampoline's memoized entry (function
     * address plus diagnostics) when the target is a known
     * trampoline.
     */
    std::optional<AbtbEntry> substituteTarget(Addr resolved_target);

    /**
     * Retire a control-transfer instruction.
     * @param op            The opcode.
     * @param actual_target Architecturally resolved target.
     * @param load_src_addr For memory-indirect transfers, the
     *                      address the target was loaded from (the
     *                      GOT slot); ignored otherwise.
     */
    void retireControl(isa::Opcode op, Addr actual_target,
                       Addr load_src_addr);

    /** Retire a store; a bloom hit clears the ABTB (§3.2). */
    void retireStore(Addr addr);

    /** Retire any other instruction. Inline: this is the hook on
     *  the block dispatcher's per-body-op path, and it only touches
     *  the pattern-window state. */
    void retireOther()
    {
        // Simple instructions consume the pattern window (the ARM
        // trampoline's address-materialising prologue).
        if (patternArmed_) {
            if (windowLeft_ == 0)
                patternArmed_ = false;
            else
                --windowLeft_;
        }
    }

    /** Coherence invalidation received from the memory system. */
    void coherenceInvalidate(Addr addr);

    /** OS context switch. */
    void contextSwitch();

    /**
     * The OS switched threads without changing address space: the
     * kernel code that ran in between ends the population pattern,
     * so the old thread's last call cannot pair with the new
     * thread's first indirect jump. Entries are kept.
     */
    void threadSwitch() { patternArmed_ = false; }

    /** The AbtbFlush instruction (§3.4). */
    void explicitFlush();

    /**
     * Set the current address-space id. Entries are ASID-tagged so
     * that asidRetention mode stays correct across processes.
     */
    void setAsid(std::uint16_t asid) { asid_ = asid; }
    std::uint16_t asid() const { return asid_; }

    const Abtb &abtb() const { return abtb_; }
    const BloomFilter &bloom() const { return bloom_; }
    const SkipUnitStats &stats() const { return stats_; }
    const SkipUnitParams &params() const { return params_; }

    /** Total state: ABTB + bloom filter (0 when explicit mode). */
    std::uint64_t hardwareBytes() const;

    /** Reset every measurement counter the unit reports: the
     *  SkipUnitStats block *and* the Abtb/BloomFilter structure
     *  counters. Previously only stats_ was cleared, so
     *  `<prefix>.abtb.*` / `<prefix>.bloom.insertions` kept
     *  accumulating across measurement boundaries and the flush
     *  accounting invariant (abtb.flushes == sum of per-cause
     *  flushes) broke after the first clearStats(). */
    void clearStats()
    {
        stats_ = {};
        abtb_.clearStats();
        bloom_.clearStats();
    }

    /** Human-readable state dump: stats, pattern detector, bloom
     *  occupancy, and every valid ABTB entry (divergence reports). */
    std::string dumpState() const;

    /** Register the mechanism's counters under `prefix`:
     *  `<prefix>.abtb.*`, `<prefix>.bloom.*`, `<prefix>.skip.*`. */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    /** Checkpoint ABTB, bloom filter, and pattern/stat state. */
    void save(snapshot::Serializer &s) const;

    /** Restore; throws SnapshotError on config mismatch. */
    void load(snapshot::Deserializer &d);

  private:
    void flushFor(std::uint64_t SkipUnitStats::*counter, Addr addr,
                  bool check_bloom);

    SkipUnitParams params_;
    Abtb abtb_;
    BloomFilter bloom_;
    SkipUnitStats stats_;

    /** Retire-stream pattern state: preceding retired call plus
     *  the remaining intervening-instruction budget. */
    bool patternArmed_ = false;
    Addr lastCallTarget_ = 0;
    std::uint32_t windowLeft_ = 0;
    std::uint16_t asid_ = 0;

    /**
     * Exact shadow of bloom contents, used only to classify
     * false-positive flushes in stats (not part of the hardware).
     */
    std::unordered_set<Addr> bloomShadow_;
};

} // namespace dlsim::core

#endif // DLSIM_CORE_SKIP_UNIT_HH
