/**
 * @file
 * The Alternate BTB (ABTB) — the paper's central hardware structure.
 *
 * A retire-time table mapping a trampoline's address to the library
 * function the trampoline branches to. Each entry costs 12 bytes
 * (two 48-bit virtual addresses, paper §5.3): 256 entries therefore
 * total under 1.5KB, the headline hardware budget.
 *
 * The table sits off the critical fetch path: it is consulted at
 * branch *resolution* (is the resolved target a known trampoline?)
 * and written at *retire* (call followed by memory-indirect jump).
 */

#ifndef DLSIM_CORE_ABTB_HH
#define DLSIM_CORE_ABTB_HH

#include <cstdint>
#include <optional>
#include <string>

#include "isa/instruction.hh"
#include "mem/set_assoc.hh"

namespace dlsim::stats
{
class MetricsRegistry;
}

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::core
{

using isa::Addr;

/** Bytes of storage per ABTB entry (two 48-bit addresses). */
constexpr std::uint32_t AbtbEntryBytes = 12;

/** ABTB geometry. */
struct AbtbParams
{
    std::uint32_t entries = 256;
    std::uint32_t assoc = 4;
};

/** One ABTB mapping. */
struct AbtbEntry
{
    Addr trampoline = 0; ///< Key: address of the PLT entry.
    Addr function = 0;   ///< Value: the trampoline's branch target.
    Addr gotAddr = 0;    ///< Slot the target was loaded from
                         ///< (checker/diagnostics; the hardware
                         ///< stores this only in the bloom filter).
    std::uint16_t asid = 0; ///< Address-space tag (ASID retention,
                            ///< paper §3.3 "context switch").
};

/** The alternate BTB table. */
class Abtb
{
  public:
    explicit Abtb(const AbtbParams &params);

    /** Resolution-time lookup by resolved branch target. */
    std::optional<AbtbEntry> lookup(Addr trampoline,
                                    std::uint16_t asid = 0);

    /** Retire-time insert of a (trampoline -> function) mapping. */
    void insert(Addr trampoline, Addr function, Addr got_addr,
                std::uint16_t asid = 0);

    /** Clear every entry (bloom hit, context switch, or explicit). */
    void flushAll();

    /** Storage cost in bytes (paper §5.3 accounting). */
    std::uint64_t sizeBytes() const
    {
        return std::uint64_t{params_.entries} * AbtbEntryBytes;
    }

    const AbtbParams &params() const { return params_; }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t evictions() const { return evictions_; }
    /** flushAll() invocations — the observable flush count the
     *  skip unit's per-cause accounting must add up to. */
    std::uint64_t flushes() const { return flushes_; }
    std::uint64_t occupancy() const;

    void clearStats();

    /** Human-readable dump of every valid entry (diagnostics). */
    std::string dump() const;

    /**
     * Register lookup/hit/insert/eviction counters and the occupancy
     * gauge under `prefix` (e.g. "dlsim.core.abtb").
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    /** Checkpoint contents, LRU state, and counters. */
    void save(snapshot::Serializer &s) const;

    /** Restore; throws SnapshotError on geometry mismatch. */
    void load(snapshot::Deserializer &d);

  private:
    /** One way: the mapping, its valid flag and LRU stamp. Wire
     *  record: u64 trampoline, u64 function, u64 gotAddr, u16 asid,
     *  bool valid, u64 lastUse. */
    struct Way
    {
        AbtbEntry entry;
        bool live;
        std::uint64_t lastUse;

        bool valid() const { return live; }
        void invalidate() { live = false; }

        static constexpr std::size_t WireBytes = 35;
        static void pack(std::uint8_t *p, const Way &w);
        static void unpack(const std::uint8_t *p, Way &w);
    };

    /** Matcher of the valid way holding (trampoline, asid). */
    static auto
    holding(Addr trampoline, std::uint16_t asid)
    {
        return [=](const Way &w) {
            return w.live && w.entry.trampoline == trampoline &&
                   w.entry.asid == asid;
        };
    }

    std::size_t setOf(Addr trampoline) const
    {
        // Trampolines are 16-byte aligned.
        return ways_.setOf(trampoline >> 4);
    }

    AbtbParams params_;
    mem::SetAssocTable<Way> ways_;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t flushes_ = 0;
};

} // namespace dlsim::core

#endif // DLSIM_CORE_ABTB_HH
