/**
 * @file
 * Branch target buffer.
 *
 * The BTB is the structure the paper's mechanism piggybacks on: the
 * ABTB-driven update path trains the BTB entry of a library call site
 * with the *library function* address instead of the trampoline
 * address, which is what makes the front end skip the trampoline.
 * The BTB itself needs no modification — exactly the paper's claim.
 */

#ifndef DLSIM_BRANCH_BTB_HH
#define DLSIM_BRANCH_BTB_HH

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

namespace dlsim::branch
{

using isa::Addr;

/** BTB geometry (2K entries, typical of the paper's era of core). */
struct BtbParams
{
    std::uint32_t entries = 2048;
    std::uint32_t assoc = 4;
};

/**
 * A tag and its predicted target: the entry of the BTB (tag = pc)
 * and of the indirect predictor (tag = mixed pc and path history).
 * The tag uses all 64 bits, so validity is a separate flag. Wire
 * record: u64 tag, u64 target, bool valid, u64 lastUse.
 */
struct TargetEntry
{
    std::uint64_t tag;
    Addr target;
    bool live;
    std::uint64_t lastUse;

    bool valid() const { return live; }
    void invalidate() { live = false; }

    /** Matcher of the valid entry tagged `t`. */
    static auto
    holding(std::uint64_t t)
    {
        return [t](const TargetEntry &e) { return e.live && e.tag == t; };
    }

    static constexpr std::size_t WireBytes = 25;

    static void
    pack(std::uint8_t *p, const TargetEntry &e)
    {
        snapshot::putLe64(p, e.tag);
        snapshot::putLe64(p + 8, e.target);
        p[16] = e.live ? 1 : 0;
        snapshot::putLe64(p + 17, e.lastUse);
    }

    static void
    unpack(const std::uint8_t *p, TargetEntry &e)
    {
        e.tag = snapshot::le64(p);
        e.target = snapshot::le64(p + 8);
        e.live = p[16] != 0;
        e.lastUse = snapshot::le64(p + 17);
    }
};

/** Set-associative, fully tagged branch target buffer. */
class Btb
{
  public:
    explicit Btb(const BtbParams &params);

    /** Predicted target for the branch at pc, if any. */
    std::optional<Addr> lookup(Addr pc);

    /** Train the entry for pc with a resolved target. */
    void update(Addr pc, Addr target);

    /** Remove the entry for pc (used by tests). */
    void invalidate(Addr pc);

    /** Flush everything (context switch without ASIDs). */
    void invalidateAll();

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return lookups_ - hits_; }
    std::uint64_t evictions() const { return evictions_; }
    void clearStats() { lookups_ = hits_ = evictions_ = 0; }

    /** Register lookup/hit/miss/eviction counters under `prefix`. */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    /** Checkpoint contents, LRU state, and counters. */
    void save(snapshot::Serializer &s) const;

    /** Restore; throws SnapshotError on geometry mismatch. */
    void load(snapshot::Deserializer &d);

  private:
    std::size_t setOf(Addr pc) const { return entries_.setOf(pc >> 2); }

    BtbParams params_;
    mem::SetAssocTable<TargetEntry> entries_;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace dlsim::branch

#endif // DLSIM_BRANCH_BTB_HH
