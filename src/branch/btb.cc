#include "branch/btb.hh"

#include <bit>
#include <cassert>

#include "snapshot/serializer.hh"

#include "stats/metrics.hh"

namespace dlsim::branch
{

namespace
{

/** Snapshot record of one entry: u64 pc, u64 target, bool valid,
 *  u64 lastUse. */
constexpr std::size_t EntryWireBytes = 25;

} // namespace

Btb::Btb(const BtbParams &params) : params_(params)
{
    assert(params_.assoc > 0 && params_.entries >= params_.assoc);
    numSets_ = params_.entries / params_.assoc;
    assert(std::has_single_bit(numSets_));
    entries_.resize(numSets_ * params_.assoc);
}

std::optional<Addr>
Btb::lookup(Addr pc)
{
    ++lookups_;
    ++tick_;
    Entry *base = &entries_[setOf(pc) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.pc == pc) {
            e.lastUse = tick_;
            ++hits_;
            return e.target;
        }
    }
    return std::nullopt;
}

Btb::Entry *
Btb::findVictim(std::size_t set)
{
    Entry *base = &entries_[set * params_.assoc];
    Entry *victim = base;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Entry &e = base[w];
        if (!e.valid)
            return &e; // first invalid entry, deterministically
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    return victim;
}

void
Btb::update(Addr pc, Addr target)
{
    ++tick_;
    Entry *base = &entries_[setOf(pc) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.pc == pc) {
            e.target = target;
            e.lastUse = tick_;
            return;
        }
    }
    Entry *victim = findVictim(setOf(pc));
    if (victim->valid)
        ++evictions_;
    victim->valid = true;
    victim->pc = pc;
    victim->target = target;
    victim->lastUse = tick_;
}

void
Btb::invalidate(Addr pc)
{
    Entry *base = &entries_[setOf(pc) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].pc == pc)
            base[w].valid = false;
    }
}

void
Btb::invalidateAll()
{
    for (auto &e : entries_)
        e.valid = false;
}

void
Btb::reportMetrics(stats::MetricsRegistry &reg,
                   const std::string &prefix) const
{
    reg.counter(prefix + ".lookups", lookups_);
    reg.counter(prefix + ".hits", hits_);
    reg.counter(prefix + ".misses", misses());
    reg.counter(prefix + ".evictions", evictions_);
}


void
Btb::save(snapshot::Serializer &s) const
{
    s.beginStruct("btb");
    s.u32(params_.entries);
    s.u32(params_.assoc);
    s.u64(tick_);
    s.u64(lookups_);
    s.u64(hits_);
    s.u64(evictions_);
    s.records(entries_, EntryWireBytes,
              [](std::uint8_t *p, const Entry &e) {
                  snapshot::putLe64(p, e.pc);
                  snapshot::putLe64(p + 8, e.target);
                  p[16] = e.valid ? 1 : 0;
                  snapshot::putLe64(p + 17, e.lastUse);
              });
    s.endStruct();
}

void
Btb::load(snapshot::Deserializer &d)
{
    d.enterStruct("btb");
    d.checkU32(params_.entries, "btb entries");
    d.checkU32(params_.assoc, "btb assoc");
    tick_ = d.u64();
    lookups_ = d.u64();
    hits_ = d.u64();
    evictions_ = d.u64();
    // Bulk-unpack; see mem::Cache::load.
    const std::uint8_t *p = d.raw(entries_.size() * EntryWireBytes);
    for (Entry &e : entries_) {
        e.pc = snapshot::le64(p);
        e.target = snapshot::le64(p + 8);
        e.valid = p[16] != 0;
        e.lastUse = snapshot::le64(p + 17);
        p += EntryWireBytes;
    }
    d.leaveStruct();
}

} // namespace dlsim::branch
