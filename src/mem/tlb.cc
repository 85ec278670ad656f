#include "mem/tlb.hh"

#include <bit>
#include <cassert>

#include "snapshot/serializer.hh"
#include "stats/metrics.hh"

namespace dlsim::mem
{

namespace
{

/** Snapshot record of one entry: u64 vpn, u16 asid, bool valid,
 *  u64 lastUse — the packed key decomposed into its fields. */
constexpr std::size_t EntryWireBytes = 19;

} // namespace

Tlb::Tlb(const TlbParams &params) : params_(params)
{
    assert(params_.assoc > 0 && params_.entries >= params_.assoc);
    numSets_ = params_.entries / params_.assoc;
    assert(std::has_single_bit(numSets_));
    entries_.resize(numSets_ * params_.assoc);
}

Tlb::Entry *
Tlb::findVictim(std::size_t set)
{
    Entry *base = &entries_[set * params_.assoc];
    Entry *victim = base;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Entry &e = base[w];
        if (!(e.key & 1))
            return &e; // first invalid entry, deterministically
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    return victim;
}

bool
Tlb::accessMiss(std::uint64_t vpn, std::size_t set,
                std::uint16_t asid)
{
    ++misses_;
    Entry *victim = findVictim(set);
    if (victim->key & 1)
        ++evictions_;
    victim->key = entryKey(vpn, asid);
    victim->lastUse = tick_;
    lastEntry_ = victim;
    return false;
}

void
Tlb::flushAll()
{
    lastEntry_ = nullptr; // the repeat precondition no longer holds
    for (auto &e : entries_)
        e.key &= ~std::uint64_t{1};
}

void
Tlb::flushAsid(std::uint16_t asid)
{
    lastEntry_ = nullptr; // the repeat precondition no longer holds
    for (auto &e : entries_) {
        if (((e.key >> 1) & 0xffff) == asid)
            e.key &= ~std::uint64_t{1};
    }
}

void
Tlb::clearStats()
{
    hits_ = misses_ = evictions_ = 0;
}

void
Tlb::reportMetrics(stats::MetricsRegistry &reg,
                   const std::string &prefix) const
{
    reg.counter(prefix + ".hits", hits_);
    reg.counter(prefix + ".misses", misses_);
    reg.counter(prefix + ".evictions", evictions_);
}

void
Tlb::save(snapshot::Serializer &s) const
{
    s.beginStruct("tlb");
    s.str(params_.name);
    s.u32(params_.entries);
    s.u32(params_.assoc);
    s.u64(tick_);
    s.u64(hits_);
    s.u64(misses_);
    s.u64(evictions_);
    s.records(entries_, EntryWireBytes,
              [](std::uint8_t *p, const Entry &e) {
                  snapshot::putLe64(p, e.key >> 17);
                  snapshot::putLe16(
                      p + 8, static_cast<std::uint16_t>(e.key >> 1));
                  p[10] = static_cast<std::uint8_t>(e.key & 1);
                  snapshot::putLe64(p + 11, e.lastUse);
              });
    s.endStruct();
}

void
Tlb::load(snapshot::Deserializer &d)
{
    d.enterStruct("tlb");
    const std::string name = d.str();
    if (name != params_.name)
        d.fail("tlb name mismatch: snapshot has '" + name +
               "', machine has '" + params_.name + "'");
    d.checkU32(params_.entries, params_.name + " entries");
    d.checkU32(params_.assoc, params_.name + " assoc");
    tick_ = d.u64();
    hits_ = d.u64();
    misses_ = d.u64();
    evictions_ = d.u64();
    // Bulk-unpack; see Cache::load.
    const std::uint8_t *p = d.raw(entries_.size() * EntryWireBytes);
    for (Entry &e : entries_) {
        e.key = (snapshot::le64(p) << 17) |
                (static_cast<std::uint64_t>(snapshot::le16(p + 8))
                 << 1) |
                (p[10] != 0 ? 1 : 0);
        e.lastUse = snapshot::le64(p + 11);
        p += EntryWireBytes;
    }
    lastEntry_ = nullptr; // transient; never valid across a restore
    d.leaveStruct();
}

} // namespace dlsim::mem
