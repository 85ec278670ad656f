#include "mem/tlb.hh"

#include <cassert>

#include "snapshot/serializer.hh"
#include "stats/metrics.hh"

namespace dlsim::mem
{

Tlb::Tlb(const TlbParams &params)
    : params_(params), entries_(params.entries / params.assoc, params.assoc)
{
    assert(params_.assoc > 0 && params_.entries >= params_.assoc);
}

bool
Tlb::accessMiss(std::uint64_t vpn, std::size_t set,
                std::uint16_t asid)
{
    ++misses_;
    const auto [e, evicted] =
        entries_.fill(set, Entry{Entry::keyOf(vpn, asid), 0});
    if (evicted)
        ++evictions_;
    lastEntry_ = e;
    return false;
}

void
Tlb::flushAll()
{
    lastEntry_ = nullptr; // the repeat precondition no longer holds
    entries_.flushAll();
}

void
Tlb::flushAsid(std::uint16_t asid)
{
    lastEntry_ = nullptr; // the repeat precondition no longer holds
    entries_.flushIf([asid](const Entry &e) { return e.asid() == asid; });
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
    s.u64(entries_.tick());
    s.u64(hits_);
    s.u64(misses_);
    s.u64(evictions_);
    entries_.save(s);
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
    entries_.setTick(d.u64());
    hits_ = d.u64();
    misses_ = d.u64();
    evictions_ = d.u64();
    entries_.load(d);
    lastEntry_ = nullptr; // transient; never valid across a restore
    d.leaveStruct();
}

} // namespace dlsim::mem
