#include "branch/btb.hh"

#include <cassert>

#include "snapshot/serializer.hh"
#include "stats/metrics.hh"

namespace dlsim::branch
{

Btb::Btb(const BtbParams &params)
    : params_(params), entries_(params.entries / params.assoc, params.assoc)
{
    assert(params_.assoc > 0 && params_.entries >= params_.assoc);
}

std::optional<Addr>
Btb::lookup(Addr pc)
{
    ++lookups_;
    const TargetEntry *e =
        entries_.lookup(setOf(pc), TargetEntry::holding(pc));
    if (e == nullptr)
        return std::nullopt;
    ++hits_;
    return e->target;
}

void
Btb::update(Addr pc, Addr target)
{
    const std::size_t set = setOf(pc);
    if (TargetEntry *e = entries_.lookup(set, TargetEntry::holding(pc))) {
        e->target = target;
        return;
    }
    if (entries_.fill(set, {pc, target, true, 0}).evicted)
        ++evictions_;
}

void
Btb::invalidate(Addr pc)
{
    entries_.flushIf(setOf(pc), TargetEntry::holding(pc));
}

void
Btb::invalidateAll()
{
    entries_.flushAll();
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
    s.u64(entries_.tick());
    s.u64(lookups_);
    s.u64(hits_);
    s.u64(evictions_);
    entries_.save(s);
    s.endStruct();
}

void
Btb::load(snapshot::Deserializer &d)
{
    d.enterStruct("btb");
    d.checkU32(params_.entries, "btb entries");
    d.checkU32(params_.assoc, "btb assoc");
    entries_.setTick(d.u64());
    lookups_ = d.u64();
    hits_ = d.u64();
    evictions_ = d.u64();
    entries_.load(d);
    d.leaveStruct();
}

} // namespace dlsim::branch
