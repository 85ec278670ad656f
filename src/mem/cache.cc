#include "mem/cache.hh"

#include <bit>
#include <cassert>

#include "snapshot/serializer.hh"
#include "stats/metrics.hh"

namespace dlsim::mem
{

Cache::Cache(const CacheParams &params, bool for_restore)
    : params_(params),
      lineShift_(static_cast<std::uint32_t>(
          std::countr_zero(params_.lineBytes))),
      ways_(params_.sizeBytes / params_.lineBytes / params_.assoc,
            params_.assoc, for_restore),
      mruWay_(allocateArray<std::uint32_t>(ways_.sets(), for_restore))
{
    assert(params_.lineBytes > 0 &&
           std::has_single_bit(params_.lineBytes));
    assert(params_.sizeBytes / params_.lineBytes >= params_.assoc);
}

Cache::Way *
Cache::fill(std::uint64_t line, std::size_t set, std::uint16_t asid)
{
    const auto [way, evicted] =
        ways_.fill(set, Way{Way::keyOf(line, asid), 0});
    if (evicted)
        ++evictions_;
    // The filled line is the set's next likely hit.
    mruWay_[set] = static_cast<std::uint32_t>(way - ways_.set(set));
    return way;
}

bool
Cache::accessMiss(std::uint64_t line, std::size_t set,
                  std::uint16_t asid)
{
    ++misses_;
    lastWay_ = fill(line, set, asid);
    return false;
}

void
Cache::prefetch(Addr addr, std::uint16_t asid)
{
    // A prefetch fill can move the MRU hand, so a touchRepeat()
    // after it would no longer mirror a real access().
    lastWay_ = nullptr;
    const std::uint64_t line = lineOf(addr);
    const std::size_t set = ways_.setOf(line);
    if (Way *way = ways_.lookup(set, Way::holding(Way::keyOf(line, asid)))) {
        mruWay_[set] = static_cast<std::uint32_t>(way - ways_.set(set));
        return;
    }
    ++prefetches_;
    fill(line, set, asid);
}

bool
Cache::contains(Addr addr, std::uint16_t asid) const
{
    const std::uint64_t line = lineOf(addr);
    return ways_.find(ways_.setOf(line),
                      Way::holding(Way::keyOf(line, asid))) != nullptr;
}

void
Cache::invalidateLine(Addr addr, std::uint16_t asid)
{
    lastWay_ = nullptr; // the repeat precondition no longer holds
    const std::uint64_t line = lineOf(addr);
    ways_.flushIf(ways_.setOf(line), Way::holding(Way::keyOf(line, asid)));
}

void
Cache::invalidateLineAllAsids(Addr addr)
{
    lastWay_ = nullptr; // the repeat precondition no longer holds
    const std::uint64_t line = lineOf(addr);
    ways_.flushIf(ways_.setOf(line),
                  [line](const Way &w) { return w.tag() == line; });
}

void
Cache::invalidateAll()
{
    lastWay_ = nullptr;
    ways_.flushAll();
}

double
Cache::missRate() const
{
    const auto total = hits_ + misses_;
    return total == 0
               ? 0.0
               : static_cast<double>(misses_) /
                     static_cast<double>(total);
}

void
Cache::clearStats()
{
    hits_ = misses_ = prefetches_ = evictions_ = 0;
}

void
Cache::reportMetrics(stats::MetricsRegistry &reg,
                     const std::string &prefix) const
{
    reg.counter(prefix + ".hits", hits_);
    reg.counter(prefix + ".misses", misses_);
    reg.counter(prefix + ".prefetches", prefetches_);
    reg.counter(prefix + ".evictions", evictions_);
    reg.gauge(prefix + ".miss_rate", missRate());
}

void
Cache::save(snapshot::Serializer &s) const
{
    s.beginStruct("cache");
    s.str(params_.name);
    s.u64(params_.sizeBytes);
    s.u32(params_.assoc);
    s.u32(params_.lineBytes);
    s.u64(ways_.tick());
    s.u64(hits_);
    s.u64(misses_);
    s.u64(prefetches_);
    s.u64(evictions_);
    ways_.save(s);
    s.records(mruWays(), 4, [](std::uint8_t *p, std::uint32_t m) {
        snapshot::putLe32(p, m);
    });
    s.endStruct();
}

void
Cache::load(snapshot::Deserializer &d)
{
    d.enterStruct("cache");
    const std::string name = d.str();
    if (name != params_.name)
        d.fail("cache name mismatch: snapshot has '" + name +
               "', machine has '" + params_.name + "'");
    d.checkU64(params_.sizeBytes, params_.name + " sizeBytes");
    d.checkU32(params_.assoc, params_.name + " assoc");
    d.checkU32(params_.lineBytes, params_.name + " lineBytes");
    ways_.setTick(d.u64());
    hits_ = d.u64();
    misses_ = d.u64();
    prefetches_ = d.u64();
    evictions_ = d.u64();
    ways_.load(d);
    const std::uint8_t *p = d.raw(ways_.sets() * 4);
    poison(mruWay_.get(), ways_.sets() * sizeof(std::uint32_t), false);
    for (std::uint32_t &m : mruWays()) {
        m = snapshot::le32(p);
        p += 4;
    }
    lastWay_ = nullptr; // transient; never valid across a restore
    d.leaveStruct();
}

} // namespace dlsim::mem
