#include "mem/hierarchy.hh"

#include <bit>

#include "snapshot/serializer.hh"

namespace dlsim::mem
{

Hierarchy::Hierarchy(const HierarchyParams &params, bool for_restore)
    : params_(params),
      snoopFilterOn_(params.l1d.lineBytes == params.l2.lineBytes &&
                     params.l2.lineBytes == params.l3.lineBytes),
      snoopShift_(static_cast<std::uint32_t>(
          std::countr_zero(params.l1d.lineBytes))),
      absentLines_(SnoopFilterEntries, NoLine),
      l1i_(params.l1i, for_restore), l1d_(params.l1d, for_restore),
      l2_(params.l2, for_restore), l3_(params.l3, for_restore),
      itlb_(params.itlb), dtlb_(params.dtlb)
{
}

void
Hierarchy::flushTlbs()
{
    itlb_.flushAll();
    dtlb_.flushAll();
}

void
Hierarchy::invalidateDataLine(Addr addr)
{
    std::uint64_t &absent = absentLines_[snoopSlot(addr)];
    const std::uint64_t line = addr >> snoopShift_;
    if (absent == line) {
        ++filteredSnoops_;
        return;
    }
    l1d_.invalidateLineAllAsids(addr);
    l2_.invalidateLineAllAsids(addr);
    l3_.invalidateLineAllAsids(addr);
    if (snoopFilterOn_)
        absent = line;
}

void
Hierarchy::invalidateDataLine(Addr addr, std::uint16_t asid)
{
    l1d_.invalidateLine(addr, asid);
    l2_.invalidateLine(addr, asid);
    l3_.invalidateLine(addr, asid);
}

void
Hierarchy::save(snapshot::Serializer &s) const
{
    l1i_.save(s);
    l1d_.save(s);
    l2_.save(s);
    l3_.save(s);
    itlb_.save(s);
    dtlb_.save(s);
}

void
Hierarchy::load(snapshot::Deserializer &d)
{
    l1i_.load(d);
    l1d_.load(d);
    l2_.load(d);
    l3_.load(d);
    itlb_.load(d);
    dtlb_.load(d);
    // The filter's facts were about the replaced contents.
    absentLines_.assign(SnoopFilterEntries, NoLine);
}

void
Hierarchy::clearStats()
{
    l1i_.clearStats();
    l1d_.clearStats();
    l2_.clearStats();
    l3_.clearStats();
    itlb_.clearStats();
    dtlb_.clearStats();
}

void
Hierarchy::reportMetrics(stats::MetricsRegistry &reg,
                         const std::string &prefix) const
{
    l1i_.reportMetrics(reg, prefix + ".l1i");
    l1d_.reportMetrics(reg, prefix + ".l1d");
    l2_.reportMetrics(reg, prefix + ".l2");
    l3_.reportMetrics(reg, prefix + ".l3");
    itlb_.reportMetrics(reg, prefix + ".itlb");
    dtlb_.reportMetrics(reg, prefix + ".dtlb");
}

} // namespace dlsim::mem
