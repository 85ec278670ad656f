#include "core/abtb.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "snapshot/serializer.hh"
#include "stats/metrics.hh"

namespace dlsim::core
{

Abtb::Abtb(const AbtbParams &params)
    : params_(params), ways_(params.entries / params.assoc, params.assoc)
{
    assert(params_.assoc > 0 && params_.entries >= params_.assoc);
}

void
Abtb::Way::pack(std::uint8_t *p, const Way &w)
{
    snapshot::putLe64(p, w.entry.trampoline);
    snapshot::putLe64(p + 8, w.entry.function);
    snapshot::putLe64(p + 16, w.entry.gotAddr);
    snapshot::putLe16(p + 24, w.entry.asid);
    p[26] = w.live ? 1 : 0;
    snapshot::putLe64(p + 27, w.lastUse);
}

void
Abtb::Way::unpack(const std::uint8_t *p, Way &w)
{
    w.entry.trampoline = snapshot::le64(p);
    w.entry.function = snapshot::le64(p + 8);
    w.entry.gotAddr = snapshot::le64(p + 16);
    w.entry.asid = snapshot::le16(p + 24);
    w.live = p[26] != 0;
    w.lastUse = snapshot::le64(p + 27);
}

std::optional<AbtbEntry>
Abtb::lookup(Addr trampoline, std::uint16_t asid)
{
    ++lookups_;
    const Way *w =
        ways_.lookup(setOf(trampoline), holding(trampoline, asid));
    if (w == nullptr)
        return std::nullopt;
    ++hits_;
    return w->entry;
}

void
Abtb::insert(Addr trampoline, Addr function, Addr got_addr,
             std::uint16_t asid)
{
    ++inserts_;
    const std::size_t set = setOf(trampoline);
    if (Way *w = ways_.lookup(set, holding(trampoline, asid))) {
        w->entry.function = function;
        w->entry.gotAddr = got_addr;
        return;
    }
    if (ways_.fill(set, {{trampoline, function, got_addr, asid}, true, 0})
            .evicted)
        ++evictions_;
}

void
Abtb::flushAll()
{
    ++flushes_;
    ways_.flushAll();
}

std::uint64_t
Abtb::occupancy() const
{
    return static_cast<std::uint64_t>(std::ranges::count_if(
        ways_.entries(), [](const Way &w) { return w.valid(); }));
}

void
Abtb::clearStats()
{
    lookups_ = hits_ = inserts_ = evictions_ = flushes_ = 0;
}

std::string
Abtb::dump() const
{
    std::ostringstream os;
    os << "abtb: " << occupancy() << "/" << params_.entries
       << " valid, lookups=" << lookups_ << " hits=" << hits_
       << " inserts=" << inserts_ << " evictions=" << evictions_
       << " flushes=" << flushes_ << "\n";
    const auto ways = ways_.entries();
    for (std::size_t i = 0; i < ways.size(); ++i) {
        const Way &way = ways[i];
        if (!way.valid())
            continue;
        os << "  [" << i / params_.assoc << "." << i % params_.assoc
           << "] tramp=0x" << std::hex << way.entry.trampoline
           << " -> fn=0x" << way.entry.function << " got=0x"
           << way.entry.gotAddr << std::dec << " asid="
           << way.entry.asid << "\n";
    }
    return os.str();
}

void
Abtb::reportMetrics(stats::MetricsRegistry &reg,
                    const std::string &prefix) const
{
    reg.counter(prefix + ".lookups", lookups_);
    reg.counter(prefix + ".hits", hits_);
    reg.counter(prefix + ".misses", lookups_ - hits_);
    reg.counter(prefix + ".inserts", inserts_);
    reg.counter(prefix + ".evictions", evictions_);
    reg.counter(prefix + ".flushes", flushes_);
    reg.gauge(prefix + ".occupancy",
              static_cast<double>(occupancy()));
    reg.gauge(prefix + ".size_bytes",
              static_cast<double>(sizeBytes()));
}


void
Abtb::save(snapshot::Serializer &s) const
{
    s.beginStruct("abtb");
    s.u32(params_.entries);
    s.u32(params_.assoc);
    s.u64(ways_.tick());
    s.u64(lookups_);
    s.u64(hits_);
    s.u64(inserts_);
    s.u64(evictions_);
    s.u64(flushes_);
    ways_.save(s);
    s.endStruct();
}

void
Abtb::load(snapshot::Deserializer &d)
{
    d.enterStruct("abtb");
    d.checkU32(params_.entries, "abtb entries");
    d.checkU32(params_.assoc, "abtb assoc");
    ways_.setTick(d.u64());
    lookups_ = d.u64();
    hits_ = d.u64();
    inserts_ = d.u64();
    evictions_ = d.u64();
    flushes_ = d.u64();
    ways_.load(d);
    d.leaveStruct();
}

} // namespace dlsim::core
