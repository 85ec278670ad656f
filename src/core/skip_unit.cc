#include "core/skip_unit.hh"

#include <algorithm>
#include <bit>
#include <sstream>
#include <vector>

#include "snapshot/serializer.hh"

#include "stats/metrics.hh"

namespace dlsim::core
{

std::string
geometryError(const SkipUnitParams &p)
{
    const auto n = [](std::uint32_t v) { return std::to_string(v); };
    const std::uint32_t entries = p.abtb.entries;
    const std::uint32_t assoc = p.abtb.assoc;
    if (assoc == 0 || assoc > entries)
        return "--abtb-assoc: " + n(assoc) + " ways do not fit in " +
               n(entries) + " ABTB entries";
    if (entries % assoc != 0 || !std::has_single_bit(entries / assoc))
        return "--abtb-entries: " + n(entries) + " entries in " +
               n(assoc) + "-way sets do not make a power-of-two "
                          "set count";
    if (p.bloomBits < 64 || !std::has_single_bit(p.bloomBits))
        return "--bloom-bits: " + n(p.bloomBits) +
               " is not a power of two of at least 64";
    if (p.bloomHashes == 0)
        return "--bloom-hashes: a bloom filter needs at least one hash";
    return "";
}

TrampolineSkipUnit::TrampolineSkipUnit(const SkipUnitParams &params)
    : params_(params), abtb_(params.abtb),
      bloom_(params.bloomBits, params.bloomHashes)
{
}

std::optional<AbtbEntry>
TrampolineSkipUnit::substituteTarget(Addr resolved_target)
{
    const auto entry = abtb_.lookup(resolved_target, asid_);
    if (!entry)
        return std::nullopt;
    ++stats_.substitutions;
    return entry;
}

void
TrampolineSkipUnit::retireControl(isa::Opcode op, Addr actual_target,
                                  Addr load_src_addr)
{
    // Population heuristic (§3.2): a retired call followed — within
    // the configured pattern window — by a retired memory-indirect
    // jump identifies a trampoline. Only memory-indirect jumps
    // qualify: the bloom filter needs the load-source (GOT slot)
    // address; returns and register-indirect jumps have no guarded
    // slot and must not populate.
    if (patternArmed_ && op == isa::Opcode::JmpIndMem) {
        abtb_.insert(lastCallTarget_, actual_target, load_src_addr,
                     asid_);
        if (!params_.explicitInvalidation) {
            bloom_.insert(load_src_addr);
            bloomShadow_.insert(load_src_addr);
        }
        ++stats_.populations;
    }

    patternArmed_ = isa::isCall(op);
    if (patternArmed_) {
        lastCallTarget_ = actual_target;
        windowLeft_ = params_.patternWindow;
    }
}

void
TrampolineSkipUnit::flushFor(std::uint64_t SkipUnitStats::*counter,
                             Addr addr, bool check_bloom)
{
    if (check_bloom) {
        if (params_.explicitInvalidation)
            return; // §3.4: stores are ignored entirely.
        if (!bloom_.mayContain(addr))
            return;
        if (!bloomShadow_.count(addr))
            ++stats_.falsePositiveFlushes;
    }
    abtb_.flushAll();
    bloom_.clear();
    bloomShadow_.clear();
    ++(stats_.*counter);
}

void
TrampolineSkipUnit::retireStore(Addr addr)
{
    // A store between the call and the indirect jump could alias
    // the GOT slot; the pattern must not survive it.
    patternArmed_ = false;
    if (params_.buggySuppressStoreFlush)
        return; // Fault injection: drop the §3.2 flush on purpose.
    flushFor(&SkipUnitStats::storeFlushes, addr, true);
}

void
TrampolineSkipUnit::coherenceInvalidate(Addr addr)
{
    flushFor(&SkipUnitStats::coherenceFlushes, addr, true);
}

void
TrampolineSkipUnit::contextSwitch()
{
    patternArmed_ = false;
    if (params_.asidRetention)
        return;
    flushFor(&SkipUnitStats::contextSwitchFlushes, 0, false);
}

void
TrampolineSkipUnit::explicitFlush()
{
    flushFor(&SkipUnitStats::explicitFlushes, 0, false);
}

std::string
TrampolineSkipUnit::dumpState() const
{
    std::ostringstream os;
    os << "skip: substitutions=" << stats_.substitutions
       << " populations=" << stats_.populations
       << " storeFlushes=" << stats_.storeFlushes
       << " coherenceFlushes=" << stats_.coherenceFlushes
       << " contextSwitchFlushes=" << stats_.contextSwitchFlushes
       << " explicitFlushes=" << stats_.explicitFlushes
       << " falsePositiveFlushes=" << stats_.falsePositiveFlushes
       << "\n";
    os << "pattern: armed=" << (patternArmed_ ? 1 : 0)
       << " lastCallTarget=0x" << std::hex << lastCallTarget_
       << std::dec << " windowLeft=" << windowLeft_
       << " asid=" << asid_ << "\n";
    os << "mode: "
       << (params_.explicitInvalidation ? "explicit-invalidation"
                                        : "bloom-guarded")
       << (params_.asidRetention ? ", asid-retention" : "")
       << (params_.buggySuppressStoreFlush
               ? ", INJECTED-BUG(store flush suppressed)"
               : "")
       << "\n";
    if (!params_.explicitInvalidation) {
        os << "bloom: insertions=" << bloom_.insertions()
           << " occupancy=" << bloom_.occupancy()
           << " tracked_slots=" << bloomShadow_.size() << "\n";
    }
    os << abtb_.dump();
    return os.str();
}

std::uint64_t
TrampolineSkipUnit::hardwareBytes() const
{
    return abtb_.sizeBytes() +
           (params_.explicitInvalidation ? 0 : bloom_.sizeBytes());
}

void
TrampolineSkipUnit::reportMetrics(stats::MetricsRegistry &reg,
                                  const std::string &prefix) const
{
    abtb_.reportMetrics(reg, prefix + ".abtb");
    if (!params_.explicitInvalidation)
        bloom_.reportMetrics(reg, prefix + ".bloom");
    const std::string skip = prefix + ".skip";
    reg.counter(skip + ".substitutions", stats_.substitutions);
    reg.counter(skip + ".populations", stats_.populations);
    reg.counter(skip + ".store_flushes", stats_.storeFlushes);
    reg.counter(skip + ".coherence_flushes",
                stats_.coherenceFlushes);
    reg.counter(skip + ".context_switch_flushes",
                stats_.contextSwitchFlushes);
    reg.counter(skip + ".explicit_flushes", stats_.explicitFlushes);
    reg.counter(skip + ".false_positive_flushes",
                stats_.falsePositiveFlushes);
    reg.gauge(skip + ".hardware_bytes",
              static_cast<double>(hardwareBytes()));
}


void
TrampolineSkipUnit::save(snapshot::Serializer &s) const
{
    s.beginStruct("skip");
    s.u32(params_.bloomBits);
    s.u32(params_.bloomHashes);
    s.boolean(params_.explicitInvalidation);
    s.boolean(params_.asidRetention);
    s.u32(params_.patternWindow);
    s.boolean(params_.buggySuppressStoreFlush);
    s.u64(stats_.substitutions);
    s.u64(stats_.populations);
    s.u64(stats_.storeFlushes);
    s.u64(stats_.coherenceFlushes);
    s.u64(stats_.contextSwitchFlushes);
    s.u64(stats_.explicitFlushes);
    s.u64(stats_.falsePositiveFlushes);
    s.boolean(patternArmed_);
    s.u64(lastCallTarget_);
    s.u32(windowLeft_);
    s.u16(asid_);
    // The shadow set is unordered; emit sorted for stable bytes.
    std::vector<Addr> shadow(bloomShadow_.begin(),
                             bloomShadow_.end());
    std::sort(shadow.begin(), shadow.end());
    s.u64(shadow.size());
    for (const Addr a : shadow)
        s.u64(a);
    s.endStruct();
    abtb_.save(s);
    bloom_.save(s);
}

void
TrampolineSkipUnit::load(snapshot::Deserializer &d)
{
    d.enterStruct("skip");
    d.checkU32(params_.bloomBits, "skip bloomBits");
    d.checkU32(params_.bloomHashes, "skip bloomHashes");
    d.checkBool(params_.explicitInvalidation,
                "skip explicitInvalidation");
    d.checkBool(params_.asidRetention, "skip asidRetention");
    d.checkU32(params_.patternWindow, "skip patternWindow");
    d.checkBool(params_.buggySuppressStoreFlush,
                "skip buggySuppressStoreFlush");
    stats_.substitutions = d.u64();
    stats_.populations = d.u64();
    stats_.storeFlushes = d.u64();
    stats_.coherenceFlushes = d.u64();
    stats_.contextSwitchFlushes = d.u64();
    stats_.explicitFlushes = d.u64();
    stats_.falsePositiveFlushes = d.u64();
    patternArmed_ = d.boolean();
    lastCallTarget_ = d.u64();
    windowLeft_ = d.u32();
    asid_ = d.u16();
    bloomShadow_.clear();
    const std::size_t n = d.count<std::uint64_t>(8);
    bloomShadow_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        bloomShadow_.insert(d.u64());
    d.leaveStruct();
    abtb_.load(d);
    bloom_.load(d);
}

} // namespace dlsim::core
