#include "branch/indirect.hh"

#include <cassert>

#include "snapshot/serializer.hh"

namespace dlsim::branch
{

IndirectPredictor::IndirectPredictor(
    const IndirectPredictorParams &params)
    : params_(params), entries_(params.entries / params.assoc, params.assoc)
{
    assert(params_.assoc > 0 && params_.entries >= params_.assoc);
}

std::uint64_t
IndirectPredictor::indexTag(Addr pc) const
{
    // Mix the pc with the folded path history; the full mixed
    // value serves as the tag, its low bits as the set index.
    std::uint64_t x = (pc >> 2) ^ (history_ * 0x9e3779b9u);
    x ^= x >> 17;
    return x;
}

std::optional<Addr>
IndirectPredictor::predict(Addr pc)
{
    const std::uint64_t it = indexTag(pc);
    const TargetEntry *e =
        entries_.lookup(entries_.setOf(it), TargetEntry::holding(it));
    if (e == nullptr)
        return std::nullopt;
    return e->target;
}

void
IndirectPredictor::update(Addr pc, Addr target)
{
    const std::uint64_t it = indexTag(pc);
    const std::size_t set = entries_.setOf(it);
    if (TargetEntry *e = entries_.lookup(set, TargetEntry::holding(it))) {
        e->target = target;
        return;
    }
    entries_.fill(set, {it, target, true, 0});
}

void
IndirectPredictor::updateHistory(Addr target)
{
    const std::uint64_t mask =
        (1ull << params_.historyBits) - 1;
    history_ = ((history_ << 2) ^ (target >> 4)) & mask;
}

void
IndirectPredictor::reset()
{
    entries_.flushAll();
    history_ = 0;
}


void
IndirectPredictor::save(snapshot::Serializer &s) const
{
    s.beginStruct("indirect");
    s.boolean(params_.enabled);
    s.u32(params_.entries);
    s.u32(params_.assoc);
    s.u32(params_.historyBits);
    s.u64(history_);
    s.u64(entries_.tick());
    entries_.save(s);
    s.endStruct();
}

void
IndirectPredictor::load(snapshot::Deserializer &d)
{
    d.enterStruct("indirect");
    d.checkBool(params_.enabled, "indirect enabled");
    d.checkU32(params_.entries, "indirect entries");
    d.checkU32(params_.assoc, "indirect assoc");
    d.checkU32(params_.historyBits, "indirect historyBits");
    history_ = d.u64();
    entries_.setTick(d.u64());
    entries_.load(d);
    d.leaveStruct();
}

} // namespace dlsim::branch
