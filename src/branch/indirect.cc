#include "branch/indirect.hh"

#include <bit>
#include <cassert>

#include "snapshot/serializer.hh"

namespace dlsim::branch
{

namespace
{

/** Snapshot record of one entry: u64 tag, u64 target, bool valid,
 *  u64 lastUse. */
constexpr std::size_t EntryWireBytes = 25;

} // namespace

IndirectPredictor::IndirectPredictor(
    const IndirectPredictorParams &params)
    : params_(params)
{
    assert(params_.assoc > 0 &&
           params_.entries >= params_.assoc);
    numSets_ = params_.entries / params_.assoc;
    assert(std::has_single_bit(numSets_));
    entries_.resize(numSets_ * params_.assoc);
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
    ++tick_;
    const std::uint64_t it = indexTag(pc);
    Entry *base =
        &entries_[(it & (numSets_ - 1)) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.tag == it) {
            e.lastUse = tick_;
            return e.target;
        }
    }
    return std::nullopt;
}

void
IndirectPredictor::update(Addr pc, Addr target)
{
    ++tick_;
    const std::uint64_t it = indexTag(pc);
    Entry *base =
        &entries_[(it & (numSets_ - 1)) * params_.assoc];
    Entry *victim = base;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.tag == it) {
            e.target = target;
            e.lastUse = tick_;
            return;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid &&
                   e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->tag = it;
    victim->target = target;
    victim->lastUse = tick_;
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
    for (auto &e : entries_)
        e.valid = false;
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
    s.u64(tick_);
    s.records(entries_, EntryWireBytes,
              [](std::uint8_t *p, const Entry &e) {
                  snapshot::putLe64(p, e.tag);
                  snapshot::putLe64(p + 8, e.target);
                  p[16] = e.valid ? 1 : 0;
                  snapshot::putLe64(p + 17, e.lastUse);
              });
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
    tick_ = d.u64();
    // Bulk-unpack; see mem::Cache::load.
    const std::uint8_t *p = d.raw(entries_.size() * EntryWireBytes);
    for (Entry &e : entries_) {
        e.tag = snapshot::le64(p);
        e.target = snapshot::le64(p + 8);
        e.valid = p[16] != 0;
        e.lastUse = snapshot::le64(p + 17);
        p += EntryWireBytes;
    }
    d.leaveStruct();
}

} // namespace dlsim::branch
