/**
 * @file
 * Path-history-based indirect-target predictor.
 *
 * The paper's related work (§6) discusses VPC prediction [Kim et
 * al., ISCA'07] as hardware devirtualisation for indirect branches.
 * dlsim provides a classic target cache indexed by pc hashed with a
 * folded path history, so polymorphic indirect branches (virtual
 * calls through changing receivers) can be predicted where a plain
 * BTB holds only the last target. Trampoline branches are
 * monomorphic after resolution, so this structure neither helps nor
 * harms the mechanism — which the front-end ablation demonstrates.
 */

#ifndef DLSIM_BRANCH_INDIRECT_HH
#define DLSIM_BRANCH_INDIRECT_HH

#include <cstdint>
#include <optional>

#include "branch/btb.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::branch
{

using isa::Addr;

/** Indirect target cache geometry. */
struct IndirectPredictorParams
{
    /** Use the target cache for indirect transfers (otherwise the
     *  BTB's last-target behaviour applies). */
    bool enabled = false;
    std::uint32_t entries = 512;
    std::uint32_t assoc = 4;
    std::uint32_t historyBits = 8;
};

/** Tagged, path-history-indexed target cache. */
class IndirectPredictor
{
  public:
    explicit IndirectPredictor(
        const IndirectPredictorParams &params = {});

    /** Predicted target for the indirect branch at pc, if any. */
    std::optional<Addr> predict(Addr pc);

    /** Train with the resolved target (same history point). */
    void update(Addr pc, Addr target);

    /** Fold a taken-transfer target into the path history. */
    void updateHistory(Addr target);

    /** Context switch. */
    void reset();

    const IndirectPredictorParams &params() const
    {
        return params_;
    }

    /** Checkpoint contents, path history, and LRU state. */
    void save(snapshot::Serializer &s) const;

    /** Restore; throws SnapshotError on geometry mismatch. */
    void load(snapshot::Deserializer &d);

  private:
    std::uint64_t indexTag(Addr pc) const;

    IndirectPredictorParams params_;
    mem::SetAssocTable<TargetEntry> entries_;
    std::uint64_t history_ = 0;
};

} // namespace dlsim::branch

#endif // DLSIM_BRANCH_INDIRECT_HH
