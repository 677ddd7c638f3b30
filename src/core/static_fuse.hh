/**
 * @file
 * Static pair fusion at the queue stage (PolicyId::StaticFuse).
 *
 * Instead of the paper's runtime MOP detection, fusion is decided at
 * decode from a fixed pattern table in the style of RISC-V macro-op
 * fusion (Celio et al.): a head that is a single-cycle integer ALU op
 * with a destination may fuse with the *dynamically adjacent next* µop
 * when that µop is one of the recognised tail shapes (integer ALU,
 * conditional branch, or store address generation) and consumes the
 * head's destination register. Pairs only — no chain extension — and
 * neither the MOP detector nor the pointer cache is consulted; the
 * pattern table is the whole predictor.
 *
 * The pending-head mechanism is reused from dynamic formation, but
 * degenerates to a one-deep window: strict adjacency means the fusion
 * decision resolves on the very next µop processed, and the group
 * boundary merely expires a head whose adjacent µop never reached the
 * queue stage (fetch stall, frontend bubble).
 */

#ifndef MOP_CORE_STATIC_FUSE_HH
#define MOP_CORE_STATIC_FUSE_HH

#include "core/mop_formation.hh"

namespace mop::core
{

class StaticFuser : public Formation
{
  public:
    StaticFuser(bool grouping_enabled, TagPoolBinding pool);

    FormOutcome process(const isa::MicroOp &u, uint64_t dyn_id) override;
    void setHeadEntry(uint64_t head_dyn_id, int entry) override;
    sched::Tag demoteTail(const isa::MicroOp &u, int entry = -1) override;
    std::vector<int> groupBoundary() override;
    int pendingCount() const override { return head_.active ? 1 : 0; }

    void restoreToCheckpoint() override
    {
        Formation::restoreToCheckpoint();
        head_ = PendingPair{};
    }

    /** Pattern table, head side: single-cycle integer ALU op that
     *  produces a register. */
    static bool headPattern(const isa::MicroOp &u);
    /** Pattern table, tail side: IntAlu / Branch / StoreAddr reading
     *  the head's destination register. */
    static bool tailPattern(const isa::MicroOp &u, int16_t head_dst);

  private:
    struct PendingPair
    {
        bool active = false;
        uint64_t headDynId = 0;
        int16_t headDst = isa::kNoReg;
        sched::Tag mopTag = sched::kNoTag;
        int entry = -1;
        int groupAge = 0;
    };

    PendingPair head_;
};

} // namespace mop::core

#endif // MOP_CORE_STATIC_FUSE_HH
