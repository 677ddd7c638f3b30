/**
 * @file
 * Queue-stage formation: deciding, for each in-order µop, whether it
 * enters the scheduler alone or fused into a multi-op entry, and
 * translating register dependences into the grouping name space.
 *
 * Formation is the abstract stage; which concrete formation runs is a
 * scheduler-policy decision (sched/policy.hh, dynamicFormation()):
 *
 *  - MopFormation (this file): the paper's MOP formation (Section 5.2)
 *    — pairs located via the IL1-coupled pointer cache, the pending-bit
 *    insertion window of Figure 11, and chain extension up to the
 *    configured MOP size.
 *  - StaticFuser (core/static_fuse.hh): decode-time pair fusion from a
 *    fixed pattern table, no pointer cache or detector involved.
 *
 * The MOP translation table mirrors the register rename table but maps
 * logical registers to MOP IDs; a single MOP ID is allocated to the
 * two instructions named by a MOP pointer, so any consumer of either
 * becomes a child of the MOP in the scheduler (Figure 10). Register
 * renaming still proceeds in parallel and register values are accessed
 * based on the original data dependences — in this simulator that
 * half is represented by the per-µop producer tracking the pipeline
 * uses for its dataflow-order invariant checks. The table, tag
 * allocator and formation counters are shared by every concrete
 * formation and live in the base class.
 *
 * With grouping disabled every formation degenerates into a plain
 * dependence renamer that assigns a fresh tag to each destination.
 *
 * Tags come from a bounded, recycled pool (see Formation's tag-pool
 * section and DESIGN.md "Tag lifecycle"): a tag is reclaimed like a
 * physical register, once every rename mapping to it has been
 * overwritten by a committed µop and every µop producing under it has
 * committed or been squashed.
 */

#ifndef MOP_CORE_MOP_FORMATION_HH
#define MOP_CORE_MOP_FORMATION_HH

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "core/mop_pointer.hh"
#include "isa/uop.hh"
#include "sched/types.hh"
#include "verify/fault_injector.hh"
#include "verify/integrity.hh"

namespace mop::core
{

/** Decision for one µop at the queue stage. */
struct FormOutcome
{
    enum class Role : uint8_t
    {
        Single,  ///< own issue-queue entry
        Head,    ///< MOP head: insert with the pending bit if the tail
                 ///< is not in this insert group yet
        Tail,    ///< joins the head's entry
    };

    Role role = Role::Single;
    sched::Tag dst = sched::kNoTag;  ///< entry/broadcast tag
    /** The mapping this µop's destination displaced from the rename
     *  table (kNoTag if none). Its slot hold passes to the µop, which
     *  gives it back through releaseTag() at commit or squash. */
    sched::Tag prevTag = sched::kNoTag;
    std::array<sched::Tag, 2> src = {sched::kNoTag, sched::kNoTag};
    int headEntry = -1;      ///< Tail: issue-queue entry of the head
    uint64_t headDynId = 0;  ///< Tail: dyn id of the head µop
    bool independent = false;///< pair came from an independent pointer
    /** Tail only: this link's own pointer extends the chain; the
     *  entry must stay pending for the next link (MOP size > 2). */
    bool moreExpected = false;
    /** A pending head whose pairing was abandoned this µop (control
     *  flow diverged); the caller must clearPending() this entry. */
    int clearPendingEntry = -1;
};

/**
 * What a formation's tag pool is bound to (see Formation's tag-pool
 * section). Every formation has one: the pool is always bounded, and
 * a dead tag is always checked against the issue queue.
 */
struct TagPoolBinding
{
    int capacity;  ///< tags in the pool (> 0)
    /** True iff an issue-queue entry still names the tag. */
    std::function<bool(sched::Tag)> named;
    /** Exhaustion and hold underflow fail its TagLiveness check. Not
     *  owned. */
    verify::IntegrityChecker *integrity;
};

/**
 * Abstract queue-stage formation. Owns the logical-register → tag
 * translation table, the tag allocator and the formation counters;
 * concrete formations implement the grouping decision itself.
 */
class Formation
{
  public:
    virtual ~Formation() = default;

    /** Translate and classify one µop, in program order. */
    virtual FormOutcome process(const isa::MicroOp &u,
                                uint64_t dyn_id) = 0;

    /** The pipeline reports the issue-queue entry of an inserted head
     *  (identified by the head µop's dyn id). */
    virtual void setHeadEntry(uint64_t head_dyn_id, int entry) = 0;

    /**
     * A tail failed to join (source-budget overflow or IQ state): give
     * it a fresh tag instead and forget the pairing, including any
     * chain links still expected on the same entry. The µop's
     * prevTag is unchanged.
     * @return the replacement destination tag (kNoTag if no dst).
     */
    virtual sched::Tag demoteTail(const isa::MicroOp &u,
                                  int entry = -1) = 0;

    /**
     * Advance one insert-group boundary. Pending heads whose tail did
     * not arrive within the next group are abandoned (Figure 11);
     * their issue-queue entries, returned here, must get
     * clearPending() from the caller.
     */
    virtual std::vector<int> groupBoundary() = 0;

    /** Heads currently awaiting their tail (grouping-pending count). */
    virtual int pendingCount() const = 0;

    /**
     * Snapshot the translation table at a mispredicted branch's
     * dispatch (wrong-path execution). Only the table is saved: the
     * tag pool is not rewound (wrong-path tags return to it as the
     * core releases the squashed µops' holds), and pending windows
     * are dropped wholesale at restore — any right-path pending head
     * has either resolved or expired by the time the branch resolves,
     * and a stale window matching a *recycled* dyn id would silently
     * corrupt pairing. One checkpoint is live at a time (the core
     * enters wrong-path mode on the oldest unresolved mispredict
     * only).
     */
    virtual void checkpoint()
    {
        ckptTable_ = table_;
    }

    /** Restore the checkpointed table and drop all pending windows
     *  (the wrong path dispatched after the checkpoint is being
     *  squashed). The caller then releases each squashed µop's
     *  prevTag and dst holds. */
    virtual void restoreToCheckpoint();

    // --- bounded tag pool ----------------------------------------------
    //
    // A tag is live while anything holds it:
    //  - each rename-table slot mapping it;
    //  - the in-flight µop that displaced a slot mapping it (its
    //    prevTag), until that µop commits or is squashed;
    //  - each in-flight µop producing under it (its dst), likewise.
    // When the last hold goes the tag is dead. It returns to the free
    // list at once unless an issue-queue entry still names it (a MOP
    // whose head has committed keeps its sources until its last op
    // completes); such a tag is parked and reclaimed by a later
    // allocation. The free list is LIFO and new ids are minted only
    // when it is empty, so the ids handed out stay below the peak
    // number of live and parked tags.

    /** Take a hold on @p t (the core's producer hold; kNoTag: no-op). */
    void holdTag(sched::Tag t)
    {
        if (t >= 0)
            ++holds_[size_t(t)];
    }
    /** Drop a hold on @p t; the last one frees or parks the tag. */
    void releaseTag(sched::Tag t);

    /** Ids minted so far: every tag handed out is below this. */
    int tagsMinted() const { return next_; }

    uint64_t groupsFormed() const { return groupsFormed_; }
    uint64_t independentFormed() const { return independentFormed_; }
    uint64_t pendingExpired() const { return pendingExpired_; }
    uint64_t verifyFails() const { return verifyFails_; }
    uint64_t demotions() const { return demotions_; }

    bool groupingEnabled() const { return enabled_; }

    /** Attach a fault injector (corrupt-mop opportunity site; see
     *  verify/fault_injector.hh). Not owned. */
    void setFaultInjector(verify::FaultInjector *inj) { inj_ = inj; }

  protected:
    Formation(bool grouping_enabled, TagPoolBinding pool)
        : enabled_(grouping_enabled), pool_(std::move(pool))
    {
        table_.fill(sched::kNoTag);
    }

    sched::Tag translateSrc(int16_t reg) const;

    /** Pop a free tag (LIFO), reclaiming parked ones first; mint a new
     *  id when none is free. */
    sched::Tag allocTag();
    /** Map @p reg to @p t (the slot's hold moves to @p t); returns the
     *  displaced mapping, whose slot hold becomes the µop's prevTag
     *  hold. */
    sched::Tag mapDst(int16_t reg, sched::Tag t)
    {
        sched::Tag prev = table_[size_t(reg)];
        holdTag(t);
        table_[size_t(reg)] = t;
        return prev;
    }
    /** demoteTail's renaming: a fresh tag replaces the one this µop
     *  mapped at process(). */
    sched::Tag remapDemoted(const isa::MicroOp &u);

    bool enabled_;
    verify::FaultInjector *inj_ = nullptr;  ///< not owned
    std::array<sched::Tag, isa::kNumLogicalRegs> table_;

    // Tag pool state.
    sched::Tag next_ = 0;
    std::vector<uint32_t> holds_;        ///< per minted tag
    std::vector<sched::Tag> free_;       ///< LIFO
    std::vector<sched::Tag> parked_;     ///< dead but still named
    TagPoolBinding pool_;

    std::array<sched::Tag, isa::kNumLogicalRegs> ckptTable_{};

    uint64_t groupsFormed_ = 0;
    uint64_t independentFormed_ = 0;
    uint64_t pendingExpired_ = 0;
    uint64_t verifyFails_ = 0;
    uint64_t demotions_ = 0;
};

/** The paper's pointer-driven MOP formation (Section 5.2). */
class MopFormation : public Formation
{
  public:
    MopFormation(bool grouping_enabled, MopPointerCache &cache,
                 TagPoolBinding pool, int max_mop_size = 2);

    FormOutcome process(const isa::MicroOp &u, uint64_t dyn_id) override;
    void setHeadEntry(uint64_t head_dyn_id, int entry) override;
    sched::Tag demoteTail(const isa::MicroOp &u, int entry = -1) override;
    std::vector<int> groupBoundary() override;
    int pendingCount() const override { return int(pending_.size()); }

    void restoreToCheckpoint() override
    {
        Formation::restoreToCheckpoint();
        pending_.clear();
    }

  private:
    struct PendingHead
    {
        uint64_t headDynId = 0;
        uint64_t tailDynId = 0;
        uint64_t tailPc = 0;
        sched::Tag mopTag = sched::kNoTag;
        int entry = -1;
        int groupAge = 0;
        bool independent = false;
        int sizeSoFar = 1;  ///< ops already in the entry
    };

    MopPointerCache &cache_;
    int maxMopSize_;
    std::vector<PendingHead> pending_;
};

} // namespace mop::core

#endif // MOP_CORE_MOP_FORMATION_HH
