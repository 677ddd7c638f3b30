/**
 * @file
 * Scheduler mechanics: speculative load scheduling with selective
 * replay, select-free collision handling, MOP entry management
 * (pending bits, source unions, squash behaviour), FU contention, and
 * the deadlock watchdog (Figure 8).
 */

#include <gtest/gtest.h>

#include "sched_harness.hh"

namespace
{

using namespace mop::test;
using mop::isa::OpClass;
namespace sched = mop::sched;

// Policy-agnostic suites run once per registered behaviour policy:
// entry management, select priority, FU booking and queue accounting
// must not depend on how loads wake consumers or how MOPs were
// located. The Replay suite below stays paper-only (speculative
// wakeup + selective replay IS the paper policy); the LoadDelaySched
// suite covers the load-delay equivalents.
class Mop : public PerPolicyTest
{
};
class Deadlock : public PerPolicyTest
{
};
class Select : public PerPolicyTest
{
};
class SelectFree : public PerPolicyTest
{
};
class Queue : public PerPolicyTest
{
};

TEST(TagLiveness, RedefiningANamedTagTrips)
{
    // A Single or Head insert defines its tag; an entry still naming
    // that tag would be woken or recalled by the wrong definition.
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.insert(Harness::alu(0, 1, 5), h.now);  // consumer of tag 5
    ASSERT_TRUE(h.s.tagNamed(5));
    EXPECT_THROW(h.s.insert(Harness::alu(1, 5), h.now),
                 mop::verify::IntegrityError);
    EXPECT_EQ(h.s.integrity().violations(
                  mop::verify::IntegrityChecker::Check::TagLiveness),
              1u);
}

TEST(TagLiveness, ConsumerMatrixSurvivesTheAudit)
{
    // Sources added by heads and tails, split by a squash, and freed
    // at completion keep the consumer matrix exact.
    Harness h(Harness::params(LoopPolicy::TwoCycle));
    h.s.insert(Harness::op(0, OpClass::IntMult, 0), h.now);
    h.s.insert(Harness::op(1, OpClass::IntMult, 1), h.now);
    int e = h.s.insert(Harness::alu(2, 2, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(3, 2, 2, 1), h.now));
    h.s.insert(Harness::alu(4, 3, 2, 1), h.now);
    h.s.auditStructures();
    h.s.squashAfter(2, h.now);
    h.s.auditStructures();
    EXPECT_TRUE(h.s.tagNamed(1));  // the split entry keeps its slot
    EXPECT_TRUE(h.s.tagNamed(0));
    h.runUntilIdle();
    h.s.auditStructures();
    EXPECT_FALSE(h.s.tagNamed(0));
    EXPECT_FALSE(h.s.tagNamed(1));
}

TEST(TagLiveness, AuditCatchesAStrayConsumerBit)
{
    // A bit no source slot accounts for (a free that missed a clear)
    // would keep its tag named for good; the audit reads the matrix
    // itself, not a count kept beside it.
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.insert(Harness::alu(0, 1, 5), h.now);
    h.s.auditStructures();
    h.s.setConsumerBitForTest(9, 40);  // entry 40 is free
    EXPECT_TRUE(h.s.tagNamed(9));
    EXPECT_THROW(h.s.auditStructures(), mop::verify::IntegrityError);
    EXPECT_EQ(h.s.integrity().violations(
                  mop::verify::IntegrityChecker::Check::TagLiveness),
              1u);
}

TEST(Replay, LoadMissInvalidatesAndReplaysConsumer)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 10; });  // L2 hit: miss
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    h.runUntilIdle();

    EXPECT_EQ(h.s.replayInvalidations(), 1u);  // issued in the shadow
    EXPECT_TRUE(h.done.at(0).wasMiss);
    // The consumer's final execution respects the real latency.
    EXPECT_GE(h.execAt(1), h.completeAt(0));
    // Load value ready at issue + D + 1 (addr gen) + 10.
    EXPECT_EQ(h.completeAt(0), h.issuedAt(0) + 4 + 1 + 10);
}

TEST(Replay, PoisonPropagatesTransitively)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 10; });
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);   // child
    h.s.insert(Harness::alu(2, 2, 1), h.now);   // grandchild
    h.runUntilIdle();
    // Both dependents were woken in the shadow and replayed.
    EXPECT_GE(h.s.replayInvalidations(), 2u);
    h.assertDataflow({{0, 1}, {1, 2}});
}

TEST(Replay, IndependentOpsUnaffectedByMiss)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 110; });  // memory miss
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);    // dependent
    h.s.insert(Harness::alu(2, 2), h.now);       // independent
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(2), 1u);  // issues immediately
    EXPECT_GE(h.execAt(1), h.completeAt(0));
}

TEST(Replay, ReplayPenaltyApplied)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 10; });
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    h.runUntilIdle();
    // Corrected wakeup: complete - D = issue + 11; exec = complete.
    EXPECT_EQ(h.execAt(1), h.completeAt(0));
}

TEST(Replay, HitCausesNoReplay)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 2; });
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    h.runUntilIdle();
    EXPECT_EQ(h.s.replayInvalidations(), 0u);
    EXPECT_FALSE(h.done.at(0).wasMiss);
}

TEST_P(Mop, PendingEntryDoesNotIssue)
{
    Harness h(params(LoopPolicy::TwoCycle));
    int e = h.s.insert(Harness::alu(0, 0), h.now, /*expect_tail=*/true);
    for (int i = 0; i < 10; ++i)
        h.tick();
    EXPECT_TRUE(h.done.empty());  // head waits for its tail
    h.s.clearPending(e);
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
}

TEST_P(Mop, SourceUnionBudgetCamVsWiredOr)
{
    // Head has two sources; tail adds a third distinct one.
    auto build = [this](sched::WakeupStyle style) {
        SchedParams p = params(LoopPolicy::TwoCycle);
        p.style = style;
        return p;
    };
    {
        Harness h(build(sched::WakeupStyle::Cam2));
        int e = h.s.insert(Harness::alu(0, 0, 10, 11), h.now, true);
        EXPECT_FALSE(h.s.appendTail(e, Harness::alu(1, 0, 0, 12), h.now));
    }
    {
        Harness h(build(sched::WakeupStyle::WiredOr));
        int e = h.s.insert(Harness::alu(0, 0, 10, 11), h.now, true);
        EXPECT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0, 12), h.now));
    }
}

TEST_P(Mop, InternalEdgeElided)
{
    // The tail's dependence on the head (same MOP tag) must not count
    // as a source (it never receives a broadcast).
    Harness h(params(LoopPolicy::TwoCycle));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now));
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(0), 1u);  // nothing external to wait for
}

TEST_P(Mop, SingleBroadcastWakesBothConsumersOnce)
{
    Harness h(params(LoopPolicy::TwoCycle));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now));
    h.s.insert(Harness::alu(2, 1, 0), h.now);
    h.s.insert(Harness::alu(3, 2, 0), h.now);
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(2), h.issuedAt(0) + 2);
    EXPECT_EQ(h.issuedAt(3), h.issuedAt(0) + 2);
}

TEST_P(Mop, IssueSlotHeldForSequencing)
{
    // Section 5.3.1: while a MOP sequences its second op, the slot is
    // not available. With issue width 1, a ready single op is delayed
    // by the MOP in front of it.
    SchedParams p = params(LoopPolicy::TwoCycle);
    p.issueWidth = 1;
    Harness h(p);
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now));
    h.s.insert(Harness::alu(2, 1), h.now);  // independent, same age order
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(0), 1u);
    EXPECT_EQ(h.issuedAt(2), 3u);  // cycle 2 is consumed by sequencing
}

TEST_P(Mop, SquashSplitsEntryAndForcesTailSources)
{
    Harness h(params(LoopPolicy::TwoCycle));
    // Tail depends on tag 7 which will never be produced; after the
    // squash removes the tail, the head must issue alone (5.3.2).
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(5, 0, 0, 7), h.now));
    h.tick();
    h.s.squashAfter(3, h.now);  // squashes seq 5, keeps seq 0
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
    EXPECT_FALSE(h.done.count(5));
}

TEST_P(Mop, SquashRemovesWholeYoungEntries)
{
    Harness h(params(LoopPolicy::TwoCycle));
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(10, 1, 5), h.now);  // waits forever
    EXPECT_EQ(h.s.occupancy(), 2);
    h.s.squashAfter(0, h.now);
    EXPECT_EQ(h.s.occupancy(), 1);
    h.runUntilIdle();
}

TEST_P(Mop, SquashEventRecordedAtCurrentCycle)
{
    // Regression: the squash event used to be stamped with the cycle
    // of the last scheduler progress instead of the cycle the flush
    // actually happened, which scrambled event-ring forensics.
    Harness h(params(LoopPolicy::TwoCycle));
    mop::verify::EventRing ring(64);
    h.s.setEventRing(&ring);
    h.s.insert(Harness::alu(0, 0), h.now);
    h.runUntilIdle();
    for (int i = 0; i < 10; ++i)  // idle cycles: no progress
        h.tick();
    Cycle at = h.now;
    h.s.squashAfter(0, h.now);
    bool found = false;
    for (size_t i = 0; i < ring.size(); ++i) {
        const mop::verify::SchedEvent &ev = ring.at(i);
        if (ev.kind == mop::verify::SchedEvent::Kind::Squash) {
            found = true;
            EXPECT_EQ(ev.cycle, at);
        }
    }
    EXPECT_TRUE(found);
}

TEST_P(Deadlock, MopCycleCaughtByWatchdog)
{
    // Figure 8(a): MOP(1,3) and instruction 2 form a circular wait:
    // the MOP needs 2's result (tail source) and 2 needs the MOP's
    // head result. The conservative detection heuristic exists to
    // prevent exactly this; built directly, the watchdog must fire.
    SchedParams p = params(LoopPolicy::TwoCycle);
    p.watchdogCycles = 500;
    Harness h(p);
    int e = h.s.insert(Harness::alu(1, 0), h.now, true);       // head
    h.s.insert(Harness::alu(2, 1, 0), h.now);                  // insn 2
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(3, 0, 0, 1), h.now));
    EXPECT_THROW(
        {
            for (int i = 0; i < 2000; ++i)
                h.tick();
        },
        sched::DeadlockError);
}

TEST_P(Select, AgePriorityOldestFirst)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.issueWidth = 1;
    Harness h(p);
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(1, 1), h.now);
    h.s.insert(Harness::alu(2, 2), h.now);
    h.runUntilIdle();
    EXPECT_LT(h.issuedAt(0), h.issuedAt(1));
    EXPECT_LT(h.issuedAt(1), h.issuedAt(2));
}

TEST_P(Select, IssueWidthLimits)
{
    Harness h(params(LoopPolicy::Atomic));  // width 4
    for (uint64_t i = 0; i < 6; ++i)
        h.s.insert(Harness::alu(i, Tag(i)), h.now);
    h.runUntilIdle();
    int first = 0, second = 0;
    for (uint64_t i = 0; i < 6; ++i)
        (h.issuedAt(i) == 1 ? first : second)++;
    EXPECT_EQ(first, 4);
    EXPECT_EQ(second, 2);
}

TEST_P(Select, FuContentionDelaysFifthAlu)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.issueWidth = 8;
    Harness h(p);
    for (uint64_t i = 0; i < 5; ++i)
        h.s.insert(Harness::alu(i, Tag(i)), h.now);
    h.runUntilIdle();
    // 4 integer ALUs: the fifth op waits a cycle despite issue width.
    uint64_t at1 = 0, at2 = 0;
    for (uint64_t i = 0; i < 5; ++i)
        (h.issuedAt(i) == 1 ? at1 : at2)++;
    EXPECT_EQ(at1, 4u);
    EXPECT_EQ(at2, 1u);
}

TEST_P(Select, UnpipelinedDivideBlocksUnit)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.fuCounts = {4, 1, 2, 2, 2};  // single int mult/div unit
    Harness h(p);
    h.s.insert(Harness::op(0, OpClass::IntDiv, 0), h.now);
    h.s.insert(Harness::op(1, OpClass::IntDiv, 1), h.now);
    h.runUntilIdle();
    EXPECT_GE(h.issuedAt(1), h.issuedAt(0) + 20);
}

TEST_P(SelectFree, SquashDepCollisionsCountedAndCorrect)
{
    if (policyId() == PolicyId::LoadDelay)
        GTEST_SKIP() << "load-delay rejects select-free organizations";
    SchedParams p = params(LoopPolicy::SelectFreeSquashDep);
    p.issueWidth = 1;
    Harness h(p);
    // Two independent producers, each with a dependent chain; with
    // width 1, one producer collides and its wakeups are recalled.
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(1, 1), h.now);
    h.s.insert(Harness::alu(2, 2, 0), h.now);
    h.s.insert(Harness::alu(3, 3, 1), h.now);
    h.runUntilIdle();
    EXPECT_GE(h.s.collisions(), 1u);
    h.assertDataflow({{0, 2}, {1, 3}});
}

TEST_P(SelectFree, NoCollisionMatchesAtomicTiming)
{
    if (policyId() == PolicyId::LoadDelay)
        GTEST_SKIP() << "load-delay rejects select-free organizations";
    Harness sf(params(LoopPolicy::SelectFreeSquashDep));
    Harness at(params(LoopPolicy::Atomic));
    for (Harness *h : {&sf, &at}) {
        h->s.insert(Harness::alu(0, 0), h->now);
        h->s.insert(Harness::alu(1, 1, 0), h->now);
        h->s.insert(Harness::alu(2, 2, 1), h->now);
        h->runUntilIdle();
    }
    for (uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(sf.issuedAt(i), at.issuedAt(i)) << i;
}

TEST_P(SelectFree, ScoreboardPileupVictimsReplayed)
{
    if (policyId() == PolicyId::LoadDelay)
        GTEST_SKIP() << "load-delay rejects select-free organizations";
    // A collision victim's child is woken as if its parent issued at
    // ready time; when the parent is delayed by older work, the child
    // can issue in the same cycle as the parent and reaches RF before
    // the value exists: the scoreboard kills and replays it.
    SchedParams p = params(LoopPolicy::SelectFreeScoreboard);
    p.issueWidth = 4;
    Harness h(p);
    for (uint64_t i = 0; i < 4; ++i)
        h.s.insert(Harness::alu(i, Tag(i)), h.now);  // older blockers
    h.s.insert(Harness::alu(4, 4), h.now);           // collision victim
    h.s.insert(Harness::alu(5, 5, 4), h.now);        // mis-woken child
    h.runUntilIdle();
    EXPECT_GE(h.s.collisions(), 1u);
    EXPECT_GE(h.s.pileupKills(), 1u);  // mis-woken op reached RF
    h.assertDataflow({{4, 5}});
}

TEST_P(SelectFree, ScoreboardConsumesIssueBandwidth)
{
    if (policyId() == PolicyId::LoadDelay)
        GTEST_SKIP() << "load-delay rejects select-free organizations";
    // Pileup victims occupy issue slots; squash-dep mostly avoids
    // that. Compare total cycles to drain the same workload.
    auto drain_cycles = [this](LoopPolicy pol) {
        SchedParams p = params(pol);
        p.issueWidth = 2;
        Harness h(p);
        // A burst of producers and consumers exceeding the width.
        for (uint64_t i = 0; i < 6; ++i)
            h.s.insert(Harness::alu(i, Tag(i)), h.now);
        for (uint64_t i = 0; i < 6; ++i)
            h.s.insert(Harness::alu(6 + i, Tag(6 + i), Tag(i)), h.now);
        h.runUntilIdle();
        Cycle last = 0;
        for (auto &[seq, ev] : h.done)
            last = std::max(last, ev.complete);
        return last;
    };
    EXPECT_LE(drain_cycles(LoopPolicy::SelectFreeSquashDep),
              drain_cycles(LoopPolicy::SelectFreeScoreboard));
}

TEST_P(Queue, CapacityRespected)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.numEntries = 4;
    Harness h(p);
    for (uint64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(h.s.canInsert());
        h.s.insert(Harness::alu(i, Tag(i), 99), h.now);  // all waiting
    }
    EXPECT_FALSE(h.s.canInsert());
    EXPECT_EQ(h.s.occupancy(), 4);
}

TEST_P(Queue, EntriesFreedAfterCompletion)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.numEntries = 2;
    Harness h(p);
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(1, 1), h.now);
    EXPECT_FALSE(h.s.canInsert());
    h.runUntilIdle();
    EXPECT_TRUE(h.s.canInsert(2));
}

TEST_P(Queue, MopSharesOneEntry)
{
    SchedParams p = params(LoopPolicy::TwoCycle);
    p.numEntries = 1;
    Harness h(p);
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now));
    EXPECT_EQ(h.s.occupancy(), 1);
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
    EXPECT_TRUE(h.done.count(1));
}

// --- load-delay policy semantics (the replay-free counterparts of
// --- the Replay suite above) -----------------------------------------

TEST(LoadDelaySched, MissWakesConsumerWithoutReplay)
{
    Harness h(Harness::params(LoopPolicy::Atomic, PolicyId::LoadDelay));
    h.s.setLoadLatencyFn([](uint64_t) { return 10; });  // L2 hit: miss
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    h.runUntilIdle();

    // The delay table predicted the miss at issue: the consumer was
    // never woken speculatively, so there is nothing to replay.
    EXPECT_EQ(h.s.replayInvalidations(), 0u);
    EXPECT_TRUE(h.done.at(0).wasMiss);
    EXPECT_EQ(h.completeAt(0), h.issuedAt(0) + 4 + 1 + 10);
    // The wakeup lands exactly on the value: no replay penalty, no
    // slack either.
    EXPECT_EQ(h.execAt(1), h.completeAt(0));
}

TEST(LoadDelaySched, HitTimingMatchesPaperPolicy)
{
    // On hits the delay table predicts dl1HitLatency, which is what
    // the paper policy speculates: identical schedules.
    Harness ld(Harness::params(LoopPolicy::Atomic, PolicyId::LoadDelay));
    Harness pa(Harness::params(LoopPolicy::Atomic, PolicyId::Paper));
    for (Harness *h : {&ld, &pa}) {
        h->s.setLoadLatencyFn([](uint64_t) { return 2; });
        h->s.insert(Harness::op(0, OpClass::Load, 0), h->now);
        h->s.insert(Harness::alu(1, 1, 0), h->now);
        h->s.insert(Harness::alu(2, 2, 1), h->now);
        h->runUntilIdle();
    }
    for (uint64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(ld.issuedAt(i), pa.issuedAt(i)) << i;
        EXPECT_EQ(ld.completeAt(i), pa.completeAt(i)) << i;
    }
    EXPECT_EQ(ld.s.replayInvalidations(), 0u);
    EXPECT_EQ(pa.s.replayInvalidations(), 0u);
}

TEST(LoadDelaySched, DelayQueriedExactlyOncePerLoad)
{
    // The latency callback is side-effecting in the pipeline (cache
    // state, fault-campaign RNG draws): the load-delay policy must
    // sample it once per load even though both the broadcast-timing
    // computation and the execution model need the answer.
    Harness h(Harness::params(LoopPolicy::Atomic, PolicyId::LoadDelay));
    std::map<uint64_t, int> queries;
    h.s.setLoadLatencyFn([&queries](uint64_t seq) {
        ++queries[seq];
        return seq % 2 ? 10 : 2;
    });
    for (uint64_t i = 0; i < 6; ++i)
        h.s.insert(Harness::op(i, OpClass::Load, Tag(i)), h.now);
    h.runUntilIdle();
    ASSERT_EQ(queries.size(), 6u);
    for (auto [seq, n] : queries)
        EXPECT_EQ(n, 1) << "load " << seq;
}

TEST(LoadDelaySched, SelectFreeOrganizationsRejected)
{
    // Select-free broadcasts before selection, when the load's delay
    // is not yet known: the combination is structurally impossible and
    // must be rejected at construction, not mis-scheduled.
    for (LoopPolicy pol : {LoopPolicy::SelectFreeSquashDep,
                           LoopPolicy::SelectFreeScoreboard}) {
        EXPECT_THROW(
            sched::Scheduler s(
                Harness::params(pol, PolicyId::LoadDelay)),
            std::invalid_argument);
    }
}

// --- static-fuse policy semantics ------------------------------------

TEST(StaticFuseSched, MopSizeClampedToPairs)
{
    // Decode-fused pairs only: even when the configuration asks for
    // 4-op MOPs, the static-fuse policy caps the entry at 2 ops and
    // the chain-extension appendTail must be refused.
    SchedParams p =
        Harness::params(LoopPolicy::TwoCycle, PolicyId::StaticFuse);
    p.maxMopSize = 4;
    Harness h(p);
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now,
                               /*more_coming=*/true));
    EXPECT_FALSE(h.s.appendTail(e, Harness::alu(2, 0, 0), h.now));
    h.s.clearPending(e);
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
    EXPECT_TRUE(h.done.count(1));
    EXPECT_FALSE(h.done.count(2));

    // The same chain is accepted under the paper policy.
    SchedParams pp = Harness::params(LoopPolicy::TwoCycle);
    pp.maxMopSize = 4;
    Harness hp(pp);
    int ep = hp.s.insert(Harness::alu(0, 0), hp.now, true);
    ASSERT_TRUE(hp.s.appendTail(ep, Harness::alu(1, 0, 0), hp.now, true));
    EXPECT_TRUE(hp.s.appendTail(ep, Harness::alu(2, 0, 0), hp.now));
}

// --- whole-entry FU admission (regression for the intra-entry
// --- double-booking bug fixed by FuPool::availableSeq) ---------------

TEST_P(Select, UnpipelinedMopWaitsForWholeEntryFuSequence)
{
    // A divide pair grouped into one MOP, with a third divide already
    // holding one of the two IntMultDiv units. Under the old per-op
    // independent FU check, select granted the pair against the single
    // free unit twice and reserve() hit assert(available); the seq
    // check must instead hold the MOP until both units are free, and
    // the run must drain cleanly.
    Harness h(params(LoopPolicy::TwoCycle));
    h.s.insert(Harness::op(9, OpClass::IntDiv, 9), h.now);
    int e = h.s.insert(Harness::op(0, OpClass::IntDiv, 0), h.now, true);
    ASSERT_TRUE(
        h.s.appendTail(e, Harness::op(1, OpClass::IntDiv, 1, 0), h.now));
    h.runUntilIdle();
    // Tail executes the cycle after its head (the internal edge is
    // elided by MOP semantics), each on its own unit.
    EXPECT_EQ(h.execAt(1), h.execAt(0) + 1);
    // The MOP could not start while the independent divide held a
    // unit: its head initiates no earlier than that divide frees one
    // of the two units for the tail's +1 slot.
    EXPECT_GE(h.issuedAt(0), h.issuedAt(9));
}

MOP_INSTANTIATE_PER_POLICY(Mop);
MOP_INSTANTIATE_PER_POLICY(Deadlock);
MOP_INSTANTIATE_PER_POLICY(Select);
MOP_INSTANTIATE_PER_POLICY(SelectFree);
MOP_INSTANTIATE_PER_POLICY(Queue);

} // namespace
