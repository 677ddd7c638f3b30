/**
 * @file
 * MOP formation tests: the dependence-translation table of Figure 10,
 * the pending/insert-group policy of Figure 11, pointer verification
 * against diverging control flow, tail demotion, and the bounded tag
 * pool (hold counting, LIFO reuse, parking behind issue-queue
 * consumers, exhaustion, wrong-path restore).
 */

#include <gtest/gtest.h>

#include <set>

#include "core/mop_formation.hh"

namespace
{

using namespace mop::core;
using mop::isa::MicroOp;
using mop::isa::OpClass;
using mop::sched::kNoTag;
using mop::sched::Tag;
using Role = FormOutcome::Role;

constexpr uint64_t kPc = 0x400000;

MicroOp
alu(uint64_t dyn_id, int dst, int s0 = -1, int s1 = -1)
{
    MicroOp u;
    u.pc = kPc + 4 * dyn_id;
    u.op = OpClass::IntAlu;
    u.dst = int16_t(dst);
    u.src = {int16_t(s0), int16_t(s1)};
    return u;
}

/** A pool no issue queue names: these tests drive formation alone. */
TagPoolBinding
unnamedPool(int capacity = 1024)
{
    static mop::verify::IntegrityChecker chk;
    return {capacity, [](Tag) { return false; }, &chk};
}

void
writePointer(MopPointerCache &c, uint64_t head_dyn, uint8_t offset,
             bool independent = false)
{
    MopPointer p;
    p.offset = offset;
    p.tailPc = kPc + 4 * (head_dyn + offset);
    p.independent = independent;
    c.write(kPc + 4 * head_dyn, p);
}

TEST(Formation, Figure10TranslationExample)
{
    // I1: SUB r3 <- r1,1   I2: ADD r4 <- r3,5
    // I3: NOT r5 <- r3     I4: XOR r6 <- r2,r5
    // MOPs: (I1,I2) and (I3,I4); a single MOP ID per pair.
    MopPointerCache cache;
    writePointer(cache, 0, 1);
    writePointer(cache, 2, 1);
    MopFormation f(true, cache, unnamedPool());

    FormOutcome o1 = f.process(alu(0, 3, 1), 0);
    EXPECT_EQ(o1.role, Role::Head);
    Tag m5 = o1.dst;
    f.setHeadEntry(0, 17);

    FormOutcome o2 = f.process(alu(1, 4, 3, -1), 1);
    EXPECT_EQ(o2.role, Role::Tail);
    EXPECT_EQ(o2.headEntry, 17);
    EXPECT_EQ(o2.dst, m5);          // same MOP ID for both
    EXPECT_EQ(o2.src[0], m5);       // internal edge, elided downstream

    FormOutcome o3 = f.process(alu(2, 5, 3), 2);
    EXPECT_EQ(o3.role, Role::Head);
    Tag m6 = o3.dst;
    EXPECT_NE(m6, m5);
    EXPECT_EQ(o3.src[0], m5);       // r3 now maps to MOP m5
    f.setHeadEntry(2, 23);

    FormOutcome o4 = f.process(alu(3, 6, 2, 5), 3);
    EXPECT_EQ(o4.role, Role::Tail);
    EXPECT_EQ(o4.dst, m6);
    EXPECT_EQ(o4.src[0], kNoTag);   // r2 has no in-flight producer
    EXPECT_EQ(o4.src[1], m6);       // r5 -> m6 (internal)

    // A consumer of r4 becomes a child of MOP m5 (Figure 10's point).
    FormOutcome o5 = f.process(alu(4, 7, 4), 4);
    EXPECT_EQ(o5.role, Role::Single);
    EXPECT_EQ(o5.src[0], m5);
    EXPECT_EQ(f.groupsFormed(), 2u);
}

TEST(Formation, DisabledNeverGroups)
{
    MopPointerCache cache;
    writePointer(cache, 0, 1);
    MopFormation f(false, cache, unnamedPool());
    FormOutcome o1 = f.process(alu(0, 1), 0);
    EXPECT_EQ(o1.role, Role::Single);
    FormOutcome o2 = f.process(alu(1, 2, 1), 1);
    EXPECT_EQ(o2.role, Role::Single);
    EXPECT_EQ(o2.src[0], o1.dst);  // plain dependence renaming works
}

TEST(Formation, FreshTagsAreUnique)
{
    MopPointerCache cache;
    MopFormation f(true, cache, unnamedPool());
    Tag a = f.process(alu(0, 1), 0).dst;
    Tag b = f.process(alu(1, 2), 1).dst;
    Tag c = f.process(alu(2, 3), 2).dst;
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
}

TEST(Formation, PendingExpiresAfterTwoGroupBoundaries)
{
    MopPointerCache cache;
    writePointer(cache, 0, 5);
    MopFormation f(true, cache, unnamedPool());
    FormOutcome o = f.process(alu(0, 1), 0);
    ASSERT_EQ(o.role, Role::Head);
    f.setHeadEntry(0, 7);
    EXPECT_TRUE(f.groupBoundary().empty());  // tail may be next group
    auto expired = f.groupBoundary();        // too late now (Figure 11)
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0], 7);
    EXPECT_EQ(f.pendingExpired(), 1u);
    // The tail µop now arrives: it must be an ordinary instruction.
    FormOutcome t = f.process(alu(5, 2, 1), 5);
    EXPECT_EQ(t.role, Role::Single);
}

TEST(Formation, VerifyFailOnUnexpectedInstruction)
{
    MopPointerCache cache;
    writePointer(cache, 0, 2);
    MopFormation f(true, cache, unnamedPool());
    FormOutcome h = f.process(alu(0, 1), 0);
    ASSERT_EQ(h.role, Role::Head);
    f.setHeadEntry(0, 9);
    f.process(alu(1, 8), 1);
    // Control flow diverged: the µop at the expected dyn id has a
    // different PC than the pointer recorded.
    MicroOp wrong = alu(7, 2, 1);  // pc of dyn id 7, arriving as id 2
    FormOutcome t = f.process(wrong, 2);
    EXPECT_NE(t.role, Role::Tail);
    EXPECT_EQ(t.clearPendingEntry, 9);
    EXPECT_EQ(f.verifyFails(), 1u);
}

TEST(Formation, DemoteTailAssignsFreshTag)
{
    MopPointerCache cache;
    writePointer(cache, 0, 1);
    MopFormation f(true, cache, unnamedPool());
    f.process(alu(0, 1), 0);
    f.setHeadEntry(0, 3);
    FormOutcome t = f.process(alu(1, 2, 1), 1);
    ASSERT_EQ(t.role, Role::Tail);
    Tag mop_tag = t.dst;
    // Caller failed to append (source budget): demote.
    Tag fresh = f.demoteTail(alu(1, 2, 1));
    EXPECT_NE(fresh, mop_tag);
    // Consumers of r2 now see the demoted tag.
    FormOutcome c = f.process(alu(2, 3, 2), 2);
    EXPECT_EQ(c.src[0], fresh);
    EXPECT_EQ(f.demotions(), 1u);
}

TEST(Formation, TailClaimedByOnlyOneHead)
{
    MopPointerCache cache;
    writePointer(cache, 0, 2);
    writePointer(cache, 1, 1);  // would claim the same tail (dyn 2)
    MopFormation f(true, cache, unnamedPool());
    EXPECT_EQ(f.process(alu(0, 1), 0).role, Role::Head);
    f.setHeadEntry(0, 1);
    // Second head's expected tail is already claimed: stays single.
    EXPECT_EQ(f.process(alu(1, 2), 1).role, Role::Single);
    FormOutcome t = f.process(alu(2, 3, 1), 2);
    EXPECT_EQ(t.role, Role::Tail);
    EXPECT_EQ(t.headDynId, 0u);
}

TEST(Formation, IndependentPointerAllowsNonValueGenHead)
{
    MopPointerCache cache;
    MopPointer p;
    p.offset = 1;
    p.tailPc = kPc + 4;
    p.independent = true;
    cache.write(kPc, p);
    MopFormation f(true, cache, unnamedPool());
    MicroOp store;
    store.pc = kPc;
    store.op = OpClass::StoreAddr;
    store.src = {10, -1};
    FormOutcome h = f.process(store, 0);
    EXPECT_EQ(h.role, Role::Head);
    EXPECT_TRUE(h.independent);
    EXPECT_NE(h.dst, kNoTag);  // MOP scheduling tag despite no dest
}

TEST(Formation, DependentPointerRequiresValueGenHead)
{
    MopPointerCache cache;
    writePointer(cache, 0, 1, /*independent=*/false);
    MopFormation f(true, cache, unnamedPool());
    MicroOp store;
    store.pc = kPc;
    store.op = OpClass::StoreAddr;
    store.src = {10, -1};
    EXPECT_EQ(f.process(store, 0).role, Role::Single);
}

TEST(Formation, ZeroRegisterSourcesNeverTranslate)
{
    MopPointerCache cache;
    MopFormation f(true, cache, unnamedPool());
    f.process(alu(0, mop::isa::kZeroReg), 0);  // dst is the zero reg
    FormOutcome o = f.process(alu(1, 2, mop::isa::kZeroReg), 1);
    EXPECT_EQ(o.src[0], kNoTag);
}

// --- bounded tag pool --------------------------------------------------

/** Rename one µop the way the core does: process, then take the
 *  producer hold on its tag. Returns {prevTag, dst}. */
std::pair<Tag, Tag>
rename(Formation &f, const MicroOp &u, uint64_t dyn)
{
    FormOutcome o = f.process(u, dyn);
    f.holdTag(o.dst);
    return {o.prevTag, o.dst};
}

void
retire(Formation &f, std::pair<Tag, Tag> holds)
{
    f.releaseTag(holds.first);
    f.releaseTag(holds.second);
}

TEST(TagPool, CommitOfTheOverwriterFreesTheTag)
{
    MopPointerCache cache;
    MopFormation f(false, cache, unnamedPool());
    auto a = rename(f, alu(0, 1), 0);     // r1 -> t0
    auto b = rename(f, alu(1, 1, 1), 1);  // r1 -> t1, displaces t0
    EXPECT_EQ(a.first, kNoTag);
    EXPECT_EQ(b.first, a.second);
    retire(f, a);  // t0 still held: b displaced it but has not committed
    EXPECT_EQ(rename(f, alu(2, 2), 2).second, 2);
    retire(f, b);  // overwriter commits: t0 is dead
    EXPECT_EQ(rename(f, alu(3, 3), 3).second, a.second);
    EXPECT_EQ(f.tagsMinted(), 3);
}

TEST(TagPool, MopTagLivesUntilEveryMappingIsOverwritten)
{
    MopPointerCache cache;
    writePointer(cache, 0, 1);
    MopFormation f(true, cache, unnamedPool());
    auto h = rename(f, alu(0, 1), 0);
    f.setHeadEntry(0, 3);
    auto t = rename(f, alu(1, 2, 1), 1);  // joins: r1 and r2 map m
    ASSERT_EQ(t.second, h.second);
    retire(f, h);
    retire(f, t);
    auto o1 = rename(f, alu(2, 1), 2);  // overwrites r1 only
    retire(f, o1);
    EXPECT_NE(rename(f, alu(3, 4), 3).second, h.second);  // r2 holds m
    auto o2 = rename(f, alu(4, 2), 4);
    retire(f, o2);
    EXPECT_EQ(rename(f, alu(5, 5), 5).second, h.second);
}

TEST(TagPool, DeadTagParksWhileTheSchedulerNamesIt)
{
    MopPointerCache cache;
    std::set<Tag> named;
    mop::verify::IntegrityChecker chk;
    MopFormation f(false, cache,
                   {1024, [&named](Tag t) { return named.count(t) > 0; },
                    &chk});
    auto a = rename(f, alu(0, 1), 0);
    auto b = rename(f, alu(1, 1), 1);
    named.insert(a.second);  // a MOP entry still names t0
    retire(f, a);
    retire(f, b);
    EXPECT_EQ(rename(f, alu(2, 2), 2).second, 2);  // t0 parked: mint
    named.clear();
    EXPECT_EQ(rename(f, alu(3, 3), 3).second, a.second);  // reclaimed
}

TEST(TagPool, ExhaustionIsAnIntegrityError)
{
    MopPointerCache cache;
    mop::verify::IntegrityChecker chk;
    MopFormation f(false, cache, {2, [](Tag) { return false; }, &chk});
    rename(f, alu(0, 1), 0);
    rename(f, alu(1, 2), 1);
    EXPECT_THROW(rename(f, alu(2, 3), 2), mop::verify::IntegrityError);
    EXPECT_EQ(chk.violations(
                  mop::verify::IntegrityChecker::Check::TagLiveness),
              1u);
}

TEST(TagPool, RestoreReturnsWrongPathTags)
{
    MopPointerCache cache;
    MopFormation f(false, cache, unnamedPool());
    auto a = rename(f, alu(0, 1), 0);
    f.checkpoint();
    auto w1 = rename(f, alu(1, 1), 1);  // wrong path: displaces t0
    auto w2 = rename(f, alu(2, 2), 2);
    f.restoreToCheckpoint();
    retire(f, w2);  // squash releases, youngest first
    retire(f, w1);
    // r1 maps t0 again; both wrong-path tags are free (LIFO).
    FormOutcome c = f.process(alu(3, 2, 1), 3);
    EXPECT_EQ(c.src[0], a.second);
    EXPECT_EQ(c.dst, w1.second);
    EXPECT_EQ(f.process(alu(4, 3), 4).dst, w2.second);
    EXPECT_EQ(f.tagsMinted(), 3);
}

} // namespace
