/**
 * @file
 * Wired-OR wakeup tests (Section 2.2 / Goshima et al.). They drive the
 * production Scheduler under WakeupStyle::WiredOr, whose tag x entry
 * consumer matrix is the dependence-indexed wakeup structure: entries
 * wake when every marked source has been delivered, a MOP entry may
 * carry three sources, recalls re-block consumers, a reused entry
 * keeps no stale consumers, and randomized dependence graphs issue in
 * exactly the reference dataflow wavefronts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "sched_harness.hh"

namespace
{

using namespace mop::test;
using mop::isa::OpClass;
using mop::sched::WakeupStyle;

SchedParams
wiredOr(LoopPolicy pol, int entries = 64)
{
    SchedParams p = Harness::params(pol, entries);
    p.style = WakeupStyle::WiredOr;
    return p;
}

TEST(WiredOr, ReadyWhenAllLinesAsserted)
{
    Harness h(wiredOr(LoopPolicy::Atomic));
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::op(1, OpClass::IntMult, 1), h.now);
    h.s.insert(Harness::alu(2, 2, 0, 1), h.now);
    h.runUntilIdle();
    // Atomic loop: a producer issued at s delivers at s + latency; the
    // consumer wakes on the later of its two sources.
    Cycle last = std::max(h.issuedAt(0) + 1, h.issuedAt(1) + 3);
    EXPECT_EQ(h.done.at(2).ready, last);
    EXPECT_EQ(h.issuedAt(2), last);
}

TEST(WiredOr, NoDependencesMeansReady)
{
    Harness h(wiredOr(LoopPolicy::Atomic));
    h.s.insert(Harness::alu(0, 0), h.now);
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(0), 1u);  // selectable the cycle after insert
}

TEST(WiredOr, DeassertSupportsRecall)
{
    // The consumer waits on a missing load and a divide. The load's
    // hit-time wakeup marks one source ready; the miss recall must
    // re-block it, so the divide's wakeup alone cannot issue the
    // consumer: it issues on the load's corrected wakeup.
    Harness h(wiredOr(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 110; });
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::op(1, OpClass::IntDiv, 1), h.now);
    h.s.insert(Harness::alu(2, 2, 0, 1), h.now);
    h.runUntilIdle();
    EXPECT_GT(h.issuedAt(2), h.issuedAt(1) + 20);
    EXPECT_GE(h.execAt(2), h.completeAt(0));
    EXPECT_FALSE(h.done.at(2).replayed);  // re-blocked, never issued
    h.assertDataflow({{0, 2}, {1, 2}});
}

TEST(WiredOr, AllocateClearsStaleState)
{
    // Two entries: the consumer of tag 0 frees its entry on
    // completion, an unrelated op reuses it, and tag 0 is then
    // redefined. No consumer of the old tag 0 may survive the reuse,
    // and the redefinition starts from an unready tag.
    Harness h(wiredOr(LoopPolicy::Atomic, 2));
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    EXPECT_TRUE(h.s.tagNamed(0));
    h.runUntilIdle();
    EXPECT_FALSE(h.s.tagNamed(0));
    h.s.insert(Harness::alu(2, 2, 1), h.now);  // reuses a freed entry
    EXPECT_FALSE(h.s.tagNamed(0));
    EXPECT_TRUE(h.s.tagNamed(1));
    h.runUntilIdle();
    EXPECT_TRUE(h.s.tagIsReady(0));
    h.s.insert(Harness::op(3, OpClass::IntMult, 0), h.now);  // redefine
    EXPECT_FALSE(h.s.tagIsReady(0));
    h.s.insert(Harness::alu(4, 3, 0), h.now);
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(4), h.issuedAt(3) + 3);  // woke on the new tag 0
    EXPECT_EQ(h.s.integrity().totalViolations(), 0u);
}

TEST(WiredOr, MopEntryCanCarryThreeSources)
{
    // The dependence vector marks any number of sources (Section
    // 3.1): a head reading two producers plus a tail reading a third
    // form one entry under wired-OR wakeup, and it wakes only on the
    // third delivery.
    Harness h(wiredOr(LoopPolicy::TwoCycle));
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::op(1, OpClass::IntMult, 1), h.now);
    h.s.insert(Harness::alu(2, 2, 1), h.now);  // last of the three
    int e = h.s.insert(Harness::alu(3, 10, 0, 1), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(4, 10, 10, 2), h.now));
    h.runUntilIdle();
    // TwoCycle loop: deliveries at issue + max(latency, 2).
    Cycle first = h.issuedAt(0) + 2, second = h.issuedAt(1) + 3;
    Cycle third = h.issuedAt(2) + 2;
    ASSERT_GT(third, std::max(first, second));
    EXPECT_EQ(h.done.at(3).ready, third);
    EXPECT_EQ(h.issuedAt(3), third);
    EXPECT_EQ(h.done.at(4).ready, third);
}

/** Randomized equivalence vs a reference dataflow wave computation. */
class WiredOrRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(WiredOrRandom, MatchesReferenceWavefronts)
{
    std::mt19937 rng{uint32_t(GetParam())};
    constexpr int n = 48;
    // Unlimited width and units: every op issues in the cycle after
    // its last producer's single-cycle wakeup, i.e. in its wave.
    SchedParams p = wiredOr(LoopPolicy::Atomic, n);
    p.issueWidth = n;
    p.fuCounts.fill(n);
    Harness h(p);
    std::vector<int> wave(n, 0);
    for (int i = 0; i < n; ++i) {
        Tag src[2] = {mop::sched::kNoTag, mop::sched::kNoTag};
        int ndeps = int(rng() % 3);
        for (int d = 0; d < ndeps && i > 0; ++d) {
            int q = int(rng() % uint32_t(i));
            src[d] = Tag(q);
            wave[size_t(i)] = std::max(wave[size_t(i)], wave[size_t(q)] + 1);
        }
        h.s.insert(Harness::alu(uint64_t(i), Tag(i), src[0], src[1]),
                   h.now);
    }
    h.runUntilIdle();
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(h.issuedAt(uint64_t(i)), Cycle(1 + wave[size_t(i)]))
            << "op " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WiredOrRandom,
                         ::testing::Range(1, 11));

} // namespace
