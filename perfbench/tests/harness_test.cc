/**
 * @file
 * Tests of the benchmark's own measurement rules: the percentile rule,
 * span self time, the hot-call histogram and digest stability.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "harness.hh"
#include "workloads.hh"

namespace
{

using namespace mopbench;

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v = ramp(100);
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 90), 90);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(percentile({7}, 99), 7);
    EXPECT_EQ(percentile({}, 50), 0);
    // Order of the input does not matter.
    std::vector<double> rev(v.rbegin(), v.rend());
    EXPECT_EQ(percentile(rev, 90), 90);
}

TEST(Percentile, HighestWithTenSamplesBeyond)
{
    // figure-sweep's 372 runs: p99 has only 3 beyond, p90 has 37.
    TailStat t = tailPercentile(ramp(372));
    EXPECT_EQ(t.pct, 90);
    EXPECT_EQ(t.samples, 372u);
    EXPECT_EQ(t.beyond, 37u);
    EXPECT_EQ(t.value, 335);

    t = tailPercentile(ramp(1000));
    EXPECT_EQ(t.pct, 99);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.value, 990);

    // One sample short of ten beyond p99.
    t = tailPercentile(ramp(999));
    EXPECT_EQ(t.pct, 90);

    t = tailPercentile(ramp(10000));
    EXPECT_EQ(t.pct, 99.9);
    EXPECT_EQ(t.beyond, 10u);

    // Too few samples even for p50: reported with its short count.
    t = tailPercentile(ramp(19));
    EXPECT_EQ(t.pct, 50);
    EXPECT_EQ(t.beyond, 9u);
    EXPECT_EQ(tailPercentile(ramp(20)).beyond, 10u);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren)
{
    SpanRecorder r;
    int p = r.begin("parent", 0.0);
    r.end(r.begin("a", 1.0), 3.0);
    int b = r.begin("b", 2.0);          // overlaps a
    r.end(r.begin("grandchild", 2.5), 4.5);
    r.end(b, 5.0);
    r.end(r.begin("c", 7.0), 8.0);
    r.end(p, 10.0);

    EXPECT_DOUBLE_EQ(r.duration(p), 10.0);
    // Children cover [1,5] and [7,8]; the grandchild is b's, not p's.
    EXPECT_DOUBLE_EQ(r.selfSeconds(p), 5.0);
    EXPECT_DOUBLE_EQ(r.selfSeconds(b), 1.0);
    EXPECT_EQ(r.spans()[size_t(b)].parent, p);
    EXPECT_EQ(r.durations("a"), std::vector<double>{2.0});
    EXPECT_DOUBLE_EQ(r.totalSelfSeconds("parent"), 5.0);
}

TEST(Spans, HotChildTimeGoesToTheInnermostOpenSpan)
{
    SpanRecorder r;
    int outer = r.begin("outer", 0.0);
    int inner = r.begin("inner", 1.0);
    r.addHotChild(0.25);
    r.addHotChild(0.25);
    r.end(inner, 3.0);
    r.addHotChild(1.0);
    r.end(outer, 10.0);
    EXPECT_DOUBLE_EQ(r.selfSeconds(inner), 1.5);
    EXPECT_DOUBLE_EQ(r.selfSeconds(outer), 7.0);
    SpanRecorder none;
    none.addHotChild(1.0);  // no open span: dropped
    EXPECT_TRUE(none.spans().empty());
}

TEST(Spans, ChildrenAreClippedToTheParent)
{
    SpanRecorder r;
    int p = r.record("parent", 10.0, 20.0);
    r.record("early", 5.0, 12.0, p);
    r.record("late", 18.0, 30.0, p);
    EXPECT_DOUBLE_EQ(r.selfSeconds(p), 6.0);
    // Open spans have no duration and are not counted.
    int open = r.begin("open", 1.0);
    EXPECT_DOUBLE_EQ(r.duration(open), 0.0);
    EXPECT_TRUE(r.durations("open").empty());
}

TEST(HotStat, PercentilesWithinBucketResolution)
{
    HotStat h;
    for (int i = 1; i <= 1000; ++i)
        h.add(100.0 * i);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.meanNs(), 50050.0);
    EXPECT_NEAR(h.percentileNs(50), 50000.0, 50000.0 * 0.04);
    EXPECT_NEAR(h.percentileNs(99), 99000.0, 99000.0 * 0.04);
    HotStat empty;
    EXPECT_EQ(empty.percentileNs(50), 0);
}

SimSpec
smallSpec(uint64_t seed)
{
    SimSpec s;
    s.bench = "gzip";
    s.profile = seededProfile("gzip", seed);
    s.cfg.machine = mop::sim::Machine::MopWiredOr;
    s.cfg.iqEntries = 32;
    s.insts = 20000;
    return s;
}

TEST(Digest, StableAcrossRunsAndTracing)
{
    SimOutcome a = simulate(smallSpec(3));
    SimOutcome b = simulate(smallSpec(3));
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.res.insts, 20000u);

    HotStat step, next;
    SpanRecorder spans;
    SimProbe probe;
    probe.step = &step;
    probe.next = &next;
    probe.spans = &spans;
    SimOutcome t = simulate(smallSpec(3), &probe);
    EXPECT_EQ(t.digest, a.digest);
    EXPECT_EQ(t.res.cycles, a.res.cycles);
    EXPECT_GT(step.count(), 0u);
    EXPECT_LE(step.count(), a.res.cycles);
    EXPECT_GE(next.count(), a.res.uops);
    EXPECT_EQ(spans.durations("pipeline.construct").size(), 1u);

    EXPECT_NE(simulate(smallSpec(4)).digest, a.digest);
}

TEST(Digest, SeededProfilesDifferPerBenchAndSeed)
{
    EXPECT_EQ(seededProfile("mcf", 5).seed, seededProfile("mcf", 5).seed);
    EXPECT_NE(seededProfile("mcf", 5).seed, seededProfile("mcf", 6).seed);
    EXPECT_NE(seededProfile("mcf", 5).seed, seededProfile("gzip", 5).seed);
}

} // namespace
