/**
 * @file
 * Unit tests for the critical-path trace analysis (obs/critpath) and
 * the live sweep telemetry sink (obs/telemetry).
 *
 * The critical-path tests run on handcrafted CycleEvent vectors with
 * lifecycles small enough to charge by eye, plus a seeded fuzz stream
 * for the complete-decomposition invariant sum(causeCycles) == cycles.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critpath.hh"
#include "obs/telemetry.hh"
#include "trace/trace_file.hh"
#include "test_util.hh"

namespace
{

using namespace mop;
using trace::CycleEvent;

using mop::test::tmpPath;

CycleEvent
uop(uint64_t seq, uint64_t fetch, uint64_t queueReady, uint64_t insert,
    uint64_t ready, uint64_t issue, uint64_t execStart, uint64_t complete,
    uint64_t commit, uint8_t flags = CycleEvent::kFlagFirstUop,
    uint64_t dep0 = CycleEvent::kNone, uint64_t dep1 = CycleEvent::kNone)
{
    CycleEvent ev;
    ev.kind = CycleEvent::Kind::Uop;
    ev.seq = seq;
    ev.fetch = fetch;
    ev.queueReady = queueReady;
    ev.insert = insert;
    ev.ready = ready;
    ev.issue = issue;
    ev.execStart = execStart;
    ev.complete = complete;
    ev.commit = commit;
    ev.flags = flags;
    ev.dep = {dep0, dep1};
    return ev;
}

uint64_t
causeSum(const obs::CritPathReport &r)
{
    return std::accumulate(r.causeCycles.begin(), r.causeCycles.end(),
                           uint64_t(0));
}

// ---------------------------------------------------------------------
// Critical-path composition.
// ---------------------------------------------------------------------

TEST(CritPath, SingleUopChargesEverySegment)
{
    // One µop whose lifecycle visits every segment; its commit gap is
    // the whole run, so each segment's length lands on its cause.
    std::vector<CycleEvent> evs = {
        uop(/*seq*/ 0, /*fetch*/ 0, /*queueReady*/ 3, /*insert*/ 5,
            /*ready*/ 9, /*issue*/ 11, /*execStart*/ 12, /*complete*/ 15,
            /*commit*/ 18),
    };
    // Counter records must be ignored by the pass.
    CycleEvent ctr;
    ctr.kind = CycleEvent::Kind::Counter;
    ctr.insert = 4;
    evs.push_back(ctr);

    auto r = obs::analyzeCritPath(evs);
    EXPECT_EQ(r.uops, 1u);
    EXPECT_EQ(r.insts, 1u);
    EXPECT_EQ(r.cycles, 18u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::Frontend)], 3u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::Capacity)], 2u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::WakeupWait)], 4u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::SelectLoss)], 2u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::Dispatch)], 1u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::ChainLatency)], 3u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::CommitWait)], 3u);
    EXPECT_EQ(causeSum(r), r.cycles);
    EXPECT_EQ(r.dominant(), obs::CritCause::WakeupWait);
    EXPECT_EQ(r.dominantStall(), obs::CritCause::WakeupWait);
    // No dependence edges: the 2-cycle loop costs nothing.
    EXPECT_EQ(r.depEdges, 0u);
    EXPECT_EQ(r.whatIfTwoCycleCycles, r.cycles);
}

TEST(CritPath, ReplayedUopBillsReplayNotSelectLoss)
{
    std::vector<CycleEvent> evs = {
        uop(0, 0, 0, 0, 9, 11, 12, 15, 18,
            CycleEvent::kFlagFirstUop | CycleEvent::kFlagReplayed),
    };
    auto r = obs::analyzeCritPath(evs);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::Replay)], 2u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::SelectLoss)], 0u);
    EXPECT_EQ(causeSum(r), r.cycles);
}

TEST(CritPath, MissExecSplitsIntoHitPrefixAndMissExcess)
{
    // A hitting load establishes the DL1-hit service time (2 cycles);
    // the missing load's 12-cycle execution then splits into 2 cycles
    // of chain latency and 10 of dcache-miss excess.
    std::vector<CycleEvent> evs = {
        uop(0, 0, 0, 0, 0, 0, 1, 3, 4,
            CycleEvent::kFlagFirstUop | CycleEvent::kFlagLoad),
        uop(1, 4, 4, 4, 4, 4, 5, 17, 18,
            CycleEvent::kFlagFirstUop | CycleEvent::kFlagLoad |
                CycleEvent::kFlagDl1Miss),
    };
    auto r = obs::analyzeCritPath(evs);
    EXPECT_EQ(r.cycles, 18u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::DcacheMiss)], 10u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::ChainLatency)], 4u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::Dispatch)], 2u);
    EXPECT_EQ(r.causeCycles[size_t(obs::CritCause::CommitWait)], 2u);
    EXPECT_EQ(causeSum(r), r.cycles);
    EXPECT_EQ(r.dominant(), obs::CritCause::DcacheMiss);
    EXPECT_EQ(r.dominantStall(), obs::CritCause::DcacheMiss);
}

TEST(CritPath, CompositionInvariantOnFuzzedStream)
{
    // Seeded LCG stream: whatever shape the lifecycles take, the
    // composition must stay a complete decomposition of the span and
    // the what-if estimate can only add cycles.
    uint64_t state = 12345;
    auto rnd = [&state](uint64_t mod) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return (state >> 33) % mod;
    };
    std::vector<CycleEvent> evs;
    uint64_t prevCommit = 0;
    for (uint64_t i = 0; i < 500; ++i) {
        uint64_t fetch = i;
        uint64_t queueReady = fetch + rnd(3);
        uint64_t insert = queueReady + rnd(3);
        uint64_t ready = insert + rnd(8);
        uint64_t issue = ready + rnd(4);
        uint64_t execStart = issue + 1;
        uint64_t complete = execStart + 1 + rnd(12);
        uint64_t commit = std::max(prevCommit, complete + rnd(4));
        prevCommit = commit;
        uint8_t flags = 0;
        if (rnd(2))
            flags |= CycleEvent::kFlagFirstUop;
        if (rnd(3) == 0)
            flags |= CycleEvent::kFlagGrouped;
        if (rnd(5) == 0)
            flags |= CycleEvent::kFlagReplayed;
        if (rnd(4) == 0) {
            flags |= CycleEvent::kFlagLoad;
            if (rnd(3) == 0)
                flags |= CycleEvent::kFlagDl1Miss;
        }
        uint64_t dep0 = i > 0 && rnd(2) ? rnd(i) : CycleEvent::kNone;
        uint64_t dep1 = i > 1 && rnd(4) == 0 ? rnd(i) : CycleEvent::kNone;
        evs.push_back(uop(i, fetch, queueReady, insert, ready, issue,
                          execStart, complete, commit, flags, dep0, dep1));
        if (rnd(10) == 0) {
            CycleEvent ctr;
            ctr.kind = CycleEvent::Kind::Counter;
            ctr.insert = commit;
            evs.push_back(ctr);
        }
    }
    auto r = obs::analyzeCritPath(evs);
    EXPECT_EQ(r.uops, 500u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(causeSum(r), r.cycles);
    EXPECT_GE(r.whatIfTwoCycleCycles, r.cycles);
    EXPECT_GE(r.depEdges, r.tightEdges);
}

TEST(CritPath, WhatIfStretchesTightChains)
{
    // Four back-to-back dependent µops under a 1-cycle loop: each of
    // the three edges must stretch by one cycle under the 2-cycle
    // loop, and the delays accumulate down the chain.
    std::vector<CycleEvent> chain;
    for (uint64_t i = 0; i < 4; ++i) {
        chain.push_back(uop(i, 0, 0, 0, i, i, i, i + 1, i + 2,
                            CycleEvent::kFlagFirstUop,
                            i > 0 ? i - 1 : CycleEvent::kNone));
    }
    auto r = obs::analyzeCritPath(chain);
    EXPECT_EQ(r.cycles, 5u);
    EXPECT_EQ(r.depEdges, 3u);
    EXPECT_EQ(r.tightEdges, 3u);
    EXPECT_EQ(r.whatIfTwoCycleCycles, 8u);  // +1 per chained edge
    EXPECT_EQ(causeSum(r), r.cycles);

    // The same chain already spaced two cycles apart pays nothing.
    std::vector<CycleEvent> relaxed;
    for (uint64_t i = 0; i < 4; ++i) {
        relaxed.push_back(uop(i, 0, 0, 0, 2 * i, 2 * i, 2 * i, 2 * i + 1,
                              2 * i + 2, CycleEvent::kFlagFirstUop,
                              i > 0 ? i - 1 : CycleEvent::kNone));
    }
    r = obs::analyzeCritPath(relaxed);
    EXPECT_EQ(r.depEdges, 3u);
    EXPECT_EQ(r.tightEdges, 0u);
    EXPECT_EQ(r.whatIfTwoCycleCycles, r.cycles);
}

TEST(CritPath, WhatIfPropagatesDelayThroughMispredictRedirect)
{
    // A mispredicted branch delayed by the 2-cycle loop resolves
    // later, so µops fetched at/after its redirect inherit the delay
    // even without a data dependence on it.
    auto mk = [](uint64_t u2fetch) {
        std::vector<CycleEvent> evs = {
            uop(0, 0, 0, 0, 0, 0, 0, 1, 2),
            uop(1, 0, 0, 0, 1, 1, 1, 3, 4,
                CycleEvent::kFlagFirstUop | CycleEvent::kFlagMispredict,
                /*dep0*/ 0),
            uop(2, u2fetch, u2fetch, u2fetch, 6, 6, 6, 7, 8),
        };
        return obs::analyzeCritPath(evs);
    };
    // Fetched after the redirect (branch completes at 3): inherits the
    // branch's one-cycle delay on top of its own commit.
    auto after = mk(5);
    EXPECT_EQ(after.cycles, 8u);
    EXPECT_EQ(after.whatIfTwoCycleCycles, 9u);
    // Fetched before the redirect: independent of the branch, no
    // inherited delay, and the delayed branch path (4+1) is not the
    // worst finish.
    auto before = mk(2);
    EXPECT_EQ(before.whatIfTwoCycleCycles, before.cycles);
}

TEST(CritPath, EmptyTraceYieldsEmptyReport)
{
    auto r = obs::analyzeCritPath({});
    EXPECT_EQ(r.uops, 0u);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(causeSum(r), 0u);
}

// ---------------------------------------------------------------------
// Timeline / phase segmentation.
// ---------------------------------------------------------------------

TEST(Timeline, BucketsByCommitAndSegmentsPhases)
{
    // Two regimes: ~0.8 IPC for twenty cycles, then ~0.1 IPC. With a
    // 10-cycle interval that is two intervals per regime and the phase
    // segmentation must put the boundary between them.
    std::vector<CycleEvent> evs;
    uint64_t seq = 0;
    auto commitAt = [&](uint64_t commit, uint8_t extra = 0) {
        evs.push_back(uop(seq, 0, 0, 0, 0, 0, 0, commit, commit,
                          uint8_t(CycleEvent::kFlagFirstUop | extra)));
        ++seq;
    };
    for (uint64_t c = 1; c <= 8; ++c)
        commitAt(c, c <= 4 ? CycleEvent::kFlagGrouped : 0);
    for (uint64_t c = 11; c <= 18; ++c)
        commitAt(c);
    commitAt(25, CycleEvent::kFlagReplayed);
    commitAt(35);

    auto t = obs::analyzeTimeline(evs, 10);
    EXPECT_EQ(t.intervalCycles, 10u);
    ASSERT_EQ(t.intervals.size(), 4u);
    EXPECT_DOUBLE_EQ(t.intervals[0].ipc, 0.8);
    EXPECT_DOUBLE_EQ(t.intervals[1].ipc, 0.8);
    EXPECT_DOUBLE_EQ(t.intervals[2].ipc, 0.1);
    EXPECT_DOUBLE_EQ(t.intervals[3].ipc, 0.1);
    EXPECT_DOUBLE_EQ(t.intervals[0].mopCoverage, 0.5);
    EXPECT_DOUBLE_EQ(t.intervals[2].replayRate, 1.0);

    ASSERT_EQ(t.phases.size(), 2u);
    EXPECT_EQ(t.phases[0].firstInterval, 0u);
    EXPECT_EQ(t.phases[0].lastInterval, 1u);
    EXPECT_EQ(t.phases[1].firstInterval, 2u);
    EXPECT_EQ(t.phases[1].lastInterval, 3u);
    EXPECT_DOUBLE_EQ(t.phases[0].meanIpc, 0.8);
    EXPECT_DOUBLE_EQ(t.phases[1].meanIpc, 0.1);
    // Every committed µop lands in exactly one interval.
    uint64_t total = 0;
    for (const auto &iv : t.intervals)
        total += iv.uops;
    EXPECT_EQ(total, evs.size());
}

TEST(Timeline, AutoIntervalCoversSpan)
{
    std::vector<CycleEvent> evs;
    for (uint64_t i = 0; i < 300; ++i)
        evs.push_back(uop(i, 0, 0, 0, 0, 0, 0, 10 * i, 10 * i));
    auto t = obs::analyzeTimeline(evs);
    ASSERT_GT(t.intervals.size(), 0u);
    EXPECT_LE(t.intervals.size(), 65u);
    EXPECT_GE(t.intervalCycles, 16u);
    EXPECT_EQ(t.intervals.front().startCycle, 0u);
    EXPECT_GE(t.intervals.back().endCycle, 2990u);
}

// ---------------------------------------------------------------------
// Trace summary.
// ---------------------------------------------------------------------

TEST(TraceSummary, AggregatesUopsAndCounters)
{
    std::vector<CycleEvent> evs = {
        uop(0, 0, 0, 0, 0, 0, 0, 1, 2),
        uop(1, 1, 1, 1, 1, 1, 1, 2, 3, CycleEvent::kFlagGrouped),
        uop(2, 2, 2, 2, 2, 2, 2, 3, 10,
            CycleEvent::kFlagFirstUop | CycleEvent::kFlagLoad |
                CycleEvent::kFlagDl1Miss),
        uop(3, 3, 3, 3, 3, 3, 3, 4, 20,
            CycleEvent::kFlagGrouped | CycleEvent::kFlagReplayed),
    };
    CycleEvent c1, c2;
    c1.kind = c2.kind = CycleEvent::Kind::Counter;
    c1.issue = 10;   // IQ occupancy sample
    c1.execStart = 20;
    c2.issue = 20;
    c2.execStart = 40;
    evs.push_back(c1);
    evs.push_back(c2);

    auto s = obs::summarizeTrace(evs);
    EXPECT_EQ(s.events, 6u);
    EXPECT_EQ(s.uops, 4u);
    EXPECT_EQ(s.counters, 2u);
    EXPECT_EQ(s.insts, 2u);
    EXPECT_EQ(s.cycles, 20u);
    EXPECT_DOUBLE_EQ(s.ipc, 0.1);
    EXPECT_DOUBLE_EQ(s.mopCoverage, 0.5);
    EXPECT_DOUBLE_EQ(s.replayRate, 0.25);
    EXPECT_EQ(s.loads, 1u);
    EXPECT_EQ(s.dl1Misses, 1u);
    EXPECT_DOUBLE_EQ(s.avgIqOcc, 15.0);
    EXPECT_DOUBLE_EQ(s.avgRobOcc, 30.0);

    std::ostringstream os;
    obs::printSummary(os, s);
    EXPECT_NE(os.str().find("mop coverage"), std::string::npos);
    EXPECT_NE(os.str().find("0.5000"), std::string::npos);
}

// ---------------------------------------------------------------------
// Telemetry sink.
// ---------------------------------------------------------------------

TEST(Telemetry, SnapshotDerivesQueueAndEta)
{
    obs::TelemetrySink sink({}, 2);
    sink.beginBatch(10, 4);
    sink.onRunCompleted(2.0, 500);
    sink.onRunCompleted(4.0, 700);
    auto s = sink.snapshot();
    EXPECT_EQ(s.totalRuns, 10u);
    EXPECT_EQ(s.completedRuns, 2u);
    EXPECT_EQ(s.cacheHits, 4u);
    EXPECT_EQ(s.queuedRuns, 4u);
    EXPECT_EQ(s.simulatedInsts, 1200u);
    EXPECT_EQ(s.workers, 2);
    EXPECT_DOUBLE_EQ(s.busySeconds, 6.0);
    // eta = queued * mean-run / workers = 4 * 3s / 2.
    EXPECT_DOUBLE_EQ(s.etaSeconds, 6.0);
    EXPECT_LE(s.utilization, 1.0);
    EXPECT_GE(s.utilization, 0.0);
}

TEST(Telemetry, PrometheusRenderIsStable)
{
    obs::TelemetrySink::Snapshot s;
    s.totalRuns = 12;
    s.completedRuns = 3;
    s.cacheHits = 2;
    s.queuedRuns = 7;
    s.simulatedInsts = 60000;
    s.workers = 4;
    s.elapsedSeconds = 1.5;
    s.busySeconds = 3.0;
    s.utilization = 0.5;
    s.etaSeconds = 10.5;
    std::string text = obs::renderPrometheus(s);
    EXPECT_NE(text.find("mop_sweep_runs_total 12\n"), std::string::npos);
    EXPECT_NE(text.find("mop_sweep_runs_completed 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("mop_sweep_runs_cached 2\n"), std::string::npos);
    EXPECT_NE(text.find("mop_sweep_runs_queued 7\n"), std::string::npos);
    EXPECT_NE(text.find("mop_sweep_worker_utilization 0.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("mop_sweep_simulated_insts_total 60000\n"),
              std::string::npos);
    // Exposition format: every gauge carries HELP and TYPE lines.
    EXPECT_NE(text.find("# HELP mop_sweep_eta_seconds"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE mop_sweep_eta_seconds gauge"),
              std::string::npos);
}

TEST(Telemetry, ProgressLineFormats)
{
    obs::TelemetrySink::Snapshot s;
    s.totalRuns = 10;
    s.completedRuns = 3;
    s.cacheHits = 2;
    s.queuedRuns = 5;
    s.workers = 4;
    s.utilization = 0.5;
    s.etaSeconds = 7.2;
    EXPECT_EQ(obs::renderProgressLine(s),
              "runs 5/10 (2 cached, 5 queued) | workers 4 @  50% | "
              "eta 8s");
    // Drained queue: no eta segment.
    s.queuedRuns = 0;
    s.completedRuns = 8;
    s.etaSeconds = 0;
    EXPECT_EQ(obs::renderProgressLine(s),
              "runs 10/10 (2 cached, 0 queued) | workers 4 @  50%");
}

TEST(Telemetry, FlushWritesAtomicallyAndRateLimits)
{
    std::string path = tmpPath("telemetry.prom");
    obs::TelemetrySink sink(path, 1);
    sink.beginBatch(2, 0);
    sink.onRunCompleted(1.0, 100);
    sink.flush();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("mop_sweep_runs_total 2\n"),
              std::string::npos);
    // The temp file must not linger after the rename.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());

    // A flush just happened: a long-interval maybeFlush must not
    // rewrite the file...
    std::remove(path.c_str());
    sink.maybeFlush(3600.0);
    EXPECT_FALSE(std::ifstream(path).good());
    // ...but a zero-interval one must.
    sink.maybeFlush(0.0);
    EXPECT_TRUE(std::ifstream(path).good());
    std::remove(path.c_str());
}

TEST(Telemetry, PathlessSinkAggregatesWithoutIo)
{
    obs::TelemetrySink sink;
    sink.beginBatch(1, 0);
    sink.onRunCompleted(0.5, 10);
    EXPECT_NO_THROW(sink.flush());
    EXPECT_NO_THROW(sink.maybeFlush(0.0));
    EXPECT_FALSE(sink.progressLine().empty());
}

TEST(Telemetry, BatchLabelIsEscapedPerTextFormat)
{
    // Label values get the text-format escapes: backslash,
    // double-quote and newline. A figure selection can contain any of
    // them (e.g. a quoted title pasted into --only by a wrapper).
    EXPECT_EQ(obs::promEscapeLabelValue("plain"), "plain");
    EXPECT_EQ(obs::promEscapeLabelValue("a\\b\"c\nd"),
              "a\\\\b\\\"c\\nd");

    obs::TelemetrySink::Snapshot s;
    s.batch = "fig\\14 \"IQ=32\"\nrest";
    s.totalRuns = 2;
    std::string text = obs::renderPrometheus(s);
    EXPECT_NE(
        text.find("mop_sweep_runs_total"
                  "{batch=\"fig\\\\14 \\\"IQ=32\\\"\\nrest\"} 2\n"),
        std::string::npos);
    // No raw newline may survive inside a series line.
    for (size_t p = text.find('\n'); p != std::string::npos;
         p = text.find('\n', p + 1)) {
        if (p + 1 < text.size()) {
            EXPECT_TRUE(text[p + 1] == '#' ||
                        text.compare(p + 1, 4, "mop_") == 0)
                << "series line broken at offset " << p;
        }
    }

    // And the label rides on every series, counters included.
    EXPECT_NE(text.find("mop_sweep_retries_total{batch="),
              std::string::npos);

    // Empty label: the exact label-less lines of old.
    s.batch.clear();
    std::string bare = obs::renderPrometheus(s);
    EXPECT_NE(bare.find("mop_sweep_runs_total 2\n"), std::string::npos);
    EXPECT_EQ(bare.find('{'), std::string::npos);
}

TEST(Telemetry, SinkLabelFlowsIntoSnapshotAndFile)
{
    std::string path = tmpPath("telemetry_label.prom");
    obs::TelemetrySink sink(path, 1);
    sink.setBatchLabel("fig14,tbl3");
    sink.beginBatch(3, 1);
    EXPECT_EQ(sink.snapshot().batch, "fig14,tbl3");
    sink.flush();
    std::stringstream ss;
    ss << std::ifstream(path).rdbuf();
    EXPECT_NE(ss.str().find("{batch=\"fig14,tbl3\"}"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Telemetry, FlushShortWriteCleansUpAndThrows)
{
    std::string path = tmpPath("telemetry_short.prom");
    obs::TelemetrySink sink(path, 1);
    sink.beginBatch(2, 0);
    sink.flush();  // publish a good snapshot first

    std::stringstream before;
    before << std::ifstream(path).rdbuf();
    ASSERT_FALSE(before.str().empty());

    // An injected short write must throw, remove the temp file, and
    // leave the previously published snapshot untouched.
    obs::injectTelemetryShortWriteForTest(true);
    EXPECT_THROW(sink.flush(), std::runtime_error);
    obs::injectTelemetryShortWriteForTest(false);

    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::stringstream after;
    after << std::ifstream(path).rdbuf();
    EXPECT_EQ(before.str(), after.str());

    // The sink still works once the failure clears.
    sink.onRunCompleted(1.0, 50);
    EXPECT_NO_THROW(sink.flush());
    std::remove(path.c_str());
}

} // namespace
