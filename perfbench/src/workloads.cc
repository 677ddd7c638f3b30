#include "workloads.hh"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "analysis/characterize.hh"
#include "figures/figures.hh"
#include "obs/critpath.hh"
#include "obs/render.hh"
#include "replay.hh"
#include "sweep/fingerprint.hh"
#include "sweep/result_cache.hh"
#include "sweep/suite.hh"
#include "trace/profiles.hh"
#include "trace/trace_file.hh"

namespace mopbench
{

namespace fs = std::filesystem;
using namespace mop;

namespace
{

// Run lengths. mop-steady runs are long enough that the scheduler's
// tag-indexed arrays grow (peak RSS rises ~15 B/inst); figure-sweep runs
// are short, so per-run set-up dominates.
constexpr uint64_t kSteadyInsts = 400'000;
/** Event-trace captures of the obs layer's traced measurement. */
constexpr uint64_t kCaptureInsts = 50'000;
constexpr uint64_t kSweepInsts = 10'000;
/** Table 2 accuracy runs (shipped profile seeds, base machine). */
constexpr uint64_t kIpcInsts = 200'000;
/** µops of each stream replayed through the single layers. */
constexpr uint64_t kReplayUops = 200'000;
/** Untraced runs time at least this many rounds. */
constexpr int kMinRounds = 3;

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Times every next() into a HotStat (the trace layer's hot call). */
class TimedSource : public trace::TraceSource
{
  public:
    TimedSource(trace::TraceSource &inner, HotStat &stat,
                SpanRecorder *spans)
        : inner_(inner), stat_(stat), spans_(spans)
    {
    }

    bool
    next(isa::MicroOp &out) override
    {
        double t0 = nowSec();
        bool ok = inner_.next(out);
        double s = nowSec() - t0;
        stat_.add(s * 1e9);
        if (spans_)
            spans_->addHotChild(s);
        return ok;
    }

    void reset() override { inner_.reset(); }

  private:
    trace::TraceSource &inner_;
    HotStat &stat_;
    SpanRecorder *spans_;
};

/** Timestamps every line written to it (runSuite's progress lines). */
class LineClock : public std::streambuf
{
  public:
    struct Line
    {
        double at;
        std::string text;
    };
    std::vector<Line> lines;

  protected:
    int
    overflow(int c) override
    {
        if (c == traits_type::eof())
            return traits_type::not_eof(c);
        if (c == '\n') {
            lines.push_back({nowSec(), cur_});
            cur_.clear();
        } else {
            cur_ += char(c);
        }
        return c;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            overflow(static_cast<unsigned char>(s[i]));
        return n;
    }

  private:
    std::string cur_;
};

/** Points std::cerr at @p buf for its lifetime. */
class CerrTo
{
  public:
    explicit CerrTo(std::streambuf *buf) : old_(std::cerr.rdbuf(buf)) {}
    ~CerrTo() { std::cerr.rdbuf(old_); }
    CerrTo(const CerrTo &) = delete;
    CerrTo &operator=(const CerrTo &) = delete;

  private:
    std::streambuf *old_;
};

/** What one round of a workload measured. */
struct Round
{
    double wallS = 0;
    double simS = 0;       ///< host time of the simulations
    uint64_t insts = 0;    ///< committed instructions simulated
    std::vector<double> runMs;   ///< per simulation
    std::vector<double> setupS;  ///< per set-up
    uint64_t digest = 0xcbf29ce484222325ULL;
};

/** Everything one benchmark run accumulates. */
struct State
{
    explicit State(const Options &o) : opt(o) {}

    const Options &opt;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> notes;

    // Tracing (null/unused when opt.trace is off).
    SpanRecorder spanStore;
    SpanRecorder *spans = nullptr;
    HotStat step, next;
    std::vector<SimOutcome> traced;   ///< instrumented simulations
    std::vector<double> rssSlopes;    ///< bytes per committed inst

    // figure-sweep only.
    std::vector<double> planS, renderS, warmS;

    /** Run @p f as @p ops operations; any exception fails them all. */
    template <typename F>
    bool
    attempt(uint64_t ops, const std::string &what, F &&f)
    {
        attempted += ops;
        try {
            f();
            return true;
        } catch (const std::exception &e) {
            failed += ops;
            notes.push_back("FAILED " + what + ": " + e.what());
            return false;
        }
    }

    /** A correctness check on an operation already counted. */
    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed;
        notes.push_back("FAILED check: " + what);
    }

    std::string
    path(const std::string &name) const
    {
        return (fs::path(opt.scratch) / name).string();
    }
};

SimSpec
makeSpec(const std::string &bench, const trace::WorkloadProfile &prof,
         sim::Machine m, int iq, uint64_t insts)
{
    SimSpec s;
    s.bench = bench;
    s.profile = prof;
    s.cfg.machine = m;
    s.cfg.iqEntries = iq;
    s.insts = insts;
    return s;
}

/** The simulations of a long-run workload, or the per-layer probe
 *  runs of figure-sweep (its real runs happen inside runSuite): every
 *  profile at its shipped seed, cycling through the six machines. */
std::vector<SimSpec>
workloadSpecs(const std::string &w, uint64_t seed)
{
    std::vector<SimSpec> specs;
    // Each seeded workload runs several programs per benchmark: one
    // seed's synthetic program can run at 1.5x the speed of another's,
    // so a round averages over several to make runs with different
    // seeds comparable.
    auto seeded = [&](const char *b, sim::Machine m, int iq,
                      uint64_t insts, int programs) {
        for (int v = 0; v < programs; ++v)
            specs.push_back(
                makeSpec(b, seededProfile(b, seed, v), m, iq, insts));
    };
    if (w == "mop-steady") {
        for (const char *b : {"gzip", "gcc", "vortex"})
            seeded(b, sim::Machine::MopWiredOr, 128, kSteadyInsts, 6);
    } else if (w == "figure-sweep") {
        const auto &benches = trace::specCint2000();
        for (size_t i = 0; i < benches.size(); ++i)
            specs.push_back(makeSpec(benches[i],
                                     trace::profileFor(benches[i]),
                                     sim::Machine(i % 6), 32,
                                     kSweepInsts));
    } else {
        throw std::invalid_argument("unknown workload '" + w + "'");
    }
    return specs;
}

/** Record an instrumented simulation's per-layer observations. */
void
noteTraced(State &st, const SimOutcome &o, const SimProbe &p)
{
    st.traced.push_back(o);
    if (p.instsEnd > p.instsQuarter && p.rssEnd && p.rssQuarter)
        st.rssSlopes.push_back((double(p.rssEnd) - double(p.rssQuarter)) /
                               double(p.instsEnd - p.instsQuarter));
}

SimProbe
probeFor(State &st)
{
    SimProbe p;
    p.step = &st.step;
    p.next = &st.next;
    p.spans = st.spans;
    return p;
}

// --- long runs (mop-steady) -----------------------------------------------

Round
longRound(State &st, const std::vector<SimSpec> &specs, bool instrument)
{
    Round r;
    double t0 = nowSec();
    for (const SimSpec &spec : specs) {
        st.attempt(1, "simulate " + spec.bench, [&] {
            if (instrument)
                malloc_trim(0);  // clean RSS baseline for the slope
            SimProbe probe = probeFor(st);
            SimOutcome o = simulate(spec, instrument ? &probe : nullptr);
            r.simS += o.totalS;
            r.insts += o.res.insts;
            r.runMs.push_back(o.totalS * 1e3);
            r.setupS.push_back(o.setupS);
            r.digest = fnv1a(hex64(o.digest), r.digest);
            if (instrument)
                noteTraced(st, o, probe);
        });
    }
    r.wallS = nowSec() - t0;
    return r;
}

// --- event-trace captures (obs layer) -------------------------------------

/** What one captured trace measured. */
struct Capture
{
    double simS = 0;
    double bytes = 0;
    uint64_t uops = 0;
};

/** Simulate @p base with a binary event trace, read it back, run the
 *  critical-path analysis and render a bounded window. */
Capture
captureRun(State &st, const SimSpec &base, int k)
{
    Capture c;
    SimSpec spec = base;
    std::string file = st.path("capture-" + std::to_string(k) + ".evt");
    spec.cfg.obs.enabled = true;
    spec.cfg.obs.traceOut = file;
    st.attempt(1, "capture " + spec.bench, [&] {
        SimOutcome o;
        {
            SpanRecorder::Scope s(st.spans, "obs.capture");
            o = simulate(spec);
        }
        const pipeline::SimResult &res = o.res;
        uint64_t slots = 0;
        for (uint64_t v : res.stallSlots)
            slots += v;
        st.check(res.stallWidth > 0 &&
                     slots == uint64_t(res.stallWidth) * res.cycles,
                 "stall slots sum to width x cycles");
        c.simS = o.totalS;
        c.bytes = double(fs::file_size(file));
        c.uops = res.uops;

        std::vector<trace::CycleEvent> events;
        {
            SpanRecorder::Scope s(st.spans, "obs.read");
            events = trace::readEventTrace(file);
        }
        obs::CritPathReport cp;
        {
            SpanRecorder::Scope s(st.spans, "obs.critpath");
            cp = obs::analyzeCritPath(events);
        }
        uint64_t causeSum = 0;
        for (uint64_t v : cp.causeCycles)
            causeSum += v;
        st.check(cp.uops == res.uops && causeSum == cp.cycles,
                 "critical path covers every µop and every cycle");
        size_t htmlBytes = 0, rows = 0;
        {
            SpanRecorder::Scope s(st.spans, "obs.render");
            obs::RenderOptions ro;
            ro.windowLo = cp.firstFetch + cp.cycles / 2;
            ro.windowHi = ro.windowLo + 2000;
            ro.maxInsts = 500;
            ro.critpath = true;
            obs::RenderModel m = obs::buildRenderModel(events, ro);
            htmlBytes = obs::renderWaterfallHtml(m).size();
            rows = m.rows.size();
        }
        st.check(rows > 0 && htmlBytes > 0, "rendered window has rows");
    });
    std::error_code ec;
    fs::remove(file, ec);
    return c;
}

// --- figure-sweep ----------------------------------------------------------

/** Timings runSuite's progress lines give away. */
struct SuiteTimes
{
    bool ok = false;
    double setupS = 0;   ///< call -> plan pass and cache lookups done
    double renderS = 0;  ///< last job done -> "done in" line
    std::vector<double> jobMs;
    uint64_t uniqueRuns = 0;
};

SuiteTimes
parseSuiteLines(const std::vector<LineClock::Line> &lines, double start)
{
    SuiteTimes t;
    double planEnd = -1, last = -1;
    for (const auto &l : lines) {
        if (planEnd < 0 && l.text.find("to compute") != std::string::npos) {
            planEnd = last = l.at;
            unsigned long long figs = 0, uniq = 0;
            if (std::sscanf(l.text.c_str(),
                            "[sweep] %llu figure(s), %llu unique", &figs,
                            &uniq) == 2)
                t.uniqueRuns = uniq;
        } else if (planEnd >= 0 &&
                   l.text.find("runs done") != std::string::npos) {
            t.jobMs.push_back((l.at - last) * 1e3);
            last = l.at;
        } else if (planEnd >= 0 && l.text.rfind("[sweep] done in", 0) == 0) {
            t.setupS = planEnd - start;
            t.renderS = l.at - last;
            t.ok = t.uniqueRuns > 0;
        }
    }
    return t;
}

/** Simulated instructions of every Sim record in @p dir. */
uint64_t
cachedInsts(const std::string &dir)
{
    uint64_t insts = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() != ".res")
            continue;
        std::ifstream f(e.path(), std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
        sweep::CacheRecord rec;
        pipeline::SimResult r;
        if (sweep::decodeRecord(bytes, rec) != sweep::RecordStatus::Corrupt &&
            sweep::unpackSimResult(rec, r))
            insts += r.insts;
    }
    return insts;
}

/** Mean |IPC - paper| / paper of Table 2's 32-entry base IPCs, as the
 *  sweep cached them in @p dir. */
double
sweepIpcError(State &st, const std::string &dir)
{
    sweep::ResultCache cache(dir);
    double err = 0;
    size_t n = 0;
    for (const std::string &b : trace::specCint2000()) {
        sim::RunConfig cfg;
        cfg.machine = sim::Machine::Base;
        cfg.iqEntries = 32;
        sweep::CacheRecord rec;
        pipeline::SimResult r;
        if (!cache.load(sweep::fingerprintSim(b, cfg, kSweepInsts), rec) ||
            !sweep::unpackSimResult(rec, r)) {
            st.check(false, "table2 run of " + b + " in the sweep cache");
            continue;
        }
        double ref = sim::paperRef(b).baseIpc32;
        err += std::fabs(r.ipc - ref) / ref;
        ++n;
    }
    return n ? 100.0 * err / double(n) : 0;
}

/**
 * One cold sweep into a fresh, empty cache directory, then a warm
 * sweep from it. One worker, no perf JSON (its in-suite microbench
 * would be billed to the sweep), never the user's cache directory.
 */
Round
sweepRound(State &st, const std::string &dir, uint64_t insts,
           const std::vector<std::string> &only, double *ipc_err)
{
    Round r;
    fs::create_directories(dir);
    if (!fs::is_empty(dir))
        throw std::runtime_error("sweep cache directory " + dir +
                                 " is not empty");
    sweep::SuiteOptions o;
    o.jobs = 1;
    o.only = only;
    o.cacheDir = dir;
    o.useCache = true;
    o.insts = insts;
    o.verbose = true;  // progress lines time the jobs
    o.perfJsonPath.clear();
    o.jsonPath.clear();

    double t0 = nowSec();
    std::ostringstream cold, warm;
    LineClock coldLines, warmLines;
    int coldRc = -1, warmRc = -1;
    double coldEnd = t0, warmStart = t0;
    bool ok = st.attempt(1, "cold sweep", [&] {
        CerrTo redirect(&coldLines);
        coldRc = sweep::runSuite(o, cold);
        coldEnd = nowSec();
    });
    SuiteTimes ct = parseSuiteLines(coldLines.lines, t0);
    // The cold sweep's jobs count as operations of their own.
    st.attempted += ct.uniqueRuns;
    if (ok) {
        st.check(coldRc == 0, "cold sweep exit code " +
                                  std::to_string(coldRc));
        st.check(ct.ok, "cold sweep progress lines");
        ok = st.attempt(1, "warm sweep", [&] {
            warmStart = nowSec();
            SpanRecorder::Scope s(st.spans, "sweep.warm");
            CerrTo redirect(&warmLines);
            warmRc = sweep::runSuite(o, warm);
        });
    }
    double t1 = nowSec();
    if (ok) {
        st.check(warmRc == 0, "warm sweep exit code " +
                                  std::to_string(warmRc));
        st.check(warm.str() == cold.str(),
                 "warm sweep text byte-identical to cold");
        st.check(!cold.str().empty(), "sweep printed its tables");
    }
    if (ok && ct.ok) {
        if (st.spans) {
            int id = st.spans->record("sweep.cold", t0, coldEnd);
            st.spans->record("sweep.plan", t0, t0 + ct.setupS, id);
            st.spans->record("sweep.render", coldEnd - ct.renderS, coldEnd,
                             id);
        }
        st.planS.push_back(ct.setupS);
        st.renderS.push_back(ct.renderS);
        st.warmS.push_back(t1 - warmStart);
        r.runMs = ct.jobMs;
        r.setupS.push_back(ct.setupS);
        r.simS = coldEnd - t0;
        r.insts = cachedInsts(dir);
        r.digest = fnv1a(cold.str(), r.digest);
        if (ipc_err)
            *ipc_err = sweepIpcError(st, dir);
    }
    r.wallS = t1 - t0;
    std::error_code ec;
    fs::remove_all(dir, ec);
    return r;
}

// --- per-layer measurements --------------------------------------------------

double
safeDiv(double a, double b)
{
    return b != 0 ? a / b : 0;
}

/** The stream @p spec feeds its core, first @p n µops. */
std::vector<isa::MicroOp>
streamOf(const SimSpec &spec, uint64_t n)
{
    trace::SyntheticSource src(spec.profile);
    std::vector<isa::MicroOp> uops;
    uops.reserve(n);
    isa::MicroOp u;
    while (uops.size() < n && src.next(u))
        uops.push_back(u);
    return uops;
}

/** Cycle skipping off against on: the share of host time it saves. */
double
skipGain(State &st, const SimSpec &base)
{
    SimSpec spec = base;
    spec.cfg.obs = {};
    spec.insts = std::min<uint64_t>(spec.insts, kIpcInsts);
    std::vector<double> on, off;
    std::set<uint64_t> cycles;
    for (int i = 0; i < 3; ++i) {
        for (bool skip : {i % 2 == 0, i % 2 != 0}) {
            st.attempt(1, "skip-gain run", [&] {
                spec.cycleSkip = skip;
                SimOutcome o = simulate(spec);
                (skip ? on : off).push_back(o.totalS - o.setupS);
                cycles.insert(o.res.cycles);
            });
        }
    }
    st.check(cycles.size() == 1,
             "cycle skipping leaves the simulated cycle count unchanged");
    double noskip = median(off);
    return safeDiv(noskip - median(on), noskip);
}

void
addSweepLayer(State &st, Result &res)
{
    // Fingerprints and cache records of the runs this workload made.
    std::vector<SimSpec> specs = workloadSpecs(st.opt.workload, st.opt.seed);
    double fpS = 0;
    uint64_t fpN = 0;
    while (fpS < 0.05) {
        double t0 = nowSec();
        for (const SimSpec &s : specs)  // the sum keeps the hashes live
            fpN += sweep::fingerprintSim(s.bench, s.cfg, s.insts).lo != 0;
        fpS += nowSec() - t0;
    }
    // fingerprintSim keys by benchmark name, so programs of one
    // benchmark share a key: keep one record per key.
    std::map<sweep::Fingerprint, sweep::CacheRecord> recs;
    for (size_t i = 0; i < specs.size() && i < st.traced.size(); ++i)
        recs.emplace(sweep::fingerprintSim(specs[i].bench, specs[i].cfg,
                                           specs[i].insts),
                     sweep::packSimResult(st.traced[i].res));
    double storeS = 0, loadS = 0;
    uint64_t storeN = 0, loadN = 0;
    st.attempt(1, "cache store/load", [&] {
        sweep::ResultCache cache(st.path("layer-cache"));
        while (!recs.empty() && storeN < 200) {
            double t0 = nowSec();
            for (const auto &[fp, rec] : recs)
                cache.store(fp, rec);
            double t1 = nowSec();
            for (const auto &[fp, rec] : recs) {
                sweep::CacheRecord back;
                st.check(cache.load(fp, back) &&
                             back.fields == rec.fields,
                         "cache record round trip");
            }
            storeS += t1 - t0;
            loadS += nowSec() - t1;
            storeN += recs.size();
            loadN += recs.size();
        }
        std::error_code ec;
        fs::remove_all(st.path("layer-cache"), ec);
    });
    res.metrics.push_back({"sweep.plan_ms", median(st.planS) * 1e3, "ms"});
    res.metrics.push_back(
        {"sweep.fingerprint_us", safeDiv(fpS * 1e6, double(fpN)), "us"});
    res.metrics.push_back({"sweep.cache_store_us",
                           safeDiv(storeS * 1e6, double(storeN)), "us"});
    res.metrics.push_back({"sweep.cache_load_us",
                           safeDiv(loadS * 1e6, double(loadN)), "us"});
    res.metrics.push_back(
        {"sweep.render_ms", median(st.renderS) * 1e3, "ms"});
    res.metrics.push_back({"sweep.warm_s", median(st.warmS), "s"});
}

void
addAnalysisLayer(State &st, const std::vector<SimSpec> &specs,
                 Result &res)
{
    std::set<std::string> seen;
    for (const SimSpec &s : specs) {
        if (!seen.insert(s.bench).second)
            continue;
        uint64_t n = std::min<uint64_t>(s.insts, kReplayUops);
        st.attempt(3, "characterize " + s.bench, [&] {
            {
                trace::SyntheticSource src(s.profile);
                SpanRecorder::Scope sp(st.spans, "analysis.distance");
                st.check(analysis::characterizeDistance(src, n).totalInsts > 0,
                         "distance characterization");
            }
            for (int size : {2, 8}) {
                trace::SyntheticSource src(s.profile);
                SpanRecorder::Scope sp(st.spans, "analysis.grouping");
                st.check(analysis::characterizeGrouping(src, n, size)
                                 .totalInsts > 0,
                         "grouping characterization");
            }
        });
    }
    res.metrics.push_back(
        {"analysis.distance_ms",
         median(st.spans->durations("analysis.distance")) * 1e3, "ms"});
    res.metrics.push_back(
        {"analysis.grouping_ms",
         median(st.spans->durations("analysis.grouping")) * 1e3, "ms"});
}

void
addObsLayer(State &st, const SimSpec &spec0, Result &res)
{
    // Capture cost: the same run with and without observability, both
    // without step timing; two pairs, medians.
    SimSpec spec = spec0;
    spec.cfg.obs = {};
    spec.insts = std::min<uint64_t>(spec.insts, kCaptureInsts);
    std::vector<double> plain, captured, bytes;
    uint64_t uops = 0;
    for (int i = 0; i < 2; ++i) {
        st.attempt(1, "plain run " + spec.bench, [&] {
            plain.push_back(simulate(spec).totalS);
        });
        Capture c = captureRun(st, spec, i);
        captured.push_back(c.simS);
        bytes.push_back(c.bytes);
        uops = c.uops;
    }
    res.metrics.push_back(
        {"obs.capture_ns_per_uop",
         safeDiv((median(captured) - median(plain)) * 1e9, double(uops)),
         "ns"});
    res.metrics.push_back(
        {"obs.trace_bytes_per_uop", safeDiv(median(bytes), double(uops)),
         "B"});
    res.metrics.push_back(
        {"obs.read_ms", median(st.spans->durations("obs.read")) * 1e3, "ms"});
    res.metrics.push_back(
        {"obs.critpath_ms", median(st.spans->durations("obs.critpath")) * 1e3,
         "ms"});
    res.metrics.push_back(
        {"obs.render_ms", median(st.spans->durations("obs.render")) * 1e3,
         "ms"});
}

/** Per-layer metrics of a traced run (see BENCHMARK.json). */
void
addLayerMetrics(State &st, const std::vector<SimSpec> &specs, Result &res)
{
    auto add = [&](const char *name, double v, const char *unit) {
        res.metrics.push_back({name, v, unit});
    };

    // trace + pipeline, from the instrumented simulations.
    uint64_t insts = 0, uops = 0, cycles = 0, skipped = 0, replays = 0;
    uint64_t uopsIns = 0, entries = 0;
    double grouped = 0;
    std::vector<double> dl1;
    for (const SimOutcome &o : st.traced) {
        insts += o.res.insts;
        uops += o.res.uops;
        cycles += o.res.cycles;
        skipped += o.res.skippedCycles;
        replays += o.res.replays;
        uopsIns += o.res.uopsInserted;
        entries += o.res.iqEntriesInserted;
        grouped += o.res.groupedFrac() * double(o.res.insts);
        dl1.push_back(o.dl1MissFrac);
    }
    // Every timed region also holds one clock read; subtract it. The
    // pipeline's self time is its stepping span minus the next() calls
    // inside it, and still holds one read per step and per next().
    const double clk = clockCostNs();
    res.notes.push_back("clock read " + std::to_string(clk) +
                        " ns, subtracted from hot-call and replay times");
    add("trace.next_ns", st.next.meanNs() - clk, "ns");
    add("trace.construct_ms",
        median(st.spans->durations("trace.construct")) * 1e3, "ms");
    add("pipeline.construct_ms",
        median(st.spans->durations("pipeline.construct")) * 1e3, "ms");
    add("pipeline.step_ns_p50", st.step.percentileNs(50), "ns");
    add("pipeline.step_ns_p99", st.step.percentileNs(99), "ns");
    add("pipeline.self_ns_per_inst",
        safeDiv(st.spans->totalSelfSeconds("pipeline.run") * 1e9 -
                    clk * double(st.step.count() + st.next.count()),
                double(insts)),
        "ns");
    add("pipeline.skipped_cycle_frac", safeDiv(double(skipped), double(cycles)),
        "fraction");
    add("pipeline.rss_bytes_per_inst", median(st.rssSlopes), "B");
    add("pipeline.skip_gain_frac", skipGain(st, specs[0]), "fraction");

    // Layer replays of the workload's own streams (one program per
    // benchmark).
    LayerReplay lr;
    std::set<std::string> seen;
    for (const SimSpec &s : specs) {
        if (!seen.insert(s.bench).second)
            continue;
        st.attempt(1, "layer replay " + s.bench, [&] {
            SpanRecorder::Scope sp(st.spans, "replay");
            replayLayers(streamOf(s, std::min<uint64_t>(s.insts, kReplayUops)),
                         sim::makeCoreParams(s.cfg), lr);
        });
    }
    // The scheduler replay times one insert burst and one tick per
    // cycle.
    const double clkCycles = clk * double(lr.schedTicks);
    add("sched.insert_ns",
        safeDiv(lr.schedInsertNs - clkCycles, double(lr.schedInserts)), "ns");
    add("sched.tick_ns",
        safeDiv(lr.schedTickNs - clkCycles, double(lr.schedTicks)), "ns");
    add("sched.ns_per_uop",
        safeDiv(lr.schedInsertNs + lr.schedTickNs - 2 * clkCycles,
                double(lr.schedUops)),
        "ns");
    add("sched.replays_per_kuop", safeDiv(1e3 * double(replays), double(uops)),
        "count");
    add("sched.uops_per_entry", safeDiv(double(uopsIns), double(entries)),
        "count");
    add("core.detect_ns_per_uop", safeDiv(lr.detectNs, double(lr.detectUops)),
        "ns");
    add("core.grouped_frac", safeDiv(grouped, double(insts)), "fraction");
    add("mem.data_access_ns", safeDiv(lr.memDataNs, double(lr.dataAccesses)),
        "ns");
    add("mem.inst_access_ns", safeDiv(lr.memInstNs, double(lr.instAccesses)),
        "ns");
    add("mem.dl1_miss_frac", median(dl1), "fraction");
    add("bpred.ns_per_branch", safeDiv(lr.bpredNs, double(lr.branches)), "ns");
    add("bpred.mispredict_frac",
        safeDiv(double(lr.mispredicts), double(lr.branches)), "fraction");

    addSweepLayer(st, res);
    addAnalysisLayer(st, specs, res);
    addObsLayer(st, specs[0], res);
}

/** Mean |IPC - paper| / paper, in percent, of Table 2's 32-entry base
 *  IPCs for @p specs' benchmarks (shipped profile seeds). */
double
tableTwoError(State &st, const std::vector<SimSpec> &specs)
{
    double err = 0;
    size_t n = 0;
    std::set<std::string> seen;
    for (const SimSpec &s : specs) {
        if (!seen.insert(s.bench).second)
            continue;
        st.attempt(1, "table2 run " + s.bench, [&] {
            sim::RunConfig cfg;
            cfg.machine = sim::Machine::Base;
            cfg.iqEntries = 32;
            double ipc = sim::runBenchmark(s.bench, cfg, kIpcInsts).ipc;
            double ref = sim::paperRef(s.bench).baseIpc32;
            err += std::fabs(ipc - ref) / ref;
            ++n;
        });
    }
    return n ? 100.0 * err / double(n) : 0;
}

} // namespace

// --- public ------------------------------------------------------------------

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"mop-steady",
                                                   "figure-sweep"};
    return names;
}

trace::WorkloadProfile
seededProfile(const std::string &bench, uint64_t seed, int variant)
{
    trace::WorkloadProfile p = trace::profileFor(bench);
    p.seed = splitmix64(splitmix64(seed ^ fnv1a(bench)) + uint64_t(variant)) >> 1;
    return p;
}

SimOutcome
simulate(const SimSpec &spec, SimProbe *probe)
{
    SimOutcome o;
    SpanRecorder *spans = probe ? probe->spans : nullptr;
    double t0 = nowSec();
    std::unique_ptr<trace::SyntheticSource> src;
    {
        SpanRecorder::Scope s(spans, "trace.construct");
        src = std::make_unique<trace::SyntheticSource>(spec.profile);
    }
    pipeline::CoreParams params = sim::makeCoreParams(spec.cfg);
    params.wrongPathSeed = trace::wrongPathSeed(spec.profile.seed);
    params.cycleSkip = spec.cycleSkip;
    std::unique_ptr<TimedSource> timed;
    if (probe)
        timed = std::make_unique<TimedSource>(*src, *probe->next, spans);
    std::unique_ptr<pipeline::OooCore> core;
    {
        SpanRecorder::Scope s(spans, "pipeline.construct");
        core = std::make_unique<pipeline::OooCore>(
            params, timed ? static_cast<trace::TraceSource &>(*timed)
                          : static_cast<trace::TraceSource &>(*src));
    }
    double t1 = nowSec();
    if (!probe) {
        o.res = core->run(spec.insts);
    } else {
        SpanRecorder::Scope s(spans, "pipeline.run");
        const uint64_t quarter = spec.insts / 4;
        bool haveQuarter = false;
        while (core->result().insts < spec.insts) {
            double a = nowSec();
            bool more = core->step();
            probe->step->add((nowSec() - a) * 1e9);
            if (!more)
                break;
            if (!haveQuarter && core->result().insts >= quarter) {
                haveQuarter = true;
                probe->rssQuarter = currentRssBytes();
                probe->instsQuarter = core->result().insts;
            }
        }
        probe->rssEnd = currentRssBytes();
        probe->instsEnd = core->result().insts;
        o.res = core->run(0);  // finalize exactly as run() does
    }
    o.totalS = nowSec() - t0;
    o.setupS = t1 - t0;
    o.digest = statsDigest(*core);
    const mem::Cache &dl1 = core->memory().dl1();
    o.dl1MissFrac = safeDiv(double(dl1.misses()),
                            double(dl1.hits() + dl1.misses()));
    return o;
}

Result
runWorkload(const Options &opt)
{
    const std::string &w = opt.workload;
    std::vector<SimSpec> specs = workloadSpecs(w, opt.seed);
    State st(opt);
    if (opt.trace)
        st.spans = &st.spanStore;
    bench::registerAllFigures();

    // Round 0 warms the process (allocator, page tables, caches) and is
    // not timed; then rounds until the time budget is spent. Round 0 is
    // never instrumented: its digest must equal every later round's,
    // so repeated runs of one seed agree and tracing provably did not
    // perturb the simulation.
    std::vector<Round> rounds;
    double ipcErr = -1;
    double t0 = nowSec();
    for (int k = 0; k <= kMinRounds || nowSec() - t0 < opt.seconds; ++k) {
        if (k == 1)
            t0 = nowSec();
        bool instrument = opt.trace && k > 0;
        if (w == "figure-sweep") {
            rounds.push_back(sweepRound(
                st, st.path("sweep-" + std::to_string(k)), kSweepInsts, {},
                k == 0 ? &ipcErr : nullptr));
        } else {
            rounds.push_back(longRound(st, specs, instrument));
        }
        if (st.failed)
            break;  // a broken run is not measured further
    }
    double phaseEnd = nowSec();
    uint64_t peakRss = peakRssBytes();

    Result res;
    uint64_t digest = rounds.empty() ? 0 : rounds[0].digest;
    for (size_t k = 1; k < rounds.size(); ++k)
        st.check(rounds[k].digest == digest,
                 "round " + std::to_string(k) +
                     " digest equals round 0 (same seed, " +
                     (opt.trace ? "traced vs untraced)" : "untraced)"));
    res.notes.push_back("digest " + hex64(digest) + " (" + w + ", seed " +
                        std::to_string(opt.seed) + ")");

    if (!st.failed && !opt.trace) {
        std::vector<double> wall, rate, runMs, setup;
        for (size_t k = 1; k < rounds.size(); ++k) {
            const Round &r = rounds[k];
            wall.push_back(r.wallS);
            rate.push_back(safeDiv(double(r.insts), r.simS));
            runMs.insert(runMs.end(), r.runMs.begin(), r.runMs.end());
            setup.insert(setup.end(), r.setupS.begin(), r.setupS.end());
        }
        double rateV = median(rate), wallV = median(wall);
        if (w != "figure-sweep") {
            // Host slowdowns come in bursts of a few seconds, shorter than
            // a round of long runs: a typical round built from each
            // program's median run time filters them better than a median
            // over a few whole rounds.
            double typicalS = 0;
            for (size_t p = 0; p < specs.size(); ++p) {
                std::vector<double> ms;
                for (size_t k = 1; k < rounds.size(); ++k)
                    ms.push_back(rounds[k].runMs.at(p));
                typicalS += median(ms) / 1e3;
            }
            rateV = safeDiv(double(rounds[1].insts), typicalS);
            wallV = typicalS;
        }
        if (ipcErr < 0)
            ipcErr = tableTwoError(st, specs);
        TailStat tail = tailPercentile(runMs);
        res.notes.push_back(
            "timed rounds " + std::to_string(rounds.size() - 1) + " in " +
            std::to_string(phaseEnd - t0) + " s; run_ms samples " +
            std::to_string(runMs.size()) + ", p90 has " +
            std::to_string(samplesBeyond(runMs.size(), 90)) +
            " beyond; highest supported percentile p" +
            std::to_string(tail.pct) + " = " + std::to_string(tail.value) +
            " ms (" + std::to_string(tail.beyond) + " beyond)");
        res.metrics = {
            {"sim_insts_per_s", rateV, "1/s"},
            {"wall_s", wallV, "s"},
            {"peak_rss_mb", double(peakRss) / 1e6, "MB"},
            {"setup_s", median(setup), "s"},
            {"run_ms_p50", percentile(runMs, 50), "ms"},
            {"run_ms_p90", percentile(runMs, 90), "ms"},
            {"ipc_err_vs_paper_pct", ipcErr, "%"},
        };
    } else if (!st.failed) {
        std::vector<double> wall;
        for (size_t k = 1; k < rounds.size(); ++k)
            wall.push_back(rounds[k].wallS);
        res.notes.push_back("traced rounds " + std::to_string(wall.size()) +
                            ", median round " + std::to_string(median(wall)) +
                            " s (the untraced wall_s is the same work)");
        if (w == "figure-sweep") {
            for (const SimSpec &s : specs) {
                st.attempt(1, "probe run " + s.bench, [&] {
                    SimProbe probe = probeFor(st);
                    noteTraced(st, simulate(s, &probe), probe);
                });
            }
        } else {
            // A one-figure sweep stands in for the sweep layer's plan,
            // render and warm paths.
            sweepRound(st, st.path("probe-sweep"), 2000, {"table2"},
                       nullptr);
        }
        addLayerMetrics(st, specs, res);
    }
    res.attempted = std::max<uint64_t>(st.attempted, 1);
    res.failed = std::min(st.failed, res.attempted);
    res.correct = st.failed == 0;
    res.notes.insert(res.notes.end(), st.notes.begin(), st.notes.end());
    res.notes.push_back("failed_frac " +
                        std::to_string(double(res.failed) /
                                       double(res.attempted)) +
                        " (" + std::to_string(res.failed) + " of " +
                        std::to_string(res.attempted) + " operations)");
    return res;
}

} // namespace mopbench
