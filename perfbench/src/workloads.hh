/**
 * @file
 * The mopbench workloads and the measurements they report.
 *
 *  - mop-steady:   long gzip/gcc/vortex runs, MOP-wiredOR, 128-entry IQ
 *  - figure-sweep: the full paper suite through sweep::runSuite, cold
 *                  into an empty cache directory, then warm from it
 *
 * A run repeats whole rounds of its workload until the time budget is
 * spent and reports medians over rounds. Untraced runs report the
 * end-to-end metrics; traced runs wrap every call into a layer in
 * spans (or hot-call histograms) and report the per-layer metrics.
 */

#ifndef MOPBENCH_WORKLOADS_HH
#define MOPBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "pipeline/ooo_core.hh"
#include "sim/config.hh"
#include "trace/synthetic.hh"

namespace mopbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Existing, empty directory for caches and trace files. */
    std::string scratch;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;
};

const std::vector<std::string> &workloadNames();

/** Run one workload; throws std::invalid_argument on an unknown name. */
Result runWorkload(const Options &opt);

// --- building blocks (exposed for the benchmark's tests) -------------------

/** The profile of @p bench with its seed derived from @p seed and
 *  @p variant (each benchmark and variant gets its own program). */
mop::trace::WorkloadProfile seededProfile(const std::string &bench,
                                          uint64_t seed, int variant = 0);

/** One simulation: a workload profile on one machine for a budget. */
struct SimSpec
{
    std::string bench;
    mop::trace::WorkloadProfile profile;
    mop::sim::RunConfig cfg;
    uint64_t insts = 0;
    bool cycleSkip = true;  ///< CoreParams::cycleSkip
};

/** Per-layer observations of one traced simulation. */
struct SimProbe
{
    HotStat *step = nullptr;  ///< one sample per OooCore::step
    HotStat *next = nullptr;  ///< one sample per TraceSource::next
    SpanRecorder *spans = nullptr;
    /** Resident-set readings at a quarter of the budget and at its
     *  end (0 = not taken). */
    uint64_t rssQuarter = 0, rssEnd = 0;
    uint64_t instsQuarter = 0, instsEnd = 0;
};

struct SimOutcome
{
    mop::pipeline::SimResult res;
    uint64_t digest = 0;      ///< statsDigest of the finished core
    double setupS = 0;        ///< source + core construction
    double totalS = 0;        ///< construction + simulation
    double dl1MissFrac = 0;
};

/** Simulate @p spec. With @p probe, the calls into the trace source
 *  and OooCore::step are timed individually; the simulated result is
 *  the same either way. */
SimOutcome simulate(const SimSpec &spec, SimProbe *probe = nullptr);

} // namespace mopbench

#endif // MOPBENCH_WORKLOADS_HH
