/**
 * @file
 * Measurement plumbing for the mopbench benchmark: host clocks and
 * memory readings, the percentile rule, spans with self time, hot-call
 * histograms, and the simulated-statistics digest.
 *
 * Nothing here touches simulator state; workloads.cc wraps the calls
 * into each layer with these.
 */

#ifndef MOPBENCH_HARNESS_HH
#define MOPBENCH_HARNESS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mop::pipeline
{
class OooCore;
}

namespace mopbench
{

/** Monotonic host time in seconds (steady_clock). */
double nowSec();

/** Host cost of one nowSec() call in ns (median of batches): what a
 *  timed region adds to the interval it measures. */
double clockCostNs();

/** Peak resident set of this process in bytes (VmHWM, falling back to
 *  getrusage's ru_maxrss). */
uint64_t peakRssBytes();

/** Current resident set of this process in bytes (VmRSS). */
uint64_t currentRssBytes();

// --- order statistics ----------------------------------------------------

double median(std::vector<double> v);

/** Nearest-rank percentile @p pct (0 < pct <= 100) of @p v. */
double percentile(std::vector<double> v, double pct);

/** A percentile together with the samples it rests on. */
struct TailStat
{
    double pct = 0;       ///< which percentile (50, 90, 99, ...)
    double value = 0;
    size_t samples = 0;   ///< total sample count
    size_t beyond = 0;    ///< samples ranked above the percentile
};

/** Samples ranked above the nearest-rank @p pct percentile of @p n. */
size_t samplesBeyond(size_t n, double pct);

/**
 * The highest of p50, p90, p99, p99.9, p99.99 that still has at least
 * @p min_beyond samples ranked above it. With too few samples for even
 * p50 the result is p50 with its (short) beyond count, so callers can
 * see the percentile is unsupported.
 */
TailStat tailPercentile(const std::vector<double> &v,
                        size_t min_beyond = 10);

// --- hot-call histograms -------------------------------------------------

/**
 * Log-linear histogram of nanosecond samples (32 sub-buckets per
 * power of two, ~2% resolution): hot calls such as OooCore::step feed
 * totals and a histogram instead of one stored span each.
 */
class HotStat
{
  public:
    void
    add(double ns)
    {
        ++count_;
        totalNs_ += ns;
        ++buckets_[bucketOf(ns)];
    }

    uint64_t count() const { return count_; }
    double totalNs() const { return totalNs_; }
    double meanNs() const { return count_ ? totalNs_ / double(count_) : 0; }
    /** Nearest-rank percentile, reported at the bucket's midpoint. */
    double percentileNs(double pct) const;

  private:
    static constexpr int kSub = 32;
    static constexpr int kOctaves = 40;
    static size_t bucketOf(double ns);
    static double bucketMid(size_t b);

    uint64_t count_ = 0;
    double totalNs_ = 0;
    std::array<uint64_t, size_t(kSub * kOctaves)> buckets_{};
};

// --- spans ---------------------------------------------------------------

/**
 * In-memory span recorder. A span has a name, a start and end, and the
 * span that was open when it began (its parent). A span's self time is
 * its duration minus the part of its interval that its children cover.
 * Hot calls (one per simulated cycle or µop) get no span each; their
 * time is charged to the enclosing span as hot child time.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double start = 0;
        double end = -1;  ///< < start while open
        /** Time of hot calls made under this span (addHotChild). */
        double hotChildS = 0;
    };

    /** Open a span under the innermost open span; returns its id. */
    int begin(const std::string &name, double at = -1);
    /** Close span @p id (and with it the innermost-open position). */
    void end(int id, double at = -1);
    /** Charge @p seconds of a hot child call, which gets no span of
     *  its own, to the innermost open span. */
    void addHotChild(double seconds);
    /** Add an already finished span under @p parent (-1 = none). */
    int record(const std::string &name, double start, double end,
               int parent = -1);

    const std::vector<Span> &spans() const { return spans_; }

    double duration(int id) const;
    /** Duration minus the union of the children's intervals and minus
     *  the hot child time. */
    double selfSeconds(int id) const;
    /** Sum of selfSeconds over every closed span named @p name. */
    double totalSelfSeconds(const std::string &name) const;
    /** Durations of every closed span named @p name, in order. */
    std::vector<double> durations(const std::string &name) const;

    /** RAII helper; a null recorder records nothing. */
    class Scope
    {
      public:
        Scope(SpanRecorder *r, const std::string &name)
            : r_(r), id_(r ? r->begin(name) : -1)
        {
        }
        ~Scope()
        {
            if (r_)
                r_->end(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *r_;
        int id_;
    };

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// --- digests -------------------------------------------------------------

/** 64-bit FNV-1a over @p bytes, continuing from @p h. */
uint64_t fnv1a(const std::string &bytes,
               uint64_t h = 0xcbf29ce484222325ULL);

/** Digest of every statistic @p core registers (StatGroup CSV at full
 *  precision): equal digests mean equal simulated results. */
uint64_t statsDigest(const mop::pipeline::OooCore &core);

std::string hex64(uint64_t v);

} // namespace mopbench

#endif // MOPBENCH_HARNESS_HH
