#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "pipeline/ooo_core.hh"
#include "stats/stats.hh"

namespace mopbench
{

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
clockCostNs()
{
    constexpr int kCalls = 1000;
    std::vector<double> perCall;
    for (int b = 0; b < 21; ++b) {
        double t0 = nowSec(), t = t0;
        for (int i = 0; i < kCalls; ++i)
            t = nowSec();
        perCall.push_back((t - t0) * 1e9 / kCalls);
    }
    return median(perCall);
}

namespace
{

/** "<key>: <n> kB" from /proc/self/status, in bytes; 0 if absent. */
uint64_t
procStatusKb(const std::string &key)
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.compare(0, key.size(), key) == 0 &&
            line.size() > key.size() && line[key.size()] == ':') {
            std::istringstream ss(line.substr(key.size() + 1));
            uint64_t kb = 0;
            ss >> kb;
            return kb * 1024;
        }
    }
    return 0;
}

} // namespace

uint64_t
peakRssBytes()
{
    if (uint64_t b = procStatusKb("VmHWM"))
        return b;
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return uint64_t(ru.ru_maxrss) * 1024;  // Linux reports kB
}

uint64_t
currentRssBytes()
{
    return procStatusKb("VmRSS");
}

// --- order statistics ----------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace
{

/** 1-based nearest rank of percentile @p pct among @p n samples. */
size_t
nearestRank(size_t n, double pct)
{
    // Round away float noise before the ceiling: 0.9 * 1000 must be
    // rank 900, not 901.
    double r = std::ceil(pct / 100.0 * double(n) - 1e-9);
    return std::clamp(size_t(std::max(r, 1.0)), size_t(1), n);
}

} // namespace

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), pct) - 1];
}

size_t
samplesBeyond(size_t n, double pct)
{
    return n ? n - nearestRank(n, pct) : 0;
}

TailStat
tailPercentile(const std::vector<double> &v, size_t min_beyond)
{
    static const double kLadder[] = {99.99, 99.9, 99, 90, 50};
    TailStat t;
    t.samples = v.size();
    t.pct = 50;
    for (double p : kLadder) {
        if (samplesBeyond(v.size(), p) >= min_beyond) {
            t.pct = p;
            break;
        }
    }
    t.beyond = samplesBeyond(v.size(), t.pct);
    t.value = percentile(v, t.pct);
    return t;
}

// --- hot-call histograms -------------------------------------------------

size_t
HotStat::bucketOf(double ns)
{
    if (!(ns >= 1.0))
        return 0;
    int exp = 0;
    double frac = std::frexp(ns, &exp);  // ns = frac * 2^exp, frac in [.5,1)
    int octave = std::min(exp - 1, kOctaves - 1);
    int sub = std::min(int((frac * 2.0 - 1.0) * kSub), kSub - 1);
    return size_t(octave * kSub + sub);
}

double
HotStat::bucketMid(size_t b)
{
    int octave = int(b) / kSub;
    int sub = int(b) % kSub;
    double lo = std::ldexp(1.0 + double(sub) / kSub, octave);
    double hi = std::ldexp(1.0 + double(sub + 1) / kSub, octave);
    return 0.5 * (lo + hi);
}

double
HotStat::percentileNs(double pct) const
{
    if (!count_)
        return 0;
    uint64_t rank = nearestRank(size_t(count_), pct);
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
        seen += buckets_[b];
        if (seen >= rank)
            return bucketMid(b);
    }
    return bucketMid(buckets_.size() - 1);
}

// --- spans ---------------------------------------------------------------

int
SpanRecorder::begin(const std::string &name, double at)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = at >= 0 ? at : nowSec();
    s.end = s.start - 1;
    spans_.push_back(std::move(s));
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
}

void
SpanRecorder::end(int id, double at)
{
    if (id < 0 || size_t(id) >= spans_.size())
        throw std::out_of_range("SpanRecorder::end: unknown span");
    spans_[size_t(id)].end = at >= 0 ? at : nowSec();
    auto it = std::find(open_.begin(), open_.end(), id);
    if (it != open_.end())
        open_.erase(it);
}

void
SpanRecorder::addHotChild(double seconds)
{
    if (!open_.empty())
        spans_[size_t(open_.back())].hotChildS += seconds;
}

int
SpanRecorder::record(const std::string &name, double start, double end,
                     int parent)
{
    spans_.push_back(Span{name, parent, start, end, 0});
    return int(spans_.size()) - 1;
}

double
SpanRecorder::duration(int id) const
{
    const Span &s = spans_.at(size_t(id));
    return s.end >= s.start ? s.end - s.start : 0;
}

double
SpanRecorder::selfSeconds(int id) const
{
    const Span &s = spans_.at(size_t(id));
    if (s.end < s.start)
        return 0;
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> iv;
    for (const Span &c : spans_) {
        if (c.parent != id || c.end < c.start)
            continue;
        double lo = std::max(c.start, s.start);
        double hi = std::min(c.end, s.end);
        if (hi > lo)
            iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, curLo = 0, curHi = -1;
    for (const auto &[lo, hi] : iv) {
        if (lo > curHi) {
            if (curHi > curLo)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
        } else {
            curHi = std::max(curHi, hi);
        }
    }
    if (curHi > curLo)
        covered += curHi - curLo;
    return (s.end - s.start) - covered - s.hotChildS;
}

double
SpanRecorder::totalSelfSeconds(const std::string &name) const
{
    double t = 0;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name && spans_[i].end >= spans_[i].start)
            t += selfSeconds(int(i));
    return t;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name && s.end >= s.start)
            out.push_back(s.end - s.start);
    return out;
}

// --- digests -------------------------------------------------------------

uint64_t
fnv1a(const std::string &bytes, uint64_t h)
{
    for (unsigned char c : bytes)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

uint64_t
statsDigest(const mop::pipeline::OooCore &core)
{
    mop::stats::StatGroup g("sim");
    core.addStats(g);
    std::ostringstream ss;
    ss.precision(17);
    g.printCsv(ss);
    return fnv1a(ss.str());
}

std::string
hex64(uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 0; i < 16; ++i)
        s[size_t(i)] = digits[(v >> (60 - 4 * i)) & 0xf];
    return s;
}

} // namespace mopbench
