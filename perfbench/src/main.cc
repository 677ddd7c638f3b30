/**
 * @file
 * mopbench: runs one benchmark workload and prints its metrics.
 *
 *   mopbench --workload NAME --seed N --seconds S --trace 0|1
 *            --scratch DIR
 *
 * Human-readable lines (digest, sample counts, failures) come first;
 * the last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. Exit status: 0 when every
 * operation succeeded and every check held, 1 otherwise, 2 on a usage
 * error. perfbench/run.py builds this program and calls it.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hh"

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
usage(const std::string &why)
{
    std::cerr << "mopbench: " << why
              << "\nusage: mopbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR\nworkloads:";
    for (const auto &w : mopbench::workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    mopbench::Options opt;
    bool haveWorkload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (i + 1 >= argc)
                return usage("option " + a + " needs a value");
            std::string v = argv[++i];
            size_t used = 0;
            if (a == "--workload") {
                opt.workload = v;
                haveWorkload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v, &used);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v, &used);
                if (!(opt.seconds > 0))
                    return usage("--seconds must be positive");
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                opt.trace = v == "1";
            } else if (a == "--scratch") {
                opt.scratch = v;
            } else {
                return usage("unknown option " + a);
            }
            if (used && used != v.size())
                return usage("malformed value for " + a + ": " + v);
        }
    } catch (const std::exception &) {
        return usage("malformed option value");
    }
    if (!haveWorkload)
        return usage("--workload is required");
    bool known = false;
    for (const auto &w : mopbench::workloadNames())
        known = known || w == opt.workload;
    if (!known)
        return usage("unknown workload " + opt.workload);
    if (opt.scratch.empty() || !std::filesystem::is_directory(opt.scratch) ||
        !std::filesystem::is_empty(opt.scratch))
        return usage("--scratch must name an existing, empty directory");

    mopbench::Result r = mopbench::runWorkload(opt);
    for (const auto &m : r.metrics) {
        if (!std::isfinite(m.value)) {
            r.correct = false;
            r.notes.push_back("FAILED metric " + m.name + " is not finite");
        }
    }
    for (const auto &n : r.notes)
        std::cout << n << "\n";
    for (const auto &m : r.metrics)
        std::cout << m.name << " = " << jsonNumber(m.value) << " " << m.unit
                  << "\n";

    std::ostringstream js;
    js << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &m : r.metrics) {
        js << (first ? "" : ", ") << jsonString(m.name) << ": {\"value\": "
           << (std::isfinite(m.value) ? jsonNumber(m.value) : "0")
           << ", \"unit\": " << jsonString(m.unit) << "}";
        first = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return r.correct ? 0 : 1;
}
