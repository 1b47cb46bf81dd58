#include "common.h"

#include <algorithm>
#include <cstdarg>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include <sys/resource.h>

#include "pc/io.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace reason;

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least p of the sample
    // at or below it.
    const double rank = p * double(values.size());
    size_t idx = size_t(rank);
    if (double(idx) < rank)
        ++idx;
    idx = std::clamp<size_t>(idx, 1, values.size());
    return values[idx - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
TrialStats::add(double units, double wallS, const std::vector<double> &latMs)
{
    rate.push_back(units / wallS);
    p50.push_back(percentile(latMs, 0.50));
    p99.push_back(percentile(latMs, 0.99));
}

void
TrialStats::report(std::map<std::string, double> &metrics) const
{
    metrics["rows_per_s"] = median(rate);
    metrics["latency_p50_ms"] = median(p50);
    metrics["latency_p99_ms"] = median(p99);
}

std::string
TrialStats::describe() const
{
    return "trials: rows/s" + formatList(rate) + "; p50 ms" +
           formatList(p50) + "; p99 ms" + formatList(p99);
}

double
timePerCallUs(const std::function<void()> &fn, int trials, double minMs)
{
    fn();
    std::vector<double> perCall;
    for (int t = 0; t < trials; ++t) {
        const Clock::time_point start = Clock::now();
        size_t calls = 0;
        double elapsed = 0.0;
        do {
            fn();
            ++calls;
            elapsed = msSince(start);
        } while (elapsed < minMs);
        perCall.push_back(elapsed * 1e3 / double(calls));
    }
    return median(perCall);
}

namespace {

/** Steal and total jiffies of all CPUs; {0, 0} where unreadable. */
std::pair<uint64_t, uint64_t>
cpuSteal()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user and nice.
    uint64_t v[8] = {};
    for (uint64_t &x : v)
        in >> x;
    if (!in || cpu != "cpu")
        return {0, 0};
    uint64_t total = 0;
    for (uint64_t x : v)
        total += x;
    return {v[7], total};
}

} // namespace

StealMeter::StealMeter()
{
    std::tie(steal_, total_) = cpuSteal();
}

double
StealMeter::fraction() const
{
    const auto [steal, total] = cpuSteal();
    if (total <= total_)
        return 0.0;
    return double(steal - steal_) / double(total - total_);
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // Linux reports KiB
}

bool
bitsEqual(double a, double b)
{
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

double
flipLowBit(double x)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    bits ^= 1u;
    std::memcpy(&x, &bits, sizeof x);
    return x;
}

bool
writeRpc(const pc::Circuit &circuit, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << pc::toText(circuit);
    return bool(out.flush());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

size_t
countParamMismatches(const pc::Circuit &a, const pc::Circuit &b)
{
    if (a.numNodes() != b.numNodes())
        return std::max(a.numNodes(), b.numNodes());
    size_t mismatches = 0;
    for (pc::NodeId id = 0; id < a.numNodes(); ++id) {
        const pc::PcNode &na = a.node(id);
        const pc::PcNode &nb = b.node(id);
        if (na.weights.size() != nb.weights.size() ||
            na.dist.size() != nb.dist.size()) {
            ++mismatches;
            continue;
        }
        for (size_t k = 0; k < na.weights.size(); ++k)
            mismatches += !bitsEqual(na.weights[k], nb.weights[k]);
        for (size_t k = 0; k < na.dist.size(); ++k)
            mismatches += !bitsEqual(na.dist[k], nb.dist[k]);
    }
    return mismatches;
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out(n > 0 ? size_t(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    va_end(args);
    return out;
}

std::string
formatList(const std::vector<double> &values)
{
    std::string out;
    for (double v : values)
        out += format(" %.4g", v);
    return out;
}

std::string
provenance()
{
#if defined(__clang__)
    const char *compiler = "clang++ " __VERSION__;
#elif defined(__GNUC__)
    const char *compiler = "g++ " __VERSION__;
#else
    const char *compiler = "unknown " __VERSION__;
#endif
    return format("nproc=%u compiler=\"%s\" build=%s simd_compile=%s "
                  "simd_dispatch=%s cpu_features=\"%s\"",
                  std::thread::hardware_concurrency(), compiler,
                  PERFBENCH_BUILD_TYPE, reason::simd::isaName(),
                  reason::simd::activeIsaName(),
                  reason::simd::cpuFeatures());
}

} // namespace perfbench
