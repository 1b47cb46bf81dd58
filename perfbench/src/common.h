/**
 * @file
 * Shared pieces of the repository benchmark: options, the per-run
 * outcome every workload fills, timing and percentile helpers, and
 * the `.rpc` round trip every workload loads its circuit through.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "pc/pc.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    /** Measured time of the run (see phaseSeconds). */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Tiny inputs, for the benchmark's own tests. */
    bool tiny = false;
    /** Flip one bit of the correctness reference (tests only). */
    bool corruptReference = false;
    /** Where generated `.rpc` files and the trace are written. */
    std::string workDir = ".";
};

/**
 * Length of each measured phase.  A traced run measures an untraced
 * and a traced phase (their difference is the tracing overhead), each
 * half as long, so it takes no longer than an untraced run.
 */
inline double
phaseSeconds(const Options &o)
{
    return o.trace ? o.seconds / 2 : o.seconds;
}

/** What one workload run reports; printed by main(). */
struct Outcome
{
    bool correct = true;
    /** Units of work attempted and the ones not answered correctly. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Metric values by name; main() attaches the units. */
    std::map<std::string, double> endToEnd;
    /** Per-layer values; a layer absent here did no work (prints 0). */
    std::map<std::string, double> perLayer;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    /** Record a correctness check; a failed one marks the run wrong. */
    void check(bool ok, const std::string &what);
    void note(const std::string &line) { notes.push_back(line); }
};

/** Nearest-rank percentile (p in [0, 1]); 0 for an empty sample. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/**
 * A measured phase is split into this many back-to-back trials of
 * equal length; every end-to-end timing is the median over trials, so
 * one disturbed stretch of a run does not move the result.
 */
inline constexpr int kTrials = 10;

/** Throughput and latency percentiles of each trial of a phase. */
struct TrialStats
{
    std::vector<double> rate;
    std::vector<double> p50;
    std::vector<double> p99;

    /** One trial: `units` of work in `wallS`, with its latencies. */
    void add(double units, double wallS, const std::vector<double> &latMs);
    /** Medians over trials, under the end-to-end metric names. */
    void report(std::map<std::string, double> &metrics) const;
    /** Every trial's values, for the human-readable lines. */
    std::string describe() const;
};

/**
 * Per-call time of `fn` in microseconds: after one warm call, each of
 * `trials` trials repeats `fn` for at least `minMs` and yields its
 * mean; the median trial is returned.
 */
double timePerCallUs(const std::function<void()> &fn, int trials = 5,
                     double minMs = 20.0);

/**
 * Share of the host's CPU time stolen by the hypervisor (the `steal`
 * column of /proc/stat) since construction; 0 where unknown.  Printed
 * beside the measurements: on a shared virtual machine it explains
 * runs that are slow for reasons outside the program.
 */
class StealMeter
{
  public:
    StealMeter();
    double fraction() const;

  private:
    uint64_t steal_ = 0;
    uint64_t total_ = 0;
};

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Exact IEEE-754 equality (NaN payloads and -0.0 included). */
bool bitsEqual(double a, double b);
/** `x` with its lowest mantissa bit flipped. */
double flipLowBit(double x);

/** Write `circuit` as `.rpc` text to `path`; false on I/O failure. */
bool writeRpc(const reason::pc::Circuit &circuit, const std::string &path);
/** Whole file as a string; throws std::runtime_error on failure. */
std::string readFile(const std::string &path);

/**
 * Bitwise comparison of every sum weight and leaf probability;
 * returns the number of differing doubles.
 */
size_t countParamMismatches(const reason::pc::Circuit &a,
                            const reason::pc::Circuit &b);

/** `values` as " v1 v2 ...", four significant digits each. */
std::string formatList(const std::vector<double> &values);

/** printf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** One-line host and build description (compiler, SIMD, cores). */
std::string provenance();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
