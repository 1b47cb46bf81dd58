/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--tiny] [--corrupt-reference]
 *
 * Prints human-readable lines, then, as the last line of stdout, one
 * JSON object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1.  Exits 0 only when every correctness check passed.
 * --tiny and --corrupt-reference exist for the benchmark's own tests.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Must list exactly BENCHMARK.json's end_to_end names, in order. */
constexpr MetricSpec kEndToEnd[] = {
    {"rows_per_s", "rows/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/** Must list exactly BENCHMARK.json's per_layer names, in order. */
constexpr MetricSpec kPerLayer[] = {
    {"engine.batch_rows_mean", "rows"},
    {"engine.batches", "count"},
    {"engine.max_queue_depth", "count"},
    {"engine.queue_wait_ms_mean", "ms"},
    {"engine.exec_ms_mean", "ms"},
    {"engine.latency_p99_ms", "ms"},
    {"engine.failed", "count"},
    {"frontend.wait_ms_p50", "ms"},
    {"server.submits", "count"},
    {"server.connections", "count"},
    {"client.retries", "count"},
    {"client.transport_errors", "count"},
    {"wire.encode_submit_us", "us"},
    {"wire.decode_submit_us", "us"},
    {"wire.encode_result_us", "us"},
    {"wire.decode_result_us", "us"},
    {"wire.submit_bytes", "bytes"},
    {"pc.parse_ms", "ms"},
    {"pc.lower_ms", "ms"},
    {"cache.hit_rate", "frac"},
    {"approx.build_ms", "ms"},
    {"flat.upward_us_per_row_b1", "us"},
    {"flat.upward_us_per_row_b64", "us"},
    {"approx.us_per_row_b64", "us"},
    {"approx.kept_edge_frac", "frac"},
    {"learn.estep_ms", "ms"},
    {"learn.estep_ms_1t", "ms"},
    {"learn.estep_scaling", "x"},
    {"learn.mstep_ms", "ms"},
    {"learn.down_over_up", "x"},
    {"trace.overhead_frac", "frac"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload serve_exact|"
                 "serve_approx_batch|learn_em --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--tiny] "
                 "[--corrupt-reference]\n",
                 why);
    return 2;
}

bool
parseU64(const char *text, uint64_t *out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** Append `"name":{"value":v,"unit":"u"}` for every spec. */
template <size_t N>
std::string
metricsJson(const MetricSpec (&specs)[N],
            const std::map<std::string, double> &values, bool required,
            Outcome &out)
{
    std::string json;
    for (const MetricSpec &m : specs) {
        const auto it = values.find(m.name);
        double v = 0.0;
        if (it != values.end())
            v = it->second;
        else
            out.check(!required, std::string("metric not measured: ") +
                                     m.name);
        out.check(std::isfinite(v),
                  std::string("metric not finite: ") + m.name);
        if (!std::isfinite(v))
            v = 0.0;
        if (!json.empty())
            json += ",";
        json += format("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", m.name,
                       v, m.unit);
    }
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        uint64_t n = 0;
        if (a == "--workload" && v != nullptr) {
            o.workload = v;
            haveWorkload = true;
            ++i;
        } else if (a == "--seed" && parseU64(v, &n)) {
            o.seed = n;
            haveSeed = true;
            ++i;
        } else if (a == "--seconds" && parseU64(v, &n) && n >= 1 &&
                   n <= 600) {
            o.seconds = double(n);
            haveSeconds = true;
            ++i;
        } else if (a == "--trace" && parseU64(v, &n) && n <= 1) {
            o.trace = n == 1;
            haveTrace = true;
            ++i;
        } else if (a == "--work-dir" && v != nullptr) {
            o.workDir = v;
            ++i;
        } else if (a == "--tiny") {
            o.tiny = true;
        } else if (a == "--corrupt-reference") {
            o.corruptReference = true;
        } else {
            return usage(("bad argument: " + a).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    Outcome (*run)(const Options &) = nullptr;
    if (o.workload == "serve_exact")
        run = runServeExact;
    else if (o.workload == "serve_approx_batch")
        run = runServeApproxBatch;
    else if (o.workload == "learn_em")
        run = runLearnEm;
    else
        return usage(("unknown workload: " + o.workload).c_str());

    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
                o.workload.c_str(), (unsigned long long)o.seed, o.seconds,
                int(o.trace), o.tiny ? " (tiny inputs)" : "");
    std::printf("provenance: %s\n", provenance().c_str());
    std::fflush(stdout);

    Outcome out;
    try {
        out = run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }

    out.check(out.attempted > 0, "nothing attempted");
    out.check(out.failed == 0,
              format("%llu of %llu attempts failed",
                     (unsigned long long)out.failed,
                     (unsigned long long)out.attempted));
    const std::string e2e = metricsJson(kEndToEnd, out.endToEnd, true, out);
    const std::string layers =
        o.trace ? metricsJson(kPerLayer, out.perLayer, false, out) : "";
    for (const std::string &line : out.notes)
        std::printf("%s\n", line.c_str());
    for (const MetricSpec &m : kEndToEnd)
        std::printf("%-26s %14.6g %s\n", m.name, out.endToEnd[m.name],
                    m.unit);
    std::printf("%-26s %14.6g frac (%llu failed of %llu attempted)\n",
                "fail_frac",
                out.attempted == 0
                    ? 1.0
                    : double(out.failed) / double(out.attempted),
                (unsigned long long)out.failed,
                (unsigned long long)out.attempted);
    if (o.trace)
        for (const MetricSpec &m : kPerLayer)
            std::printf("%-26s %14.6g %s\n", m.name, out.perLayer[m.name],
                        m.unit);
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                out.correct ? "true" : "false",
                (unsigned long long)std::max<uint64_t>(1, out.attempted),
                (unsigned long long)out.failed,
                (o.trace ? layers : e2e).c_str());
    return out.correct ? 0 : 1;
}
