/**
 * @file
 * Golden-schema test for bench_eval's BENCH_JSON output: runs the real
 * binary (path injected by CMake as REASON_BENCH_EVAL_PATH), parses
 * every emitted BENCH_JSON line with a strict flat-JSON parser, and
 * validates the per-engine schema, the engine set, the bitwise
 * determinism invariants, and the process exit code.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace {

/** One parsed flat JSON object: key -> (is_string, raw value). */
struct JsonValue
{
    bool isString = false;
    std::string text;

    double
    number() const
    {
        return std::stod(text);
    }
};
using JsonObject = std::map<std::string, JsonValue>;

/**
 * Strict parser for the flat objects BENCH_JSON emits: one level, keys
 * and string values quoted (no escapes needed), numbers in printf
 * formats.  Returns false on any structural violation.
 */
bool
parseFlatJson(const std::string &line, JsonObject *out)
{
    size_t i = 0;
    auto skip_ws = [&]() {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t'))
            ++i;
    };
    auto parse_string = [&](std::string *s) {
        if (i >= line.size() || line[i] != '"')
            return false;
        ++i;
        size_t start = i;
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\')
                ++i; // tolerate escaped chars in flags strings
            ++i;
        }
        if (i >= line.size())
            return false;
        *s = line.substr(start, i - start);
        ++i;
        return true;
    };

    skip_ws();
    if (i >= line.size() || line[i] != '{')
        return false;
    ++i;
    for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(&key))
            return false;
        skip_ws();
        if (i >= line.size() || line[i] != ':')
            return false;
        ++i;
        skip_ws();
        JsonValue value;
        if (i < line.size() && line[i] == '"') {
            value.isString = true;
            if (!parse_string(&value.text))
                return false;
        } else {
            size_t start = i;
            while (i < line.size() && line[i] != ',' && line[i] != '}')
                ++i;
            value.text = line.substr(start, i - start);
            if (value.text.empty())
                return false;
            char *end = nullptr;
            (void)std::strtod(value.text.c_str(), &end);
            if (end == nullptr || *end != '\0')
                return false; // not a number
        }
        if (out->count(key))
            return false; // duplicate key
        (*out)[key] = value;
        skip_ws();
        if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
        }
        break;
    }
    if (i >= line.size() || line[i] != '}')
        return false;
    ++i;
    skip_ws();
    return i == line.size();
}

struct BenchRun
{
    std::vector<JsonObject> lines;
    int exitCode = -1;
};

/** Run bench_eval once and collect its BENCH_JSON lines. */
BenchRun
runBenchEval(const std::string &path, const std::string &args)
{
    BenchRun run;
    std::string cmd = "'" + path + "' " + args + " 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return run;
    char buf[4096];
    std::string text;
    while (std::fgets(buf, sizeof buf, pipe) != nullptr)
        text += buf;
    int status = pclose(pipe);
    // Decode the wait status: exit code for clean exits, -signal for
    // signal-killed children, so assertions compare real exit codes.
    if (WIFEXITED(status))
        run.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        run.exitCode = -WTERMSIG(status);
    else
        run.exitCode = -1000;

    size_t at = 0;
    const std::string prefix = "BENCH_JSON ";
    while (at < text.size()) {
        size_t eol = text.find('\n', at);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(at, eol - at);
        at = eol + 1;
        if (line.rfind(prefix, 0) != 0)
            continue;
        JsonObject obj;
        EXPECT_TRUE(parseFlatJson(line.substr(prefix.size()), &obj))
            << "unparseable BENCH_JSON line: " << line;
        run.lines.push_back(std::move(obj));
    }
    return run;
}

const JsonValue *
field(const JsonObject &obj, const std::string &key)
{
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

} // namespace

TEST(BenchJsonSchema, EveryEmittedLineParsesAndMatchesSchema)
{
#ifndef REASON_BENCH_EVAL_PATH
    GTEST_SKIP() << "bench_eval path not provided by the build";
#else
    BenchRun run = runBenchEval(REASON_BENCH_EVAL_PATH,
                                "48 40 --threads 2");
    ASSERT_FALSE(run.lines.empty()) << "no BENCH_JSON lines emitted";
    ASSERT_EQ(run.exitCode, 0)
        << "bench_eval exited nonzero (bitwise mismatch or failure)";

    std::map<std::string, int> engines;
    for (const JsonObject &obj : run.lines) {
        // Common schema.
        const JsonValue *bench = field(obj, "bench");
        const JsonValue *engine = field(obj, "engine");
        ASSERT_NE(bench, nullptr);
        ASSERT_NE(engine, nullptr);
        EXPECT_TRUE(bench->isString);
        EXPECT_EQ(bench->text, "bench_eval");
        ASSERT_TRUE(engine->isString);
        ++engines[engine->text];

        for (const char *key : {"nodes", "edges", "reps"}) {
            const JsonValue *v = field(obj, key);
            ASSERT_NE(v, nullptr) << engine->text << " lacks " << key;
            EXPECT_FALSE(v->isString);
            EXPECT_GT(v->number(), 0.0) << key;
        }
        for (const char *key :
             {"compiler", "flags", "build", "simd_isa",
              "cpu_features"}) {
            const JsonValue *v = field(obj, key);
            ASSERT_NE(v, nullptr) << engine->text << " lacks " << key;
            EXPECT_TRUE(v->isString);
            EXPECT_FALSE(v->text.empty());
        }
        // The compile-time backend is one of the known names.
        {
            const std::string &isa = field(obj, "simd_isa")->text;
            EXPECT_TRUE(isa == "avx512f" || isa == "avx2" ||
                        isa == "sse2" || isa == "neon" ||
                        isa == "scalar")
                << "unknown simd_isa " << isa;
        }

        // Engine-pair specific schema.
        const bool is_mt = engine->text == "circuit_loglik_mt" ||
                           engine->text == "em_fit";
        const bool is_simd_kernel =
            engine->text == "kernel_logsumexp" ||
            engine->text == "hmm_leaf_batch";
        if (is_simd_kernel) {
            for (const char *key :
                 {"scalar_ms", "simd_ms", "speedup_vs_scalar",
                  "bitwise_mismatches"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr)
                    << engine->text << " lacks " << key;
                EXPECT_FALSE(v->isString);
            }
            // The SIMD kernels and their forced-scalar references
            // are bit-exact by contract.
            EXPECT_EQ(field(obj, "bitwise_mismatches")->number(), 0.0)
                << engine->text << " reports bitwise mismatches";
            EXPECT_GT(field(obj, "scalar_ms")->number(), 0.0);
            EXPECT_GT(field(obj, "simd_ms")->number(), 0.0);
            // No wall-clock speedup assertion here: this test runs
            // under parallel ctest where scheduler contention makes
            // timing ratios flaky.  The >= 1.5x kernel_logsumexp gate
            // is enforced by bench_eval itself (nonzero exit), which
            // CI runs serially in the benchmark smoke step.
            EXPECT_GT(field(obj, "speedup_vs_scalar")->number(), 0.0);
        } else if (engine->text == "serving") {
            for (const char *key :
                 {"threads", "max_batch", "clients", "seq_ms",
                  "serve_ms", "speedup_vs_seq", "requests_per_sec",
                  "p50_ms", "p99_ms", "mean_batch_occupancy",
                  "bitwise_mismatches"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr) << "serving lacks " << key;
                EXPECT_FALSE(v->isString);
            }
            // Coalescing must never change per-request bits, and the
            // backlog run must actually coalesce (occupancy > 1).
            EXPECT_EQ(field(obj, "bitwise_mismatches")->number(), 0.0)
                << "serving reports bitwise mismatches";
            EXPECT_GT(field(obj, "mean_batch_occupancy")->number(), 1.0)
                << "serving batches never coalesced";
            EXPECT_GT(field(obj, "serve_ms")->number(), 0.0);
            EXPECT_GT(field(obj, "speedup_vs_seq")->number(), 0.0);
            EXPECT_GT(field(obj, "requests_per_sec")->number(), 0.0);
            EXPECT_LE(field(obj, "p50_ms")->number(),
                      field(obj, "p99_ms")->number());
        } else if (engine->text == "serving_mt") {
            for (const char *key :
                 {"threads", "dispatchers", "max_batch", "clients",
                  "serve_ms", "requests_per_sec", "p50_ms", "p99_ms",
                  "mean_batch_occupancy", "capacity", "shed_rate",
                  "max_queue_depth", "overload_p99_ms",
                  "bitwise_mismatches"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr) << "serving_mt lacks " << key;
                EXPECT_FALSE(v->isString);
            }
            // Dispatcher count, queue policy, and shedding must never
            // change the bits of admitted requests, and the paused
            // backlog must coalesce into wide batches.
            EXPECT_EQ(field(obj, "bitwise_mismatches")->number(), 0.0)
                << "serving_mt reports bitwise mismatches";
            EXPECT_GT(field(obj, "dispatchers")->number(), 1.0);
            EXPECT_GT(field(obj, "mean_batch_occupancy")->number(), 1.0)
                << "serving_mt batches never coalesced";
            EXPECT_GT(field(obj, "requests_per_sec")->number(), 0.0);
            EXPECT_LE(field(obj, "p50_ms")->number(),
                      field(obj, "p99_ms")->number());
            // Deterministic 2x-capacity overload: exactly half the
            // offered load is shed, and the queue never grows past
            // its configured capacity.
            EXPECT_EQ(field(obj, "shed_rate")->number(), 0.5)
                << "overload phase shed an unexpected fraction";
            EXPECT_GT(field(obj, "capacity")->number(), 0.0);
            EXPECT_LE(field(obj, "max_queue_depth")->number(),
                      field(obj, "capacity")->number())
                << "bounded queue exceeded its capacity";
            EXPECT_GT(field(obj, "overload_p99_ms")->number(), 0.0);
        } else if (engine->text == "approx_tier") {
            for (const char *key :
                 {"budget", "kept_nodes", "total_nodes", "exact_ms",
                  "approx_ms", "speedup_vs_exact", "mean_abs_dlogp",
                  "max_abs_dlogp", "corpus_circuits", "corpus_checks",
                  "bound_violations", "bitwise_mismatches"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr) << "approx_tier lacks " << key;
                EXPECT_FALSE(v->isString);
            }
            // The certified-interval contract is absolute: zero bound
            // violations across the whole differential corpus, and
            // budget-0 identity / rebuild determinism hold bit for
            // bit at any bench size (only the speedup-at-accuracy
            // gate is size-dependent, enforced by bench_eval itself).
            EXPECT_EQ(field(obj, "bound_violations")->number(), 0.0)
                << "approx_tier reports bound violations";
            EXPECT_EQ(field(obj, "bitwise_mismatches")->number(), 0.0)
                << "approx_tier reports bitwise mismatches";
            EXPECT_EQ(field(obj, "corpus_circuits")->number(), 200.0);
            EXPECT_GT(field(obj, "corpus_checks")->number(), 0.0);
            EXPECT_GT(field(obj, "budget")->number(), 0.0);
            EXPECT_GT(field(obj, "kept_nodes")->number(), 0.0);
            EXPECT_LE(field(obj, "kept_nodes")->number(),
                      field(obj, "total_nodes")->number());
            EXPECT_GT(field(obj, "exact_ms")->number(), 0.0);
            EXPECT_GT(field(obj, "approx_ms")->number(), 0.0);
            EXPECT_GT(field(obj, "speedup_vs_exact")->number(), 0.0);
            EXPECT_LE(field(obj, "mean_abs_dlogp")->number(),
                      field(obj, "max_abs_dlogp")->number());
        } else if (engine->text == "dram_model") {
            for (const char *key :
                 {"channels", "banks", "stream_hit_rate",
                  "random_hit_rate", "stream_cpb", "random_cpb",
                  "stream_cycles", "random_cycles", "stream_blp_x100",
                  "peak_bytes_per_cycle", "model_ms",
                  "invariant_violations", "determinism_mismatches"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr) << "dram_model lacks " << key;
                EXPECT_FALSE(v->isString);
            }
            // The timing model's contracts are absolute at any bench
            // size: no request completes before the minimum closed-row
            // latency, sustained bandwidth never exceeds the pin peak,
            // and cycle counts are bit-identical across reruns.
            EXPECT_EQ(field(obj, "invariant_violations")->number(), 0.0)
                << "dram_model reports timing-invariant violations";
            EXPECT_EQ(field(obj, "determinism_mismatches")->number(),
                      0.0)
                << "dram_model reports nondeterministic cycle counts";
            EXPECT_GT(field(obj, "channels")->number(), 0.0);
            EXPECT_GT(field(obj, "banks")->number(), 0.0);
            // Row-buffer locality: a streaming scan must beat the
            // shuffled access order on hit rate and cycles per byte.
            EXPECT_GT(field(obj, "stream_hit_rate")->number(),
                      field(obj, "random_hit_rate")->number())
                << "streaming did not beat random row-hit rate";
            EXPECT_LT(field(obj, "stream_cpb")->number(),
                      field(obj, "random_cpb")->number())
                << "streaming did not beat random cycles/byte";
            EXPECT_GT(field(obj, "stream_cycles")->number(), 0.0);
            EXPECT_GT(field(obj, "random_cycles")->number(), 0.0);
            EXPECT_GT(field(obj, "peak_bytes_per_cycle")->number(),
                      0.0);
        } else if (engine->text == "compile_flat") {
            for (const char *key :
                 {"formulas", "compile_ms", "lower_ms", "stream_ms",
                  "formulas_per_s", "wmc_mismatches",
                  "bitwise_mismatches"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr) << "compile_flat lacks " << key;
                EXPECT_FALSE(v->isString);
            }
            // The four WMC routes must agree on the whole corpus and
            // the streamed `.nnf` round-trip must be byte-identical
            // to the direct lowering, at any bench size.
            EXPECT_EQ(field(obj, "wmc_mismatches")->number(), 0.0)
                << "compile_flat reports WMC disagreements";
            EXPECT_EQ(field(obj, "bitwise_mismatches")->number(), 0.0)
                << "compile_flat reports streamed-vs-direct mismatches";
            EXPECT_EQ(field(obj, "formulas")->number(), 200.0);
            EXPECT_GT(field(obj, "compile_ms")->number(), 0.0);
            EXPECT_GT(field(obj, "formulas_per_s")->number(), 0.0);
        } else if (engine->text == "fault_recovery") {
            for (const char *key :
                 {"clients", "control_ms", "fault_ms",
                  "control_retries", "reconnects", "retries",
                  "transport_errors", "duplicates_suppressed",
                  "faults_injected", "unanswered", "wrong_answers",
                  "control_mismatches", "shed", "expired",
                  "cancelled", "accounting_ok", "drain_clean"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr)
                    << "fault_recovery lacks " << key;
                EXPECT_FALSE(v->isString);
            }
            // The reliability contract is absolute: faults really
            // fired, yet every query terminated with the bit-exact
            // answer, the queue accounting balanced, and the drain
            // was clean — and the fault-free control pass needed no
            // retries at all.
            EXPECT_GT(field(obj, "faults_injected")->number(), 0.0)
                << "fault pass injected no faults";
            EXPECT_EQ(field(obj, "unanswered")->number(), 0.0)
                << "fault_recovery left queries unanswered";
            EXPECT_EQ(field(obj, "wrong_answers")->number(), 0.0)
                << "fault_recovery reports wrong answers";
            EXPECT_EQ(field(obj, "control_mismatches")->number(), 0.0)
                << "fault-free control pass was not bit-exact";
            EXPECT_EQ(field(obj, "control_retries")->number(), 0.0)
                << "fault-free control pass needed retries";
            EXPECT_EQ(field(obj, "accounting_ok")->number(), 1.0)
                << "engine accounting did not balance";
            EXPECT_EQ(field(obj, "drain_clean")->number(), 1.0)
                << "graceful drain expired queued work";
            EXPECT_GT(field(obj, "clients")->number(), 0.0);
            EXPECT_GT(field(obj, "control_ms")->number(), 0.0);
            EXPECT_GT(field(obj, "fault_ms")->number(), 0.0);
        } else if (is_mt) {
            for (const char *key : {"threads", "flat_ms", "mt_ms",
                                    "speedup_vs_flat",
                                    "bitwise_mismatches"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr)
                    << engine->text << " lacks " << key;
                EXPECT_FALSE(v->isString);
            }
            EXPECT_EQ(field(obj, "bitwise_mismatches")->number(), 0.0)
                << engine->text << " reports bitwise mismatches";
            EXPECT_GT(field(obj, "mt_ms")->number(), 0.0);
            EXPECT_GT(field(obj, "speedup_vs_flat")->number(), 0.0);
        } else {
            for (const char *key :
                 {"seed_ms", "flat_ms", "lower_ms", "speedup",
                  "max_abs_diff"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr)
                    << engine->text << " lacks " << key;
                EXPECT_FALSE(v->isString);
            }
            EXPECT_GE(field(obj, "speedup")->number(), 0.0);
        }
        if (engine->text == "em_fit") {
            for (const char *key : {"iters", "shards"}) {
                const JsonValue *v = field(obj, key);
                ASSERT_NE(v, nullptr) << "em_fit lacks " << key;
                EXPECT_GT(v->number(), 0.0);
            }
        }
    }

    // Every engine pair appears exactly once per run.
    for (const char *engine :
         {"circuit_loglik", "circuit_loglik_mt", "em_fit",
          "kernel_logsumexp", "hmm_leaf_batch", "serving", "serving_mt",
          "approx_tier", "compile_flat", "dram_model", "fault_recovery",
          "dag_eval"}) {
        EXPECT_EQ(engines[engine], 1)
            << "engine " << engine << " missing or duplicated";
    }
#endif
}

TEST(BenchJsonSchema, SingleThreadRunSkipsMtVariantsAndExitsZero)
{
#ifndef REASON_BENCH_EVAL_PATH
    GTEST_SKIP() << "bench_eval path not provided by the build";
#else
    BenchRun run = runBenchEval(REASON_BENCH_EVAL_PATH,
                                "32 24 --threads 1");
    ASSERT_EQ(run.exitCode, 0);
    std::map<std::string, int> engines;
    for (const JsonObject &obj : run.lines) {
        const JsonValue *engine = field(obj, "engine");
        ASSERT_NE(engine, nullptr);
        ++engines[engine->text];
    }
    EXPECT_EQ(engines["circuit_loglik"], 1);
    EXPECT_EQ(engines["dag_eval"], 1);
    // The serving engine and the SIMD kernel micro-benches are
    // independent of the --threads knob; they run (and must hold
    // their bitwise contracts) even in the 1-thread configuration.
    EXPECT_EQ(engines["serving"], 1);
    EXPECT_EQ(engines["kernel_logsumexp"], 1);
    EXPECT_EQ(engines["hmm_leaf_batch"], 1);
    EXPECT_EQ(engines["approx_tier"], 1);
    EXPECT_EQ(engines["compile_flat"], 1);
    // The DRAM timing model is single-threaded by construction and
    // must emit (and gate) regardless of the --threads knob.
    EXPECT_EQ(engines["dram_model"], 1);
    // The fault-recovery gate spawns its own server and client
    // threads, so it too runs in every --threads configuration.
    EXPECT_EQ(engines["fault_recovery"], 1);
    EXPECT_EQ(engines["circuit_loglik_mt"], 0);
    EXPECT_EQ(engines["em_fit"], 0);
    EXPECT_EQ(engines["serving_mt"], 0);
#endif
}
