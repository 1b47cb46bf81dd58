/**
 * @file
 * reason_cli — command-line front end to the REASON library.
 *
 * Subcommands:
 *
 *   solve <file.cnf> [--budget N] [--no-preprocess]
 *       Solve a DIMACS CNF with the CDCL solver (after the
 *       preprocessing pipeline), print the verdict, search statistics,
 *       and the REASON accelerator's estimated latency and energy for
 *       the same search.
 *
 *   count <file.cnf> [--nnf out.nnf]
 *       Exact model count via d-DNNF knowledge compilation; --nnf
 *       exports the compiled graph in the standard c2d format.
 *
 *   marginals <file.cnf> [--pc out.rpc]
 *       Compile the formula to a probabilistic circuit (uniform literal
 *       weights) and print per-variable conditional marginals
 *       P(x_v = 1 | formula) — the R2-Guard query pattern; --pc saves
 *       the circuit in rpc text form.
 *
 *   compile <file.cnf> [--disasm]
 *       Lower the formula through the unified-DAG pipeline to a VLIW
 *       program, report compile statistics and encoded size in both
 *       address modes, simulate one evaluation, and optionally print
 *       the disassembly.
 *
 *   fit <file.rpc> [--samples N] [--iters N] [--seed N] [--out f.rpc]
 *       Run sharded flow EM on a stored circuit against data sampled
 *       from it (a self-fit: the log-likelihood trace must be
 *       non-decreasing).  Exercises the --threads / --shards /
 *       --fast-reductions knobs end to end and reports the resolved
 *       shard count and per-iteration likelihoods.
 *
 *   query <file.rpc> [--budget X] [--rows N] [--seed N]
 *         [--missing-pct N]
 *       Evaluate sampled queries through the serving engine's
 *       tier-selection path: budget 0 runs the exact tier, a positive
 *       budget runs the approximate tier (pc::ApproxEvaluator) and
 *       prints each certified [lo, hi] bound next to the value.
 *
 *   serve <file.rpc> [--listen PORT] [--max-batch N]
 *         [--serve-threads N] [--dispatchers N] [--capacity N]
 *         [--policy reject|shed] [--max-budget X] [--fault-plan SPEC]
 *         [--idle-timeout-ms N] [--drain-ms N]
 *       Serve likelihood queries against a stored circuit over the
 *       length-prefixed binary wire protocol (sys/wire.h, v3) on a
 *       loopback TCP socket (--listen 0, the default, binds an
 *       ephemeral port; the `listening on` line reports it).
 *       sys::SocketServer runs one poll() loop that pipelines every
 *       connection's Submits into the async batch-serving engine
 *       (sys::ReasonEngine), whose dispatchers greedily coalesce
 *       whatever is queued into batched SoA evaluations of at most
 *       --max-batch rows: one engine session per connection,
 *       idempotent-retry duplicate suppression, Ping/Pong heartbeats.
 *       It serves until SIGINT/SIGTERM triggers a graceful drain
 *       (--drain-ms deadline; exit 0 iff clean) whose summary line
 *       reports rows per batch and mean queue and execution times.
 *       --fault-plan (or the REASON_FAULT_PLAN environment variable)
 *       installs a deterministic fault-injection schedule
 *       (sys/fault.h) for resilience testing.  `bench-client` is its
 *       load generator.
 *
 *   bench-client <file.rpc> --port N [--host H] [--requests N]
 *         [--clients N] [--pipeline N] [--seed N] [--budget X]
 *         [--retries N] [--deadline-ms N] [--client-id N]
 *       Load generator for `serve --listen`, built on the resilient
 *       sys::Client: N client threads stream sampled queries over the
 *       wire protocol with a bounded pipeline, reconnecting with
 *       capped exponential backoff and re-sending unanswered queries
 *       idempotently (--retries bounds consecutive failures;
 *       --deadline-ms attaches per-query deadlines), then verify
 *       every returned log-likelihood bit for bit against an
 *       in-process one-at-a-time run of the same queries (checksums
 *       printed; nonzero exit on any mismatch).  With --budget the
 *       queries ride the approximate tier and the returned error
 *       bounds are bit-verified too.
 *
 * Every subcommand accepts --help and parses its flags through one
 * shared option table, so flag handling and help output stay
 * consistent.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sys/net.h" // defines REASON_HAS_SOCKETS

#if REASON_HAS_SOCKETS
#include <csignal>
#endif

#include "arch/accelerator.h"
#include "arch/symbolic.h"
#include "compiler/compile.h"
#include "compiler/encoding.h"
#include "core/builders.h"
#include "energy/energy_model.h"
#include "logic/cnf.h"
#include "logic/knowledge.h"
#include "logic/nnf_io.h"
#include "logic/preprocess.h"
#include "logic/solver.h"
#include "pc/flat_cache.h"
#include "pc/from_logic.h"
#include "pc/io.h"
#include "pc/learn.h"
#include "pc/queries.h"
#include "sys/engine.h"
#include "sys/fault.h"
#include "sys/wire.h"

#if REASON_HAS_SOCKETS
#include "sys/client.h"
#include "sys/server.h"
#endif
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

#ifndef REASON_BUILD_FLAGS
#define REASON_BUILD_FLAGS "unknown"
#endif
#ifndef REASON_BUILD_TYPE
#define REASON_BUILD_TYPE "unknown"
#endif

using namespace reason;
namespace wire = reason::sys::wire;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: reason_cli [--threads N] [--shards N]\n"
        "                  [--fast-reductions] <command> [args]\n"
        "  solve <file.cnf> [--budget N] [--no-preprocess]\n"
        "  count <file.cnf> [--nnf out.nnf]\n"
        "  marginals <file.cnf> [--pc out.rpc]\n"
        "  compile <file.cnf> [--disasm]\n"
        "  fit <file.rpc> [--samples N] [--iters N] [--seed N]\n"
        "      [--out f.rpc]\n"
        "  query <file.rpc> [--budget X] [--rows N] [--seed N]\n"
        "      [--missing-pct N]\n"
        "  serve <file.rpc> [--listen PORT] [--max-batch N]\n"
        "      [--serve-threads N] [--dispatchers N] [--capacity N]\n"
        "      [--policy reject|shed] [--max-budget X]\n"
        "      [--fault-plan SPEC] [--idle-timeout-ms N] [--drain-ms N]\n"
        "  bench-client <file.rpc> --port N [--host H] [--requests N]\n"
        "      [--clients N] [--pipeline N] [--seed N] [--budget X]\n"
        "      [--retries N] [--deadline-ms N] [--client-id N]\n"
        "  version          build, SIMD backend, and CPU features\n"
        "  <command> --help describes the command's options.\n"
        "--threads N sets the worker count of the flat evaluation\n"
        "engine (0 = hardware concurrency); results are identical for\n"
        "any thread count.\n"
        "--shards N sets the sample-shard count of learning reductions\n"
        "(EM flows, Baum-Welch; 0 = auto), and --fast-reductions trades\n"
        "the thread-count-independent fixed reduction shape for\n"
        "per-worker sharding.\n");
    return 2;
}

int
cmdVersion()
{
    std::printf("reason_cli (%s build)\n", REASON_BUILD_TYPE);
    std::printf("flags:        %s\n", REASON_BUILD_FLAGS);
    // Two backends can differ: the compile-time floor every inline
    // pack op uses, and the runtime-dispatched kernel table picked for
    // the hot block kernels (widest ISA the host CPU supports).
    std::printf("simd backend: %s (%u-wide native lanes, 8-lane "
                "packs)\n",
                simd::isaName(), simd::nativeLanes());
    std::printf("simd kernels: %s (runtime-selected)\n",
                simd::activeIsaName());
    std::printf("cpu features: %s\n", simd::cpuFeatures());
    if (std::strcmp(simd::isaName(), "scalar") == 0)
        std::printf("note: scalar fallback build — results are "
                    "bit-identical to every SIMD backend\n");
    return 0;
}

/**
 * Parse a decimal count argument in [min_value, max_value]; returns
 * false (instead of throwing, like std::stoull) on garbage, overflow,
 * or out-of-range values so subcommands can fall back to usage().
 */
bool
parseCount(const std::string &text, uint64_t min_value,
           uint64_t max_value, uint64_t *out)
{
    if (text.empty())
        return false;
    uint64_t value = 0;
    for (char ch : text) {
        if (ch < '0' || ch > '9')
            return false;
        if (value > (max_value - (ch - '0')) / 10)
            return false; // overflow past max_value
        value = value * 10 + uint64_t(ch - '0');
    }
    if (value < min_value)
        return false;
    *out = value;
    return true;
}

/**
 * Parse an accuracy-budget argument: a plain non-negative finite
 * decimal.  Negative values, NaN, infinities, and any trailing
 * garbage are *rejected* (never silently clamped) so a typo'd budget
 * fails loudly at the command line instead of quietly changing the
 * serving tier.
 */
bool
parseBudget(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false; // non-numeric or trailing garbage
    if (!(value >= 0.0) || std::isinf(value))
        return false; // NaN fails the comparison; negatives/inf explicit
    *out = value;
    return true;
}

// ---------------------------------------------------------------------------
// Shared subcommand option parser.
//
// Every subcommand used to hand-roll the same loop (match flag, check
// for a value, parseCount, fall back to usage()); the table below
// keeps the parsing, validation, and --help rendering in one place.
// ---------------------------------------------------------------------------

/** One subcommand option: a flag, a count, a real, or a path. */
struct CliOption
{
    enum class Kind : uint8_t { Flag, Count, Real, Text };

    const char *name = nullptr;
    Kind kind = Kind::Flag;
    uint64_t minValue = 0;
    uint64_t maxValue = 0;
    bool *flagOut = nullptr;
    uint64_t *countOut = nullptr;
    double *realOut = nullptr;
    std::string *textOut = nullptr;
    const char *help = "";
};

CliOption
flagOpt(const char *name, bool *out, const char *help)
{
    CliOption o;
    o.name = name;
    o.kind = CliOption::Kind::Flag;
    o.flagOut = out;
    o.help = help;
    return o;
}

CliOption
countOpt(const char *name, uint64_t min_value, uint64_t max_value,
         uint64_t *out, const char *help)
{
    CliOption o;
    o.name = name;
    o.kind = CliOption::Kind::Count;
    o.minValue = min_value;
    o.maxValue = max_value;
    o.countOut = out;
    o.help = help;
    return o;
}

CliOption
realOpt(const char *name, double *out, const char *help)
{
    CliOption o;
    o.name = name;
    o.kind = CliOption::Kind::Real;
    o.realOut = out;
    o.help = help;
    return o;
}

CliOption
textOpt(const char *name, std::string *out, const char *help)
{
    CliOption o;
    o.name = name;
    o.kind = CliOption::Kind::Text;
    o.textOut = out;
    o.help = help;
    return o;
}

enum class ParseStatus { Ok, Error, Help };

void
printCommandHelp(const char *command, const char *positional,
                 const std::vector<CliOption> &options)
{
    std::fprintf(stderr, "usage: reason_cli %s %s", command, positional);
    for (const CliOption &o : options)
        std::fprintf(stderr, " [%s%s]", o.name,
                     o.kind == CliOption::Kind::Flag    ? ""
                     : o.kind == CliOption::Kind::Count ? " N"
                     : o.kind == CliOption::Kind::Real  ? " X"
                                                        : " <path>");
    std::fprintf(stderr, "\n");
    for (const CliOption &o : options)
        std::fprintf(stderr, "  %-16s %s\n", o.name, o.help);
}

/**
 * Parse args[first..] against the option table.  Unknown flags,
 * missing values, and out-of-range counts report the offending
 * argument and return Error.  (`--help` detection lives in
 * parseSubcommand, which pre-scans all arguments.)
 */
ParseStatus
parseCommandOptions(const char *command,
                    const std::vector<std::string> &args, size_t first,
                    const std::vector<CliOption> &options)
{
    // --help/-h is handled by parseSubcommand's pre-scan (it must work
    // even in place of the positional argument), not here.
    for (size_t i = first; i < args.size(); ++i) {
        const CliOption *match = nullptr;
        for (const CliOption &o : options)
            if (args[i] == o.name) {
                match = &o;
                break;
            }
        if (match == nullptr) {
            std::fprintf(stderr, "reason_cli %s: unknown option '%s'\n",
                         command, args[i].c_str());
            return ParseStatus::Error;
        }
        if (match->kind == CliOption::Kind::Flag) {
            *match->flagOut = true;
            continue;
        }
        if (i + 1 >= args.size()) {
            std::fprintf(stderr,
                         "reason_cli %s: option '%s' needs a value\n",
                         command, match->name);
            return ParseStatus::Error;
        }
        const std::string &value = args[++i];
        if (match->kind == CliOption::Kind::Text) {
            *match->textOut = value;
            continue;
        }
        if (match->kind == CliOption::Kind::Real) {
            if (!parseBudget(value, match->realOut)) {
                std::fprintf(stderr,
                             "reason_cli %s: bad value '%s' for '%s' "
                             "(want a non-negative finite number)\n",
                             command, value.c_str(), match->name);
                return ParseStatus::Error;
            }
            continue;
        }
        if (!parseCount(value, match->minValue, match->maxValue,
                        match->countOut)) {
            std::fprintf(stderr,
                         "reason_cli %s: bad value '%s' for '%s'\n",
                         command, value.c_str(), match->name);
            return ParseStatus::Error;
        }
    }
    return ParseStatus::Ok;
}

/**
 * Common subcommand prologue: `--help` anywhere prints the synopsis; a
 * missing positional argument is an error.  Returns Ok when parsing
 * may proceed.
 */
ParseStatus
parseSubcommand(const char *command, const char *positional,
                const std::vector<std::string> &args,
                const std::vector<CliOption> &options)
{
    for (const std::string &a : args)
        if (a == "--help" || a == "-h") {
            printCommandHelp(command, positional, options);
            return ParseStatus::Help;
        }
    if (args.empty())
        return ParseStatus::Error;
    return parseCommandOptions(command, args, 1, options);
}

logic::CnfFormula
loadDimacs(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return logic::CnfFormula::parseDimacs(text.str());
}

pc::Circuit
loadCircuit(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return pc::parseText(text.str());
}

int
cmdSolve(const std::vector<std::string> &args)
{
    uint64_t budget = 0;
    bool no_preprocess = false;
    const std::vector<CliOption> options = {
        countOpt("--budget", 0, ~uint64_t(0), &budget,
                 "conflict budget (0 = unlimited)"),
        flagOpt("--no-preprocess", &no_preprocess,
                "skip the preprocessing pipeline"),
    };
    switch (parseSubcommand("solve", "<file.cnf>", args, options)) {
      case ParseStatus::Help: return 0;
      case ParseStatus::Error: return usage();
      case ParseStatus::Ok: break;
    }
    const bool preprocess = !no_preprocess;

    logic::CnfFormula f = loadDimacs(args[0]);
    std::printf("instance: %u vars, %zu clauses, %zu literals\n",
                f.numVars(), f.numClauses(), f.numLiterals());

    logic::Preprocessor pre(f);
    logic::CnfFormula simplified = f;
    if (preprocess) {
        pre.run();
        simplified = pre.simplified();
        const auto &ps = pre.stats();
        std::printf("preprocess: %zu -> %zu clauses (units %llu, pures "
                    "%llu, subsumed %llu, strengthened %llu, failed "
                    "lits %llu, BVE vars %llu)\n",
                    ps.clausesBefore, ps.clausesAfter,
                    (unsigned long long)ps.unitsFixed,
                    (unsigned long long)ps.pureLiteralsFixed,
                    (unsigned long long)ps.subsumedClauses,
                    (unsigned long long)ps.strengthenedClauses,
                    (unsigned long long)ps.failedLiterals,
                    (unsigned long long)ps.eliminatedVars);
        if (pre.knownUnsat()) {
            std::printf("result: UNSAT (by preprocessing)\n");
            return 20;
        }
    }

    logic::SolverConfig cfg;
    cfg.conflictBudget = budget;
    logic::CdclSolver solver(simplified, cfg);
    logic::SolveResult res = solver.solve();
    const auto &st = solver.stats();
    std::printf("result: %s\n",
                res == logic::SolveResult::Sat     ? "SAT"
                : res == logic::SolveResult::Unsat ? "UNSAT"
                                                   : "UNKNOWN (budget)");
    std::printf("search: %llu decisions, %llu propagations, %llu "
                "conflicts, %llu learned clauses, %llu restarts\n",
                (unsigned long long)st.decisions,
                (unsigned long long)st.propagations,
                (unsigned long long)st.conflicts,
                (unsigned long long)st.learnedClauses,
                (unsigned long long)st.restarts);

    if (res == logic::SolveResult::Sat) {
        std::vector<bool> model = solver.model();
        if (preprocess)
            model = pre.reconstructModel(model);
        if (!f.evaluate(model))
            panic("model fails to satisfy the original formula");
        std::printf("model verified against the original formula\n");
    }

    // What would this search cost on the accelerator?
    arch::ArchConfig acfg;
    size_t db_bytes = simplified.numLiterals() * 8;
    uint64_t cycles = arch::estimateCdclCycles(st, db_bytes, acfg);
    double seconds = double(cycles) * acfg.cycleSeconds();
    StatGroup ev;
    ev.inc("agg_decisions", st.decisions);
    ev.inc("agg_propagations", st.propagations);
    ev.inc("agg_literal_visits", st.literalVisits);
    ev.inc("cycles", cycles);
    energy::EnergyModel em;
    double joules =
        em.dynamicEnergyJoules(ev) + em.staticWatts() * seconds;
    std::printf("REASON estimate: %llu cycles (%.3f ms @ %.1f GHz), "
                "%.3f mJ\n",
                (unsigned long long)cycles, seconds * 1e3, acfg.clockGhz,
                joules * 1e3);
    return res == logic::SolveResult::Sat ? 10
           : res == logic::SolveResult::Unsat ? 20
                                              : 0;
}

int
cmdCount(const std::vector<std::string> &args)
{
    std::string nnf_path;
    const std::vector<CliOption> options = {
        textOpt("--nnf", &nnf_path, "export the d-DNNF in c2d format"),
    };
    switch (parseSubcommand("count", "<file.cnf>", args, options)) {
      case ParseStatus::Help: return 0;
      case ParseStatus::Error: return usage();
      case ParseStatus::Ok: break;
    }
    logic::CnfFormula f = loadDimacs(args[0]);
    logic::DnnfGraph g = logic::compileToDnnf(f);
    const auto &st = g.stats();
    std::printf("d-DNNF: %zu nodes, %zu edges (%llu decisions, %llu "
                "cache hits, %llu component splits)\n",
                g.numNodes(), g.numEdges(),
                (unsigned long long)st.decisions,
                (unsigned long long)st.cacheHits,
                (unsigned long long)st.componentSplits);
    std::printf("models: %.0f of 2^%u assignments\n", g.modelCount(),
                f.numVars());
    if (!nnf_path.empty()) {
        std::ofstream out(nnf_path);
        if (!out)
            fatal("cannot write '%s'", nnf_path.c_str());
        out << logic::toC2dFormat(g);
        std::printf("wrote c2d NNF to %s\n", nnf_path.c_str());
    }
    return 0;
}

int
cmdMarginals(const std::vector<std::string> &args)
{
    std::string pc_path;
    const std::vector<CliOption> options = {
        textOpt("--pc", &pc_path, "save the circuit in rpc text form"),
    };
    switch (parseSubcommand("marginals", "<file.cnf>", args, options)) {
      case ParseStatus::Help: return 0;
      case ParseStatus::Error: return usage();
      case ParseStatus::Ok: break;
    }
    logic::CnfFormula f = loadDimacs(args[0]);
    logic::DnnfGraph g = logic::compileToDnnf(f);
    if (g.modelCount() <= 0.0) {
        std::printf("formula is unsatisfiable; no conditional "
                    "distribution exists\n");
        return 20;
    }
    pc::Circuit circuit =
        pc::fromDnnf(g, logic::LitWeights::uniform(f.numVars()));
    std::printf("circuit: %zu nodes, %zu edges (smooth & decomposable)\n",
                circuit.numNodes(), circuit.numEdges());

    pc::Assignment no_evidence(f.numVars(), pc::kMissing);
    pc::MarginalTable table =
        pc::posteriorMarginals(circuit, no_evidence);
    for (uint32_t v = 0; v < f.numVars(); ++v)
        std::printf("  P(x%-3u = 1 | phi) = %.6f\n", v + 1,
                    table.prob[v][1]);
    if (!pc_path.empty()) {
        std::ofstream out(pc_path);
        if (!out)
            fatal("cannot write '%s'", pc_path.c_str());
        out << pc::toText(circuit);
        std::printf("wrote circuit to %s\n", pc_path.c_str());
    }
    return 0;
}

int
cmdCompile(const std::vector<std::string> &args)
{
    bool disasm = false;
    const std::vector<CliOption> options = {
        flagOpt("--disasm", &disasm, "print the program disassembly"),
    };
    switch (parseSubcommand("compile", "<file.cnf>", args, options)) {
      case ParseStatus::Help: return 0;
      case ParseStatus::Error: return usage();
      case ParseStatus::Ok: break;
    }

    logic::CnfFormula f = loadDimacs(args[0]);
    core::Dag dag = core::buildFromCnf(f);
    std::printf("unified DAG: %zu nodes, %zu edges\n", dag.numNodes(),
                dag.numEdges());

    arch::ArchConfig acfg;
    compiler::Program program =
        compiler::compile(dag, acfg.compilerTarget());
    std::printf("program: %zu blocks, %zu issue slots, leaf "
                "utilization %.0f%%\n",
                program.stats.numBlocks, program.schedule.size(),
                program.stats.avgLeafUtilization * 100.0);

    auto expl =
        compiler::encodeProgram(program, compiler::AddressMode::Explicit);
    auto autom =
        compiler::encodeProgram(program, compiler::AddressMode::Auto);
    std::printf("encoded size: %.2f KB explicit, %.2f KB auto-address "
                "(instruction-stream saving %.1f%%)\n",
                expl.kilobytes(), autom.kilobytes(),
                compiler::autoAddressSaving(program) * 100.0);

    // Evaluate the all-true assignment on the fabric.
    std::vector<double> inputs(dag.numInputs(), 1.0);
    arch::Accelerator accel(acfg);
    auto result = accel.run(program, inputs);
    std::printf("simulated: root=%g (formula %s under all-true), %llu "
                "cycles, PE utilization %.1f%%\n",
                result.rootValue,
                result.rootValue > 0.5 ? "satisfied" : "falsified",
                (unsigned long long)result.cycles,
                result.peUtilization * 100.0);

    if (disasm)
        std::fputs(compiler::disassemble(program).c_str(), stdout);
    return 0;
}

int
cmdFit(const std::vector<std::string> &args)
{
    uint64_t samples = 2000;
    uint64_t iters = 10;
    uint64_t seed = 1;
    std::string out_path;
    const std::vector<CliOption> options = {
        countOpt("--samples", 1, uint64_t(1) << 30, &samples,
                 "training samples drawn from the circuit"),
        countOpt("--iters", 1, 1u << 20, &iters,
                 "maximum EM iterations"),
        countOpt("--seed", 0, ~uint64_t(0), &seed, "sampling RNG seed"),
        textOpt("--out", &out_path, "write the fitted circuit here"),
    };
    switch (parseSubcommand("fit", "<file.rpc>", args, options)) {
      case ParseStatus::Help: return 0;
      case ParseStatus::Error: return usage();
      case ParseStatus::Ok: break;
    }

    pc::Circuit circuit = loadCircuit(args[0]);
    std::printf("circuit: %zu nodes, %zu edges, %u vars\n",
                circuit.numNodes(), circuit.numEdges(),
                circuit.numVars());

    Rng rng(seed);
    std::vector<pc::Assignment> data =
        pc::sampleDataset(rng, circuit, size_t(samples));
    pc::EmOptions opts; // inherits --shards / --fast-reductions
    opts.maxIterations = uint32_t(iters);
    const unsigned shards = util::resolveShardCount(
        opts.shards, opts.deterministic, data.size(),
        util::globalThreads());
    std::printf("fit: %zu samples, <=%u iterations, %u worker(s), "
                "%u shard(s), %s reductions\n",
                data.size(), opts.maxIterations, util::globalThreads(),
                shards,
                opts.deterministic ? "deterministic" : "fast");

    pc::EmTrace trace = pc::emTrain(circuit, data, opts);
    for (size_t i = 0; i < trace.logLikelihood.size(); ++i)
        std::printf("  iter %2zu: mean LL %.9f\n", i,
                    trace.logLikelihood[i]);
    double gain = trace.logLikelihood.back() - trace.logLikelihood[0];
    std::printf("converged after %u iteration(s), LL gain %.3e\n",
                trace.iterations, gain);
    if (gain < 0.0)
        // EM with Laplace smoothing is monotone in the *smoothed*
        // objective; at small sample counts the pseudo-counts can
        // legitimately pull the raw data LL down.
        std::printf("note: negative gain — smoothing pseudo-counts "
                    "(%.3g per count) dominate at this sample size\n",
                    opts.smoothing);

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            fatal("cannot write '%s'", out_path.c_str());
        out << pc::toText(circuit);
        std::printf("wrote fitted circuit to %s\n", out_path.c_str());
    }
    return 0;
}

int
cmdQuery(const std::vector<std::string> &args)
{
    double budget = 0.0;
    uint64_t rows = 8;
    uint64_t seed = 1;
    uint64_t missing_pct = 0;
    const std::vector<CliOption> options = {
        realOpt("--budget", &budget,
                "accuracy budget (0 = exact tier, >0 = approximate "
                "tier with certified bounds)"),
        countOpt("--rows", 1, 1u << 20, &rows,
                 "queries sampled from the circuit"),
        countOpt("--seed", 0, ~uint64_t(0), &seed,
                 "query sampling RNG seed"),
        countOpt("--missing-pct", 0, 100, &missing_pct,
                 "percent of variables marginalized out per query"),
    };
    switch (parseSubcommand("query", "<file.rpc>", args, options)) {
      case ParseStatus::Help: return 0;
      case ParseStatus::Error: return usage();
      case ParseStatus::Ok: break;
    }

    pc::Circuit circuit = loadCircuit(args[0]);
    std::printf("circuit: %zu nodes, %zu edges, %u vars\n",
                circuit.numNodes(), circuit.numEdges(),
                circuit.numVars());

    Rng rng(seed);
    std::vector<pc::Assignment> queries =
        pc::sampleDataset(rng, circuit, size_t(rows));
    for (pc::Assignment &x : queries)
        for (uint32_t &v : x)
            if (rng.uniformInt(0, 99) < int64_t(missing_pct))
                v = pc::kMissing;

    // Through the engine, not a local evaluator: this is the serving
    // stack's tier-selection path (budget 0 = exact tier, positive =
    // approximate tier with certified bounds).
    sys::ReasonEngine engine;
    sys::Session session = engine.createSession(circuit);
    const bool approx = budget > 0.0;
    std::printf("tier: %s (budget %g)\n",
                approx ? "approximate" : "exact", budget);

    for (size_t q = 0; q < queries.size(); ++q) {
        const auto r = session.wait(session.submit(queries[q], budget));
        if (r->error != sys::REASON_OK)
            fatal("query %zu failed with error %d", q, r->error);
        if (approx)
            std::printf("row %3zu: log p = %.12f  bound [%.12f, "
                        "%.12f]\n",
                        q, r->outputs[0], r->boundLo[0],
                        r->boundHi[0]);
        else
            std::printf("row %3zu: log p = %.12f\n", q, r->outputs[0]);
    }
    return 0;
}

/** Map a --policy argument onto the queue policy enum. */
bool
parseQueuePolicy(const std::string &text, sys::QueuePolicy *out)
{
    if (text == "reject") {
        *out = sys::QueuePolicy::RejectNew;
        return true;
    }
    if (text == "shed") {
        *out = sys::QueuePolicy::ShedOldest;
        return true;
    }
    return false;
}

#if REASON_HAS_SOCKETS

/** SIGINT/SIGTERM flag observed by the serve loop (graceful drain). */
volatile std::sig_atomic_t g_stop_signal = 0;

void
handleStopSignal(int)
{
    g_stop_signal = 1;
}

/**
 * `serve`: run the reusable socket front-end (sys::SocketServer) on
 * loopback TCP.  Prints the bound address (port 0 resolves to an
 * ephemeral port) before accepting, so scripts can wait for readiness.  SIGINT/SIGTERM trigger a graceful drain:
 * admission closes, queued work finishes within --drain-ms, the rest
 * expires, every in-flight answer is flushed (within a second
 * --drain-ms), and the exit code says whether the drain was clean.
 */
int
runServeSocket(const pc::Circuit &circuit,
               const sys::ServeOptions &serve, double maxBudget,
               uint16_t port, unsigned idleTimeoutMs,
               uint64_t drainDeadlineNs)
{
    sys::ReasonEngine engine(serve);
    sys::ServerOptions options;
    options.port = port;
    options.maxBudget = maxBudget;
    options.idleTimeoutMs = idleTimeoutMs;
    options.drainDeadlineNs = drainDeadlineNs;
    sys::SocketServer server(engine, pc::cachedLowering(circuit),
                             options);
    std::string error;
    if (!server.start(&error))
        fatal("cannot serve on 127.0.0.1:%u: %s", unsigned(port),
              error.c_str());
    std::printf("listening on 127.0.0.1:%u\n",
                unsigned(server.port()));
    std::fflush(stdout);

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = handleStopSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    while (g_stop_signal == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const bool clean = server.stop();
    const sys::ServerStats st = server.stats();
    const sys::EngineStats es = engine.stats();
    std::printf("drain: %s (%llu connections, %llu refused, %llu "
                "submits, %llu duplicates suppressed, %llu version "
                "rejects, %llu expired; %.2f rows/batch, queue %.3f ms, "
                "exec %.3f ms mean)\n",
                clean ? "clean" : "queued work expired",
                (unsigned long long)st.connections,
                (unsigned long long)st.connectionsRejected,
                (unsigned long long)st.submits,
                (unsigned long long)st.duplicatesSuppressed,
                (unsigned long long)st.versionRejects,
                (unsigned long long)es.expired, es.meanBatchOccupancy,
                es.meanQueueMs, es.meanLatencyMs - es.meanQueueMs);
    if (sys::FaultPlan *plan = sys::activeFaultPlan()) {
        const sys::FaultStats fs = plan->stats();
        std::printf("faults injected: %llu resets, %llu torn frames, "
                    "%llu short reads, %llu partial writes, %llu "
                    "delays, %llu stalls\n",
                    (unsigned long long)fs.resets,
                    (unsigned long long)fs.tornFrames,
                    (unsigned long long)fs.shortReads,
                    (unsigned long long)fs.partialWrites,
                    (unsigned long long)fs.delays,
                    (unsigned long long)fs.stalls);
    }
    return clean ? 0 : 1;
}

/** Aggregated outcome of one bench-client worker (one connection). */
struct BenchClientResult
{
    std::vector<sys::QueryOutcome> outcomes;
    sys::ClientStats stats;
    bool ok = false;
};

#endif // REASON_HAS_SOCKETS

int
cmdBenchClient(const std::vector<std::string> &args)
{
    uint64_t port = 0;
    std::string host = "127.0.0.1";
    uint64_t requests = 2000;
    uint64_t clients = 2;
    uint64_t pipeline = 64;
    uint64_t seed = 1;
    uint64_t retries = 16;
    uint64_t deadline_ms = 0;
    uint64_t client_id = 1;
    double budget = 0.0;
    const std::vector<CliOption> options = {
        countOpt("--port", 1, 65535, &port,
                 "server port (see `serve --listen`)"),
        realOpt("--budget", &budget,
                "accuracy budget: 0 = exact tier, >0 = approximate "
                "tier (bounds verified bitwise)"),
        textOpt("--host", &host, "server address (default loopback)"),
        countOpt("--requests", 1, uint64_t(1) << 30, &requests,
                 "total queries submitted across clients"),
        countOpt("--clients", 1, 256, &clients,
                 "client threads, one connection each"),
        countOpt("--pipeline", 1, 1u << 20, &pipeline,
                 "max in-flight requests per connection"),
        countOpt("--seed", 0, ~uint64_t(0), &seed,
                 "query sampling RNG seed"),
        countOpt("--retries", 0, 1u << 20, &retries,
                 "consecutive reconnect attempts before giving up"),
        countOpt("--deadline-ms", 0, 1u << 30, &deadline_ms,
                 "per-query deadline, on the wire and client-side "
                 "(0 = none)"),
        countOpt("--client-id", 0, ~uint64_t(0), &client_id,
                 "client identity base for idempotent retry (worker c "
                 "uses id+c; 0 = anonymous, no duplicate "
                 "suppression)"),
    };
    switch (parseSubcommand("bench-client", "<file.rpc>", args,
                            options)) {
      case ParseStatus::Help: return 0;
      case ParseStatus::Error: return usage();
      case ParseStatus::Ok: break;
    }
    if (port == 0) {
        std::fprintf(stderr, "bench-client: --port is required\n");
        return usage();
    }
#if !REASON_HAS_SOCKETS
    fatal("bench-client requires POSIX sockets (unavailable on this "
          "platform)");
#else
    pc::Circuit circuit = loadCircuit(args[0]);
    Rng rng(seed);
    const std::vector<pc::Assignment> queries =
        pc::sampleDataset(rng, circuit, size_t(requests));

    std::vector<double> values(queries.size(), 0.0);
    std::vector<double> bounds_lo(queries.size(), 0.0);
    std::vector<double> bounds_hi(queries.size(), 0.0);
    std::vector<uint8_t> got(queries.size(), 0);
    std::vector<std::vector<size_t>> slices(clients);
    for (size_t q = 0; q < queries.size(); ++q)
        slices[q % clients].push_back(q);
    const bool approx = budget > 0.0;

    std::printf("bench-client: %zu requests, %llu connection(s), "
                "pipeline %llu, %s:%llu\n",
                queries.size(), (unsigned long long)clients,
                (unsigned long long)pipeline, host.c_str(),
                (unsigned long long)port);

    std::vector<BenchClientResult> results(clients);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (uint64_t c = 0; c < clients; ++c)
        workers.emplace_back([&, c] {
            sys::ClientOptions copt;
            copt.host = host;
            copt.port = uint16_t(port);
            copt.clientId =
                client_id == 0 ? 0 : client_id + c;
            copt.pipeline = size_t(pipeline);
            copt.maxRetries = unsigned(retries);
            copt.seed = seed ^ (0x9e3779b97f4a7c15ull * (c + 1));
            copt.budget = budget;
            copt.deadlineNs = deadline_ms * 1'000'000ull;
            sys::Client client(copt);
            std::vector<pc::Assignment> mine;
            mine.reserve(slices[c].size());
            for (size_t q : slices[c])
                mine.push_back(queries[q]);
            results[c].ok =
                client.runBatch(mine, &results[c].outcomes);
            results[c].stats = client.stats();
        });
    for (std::thread &w : workers)
        w.join();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();

    bool transport_ok = true;
    uint64_t overloads = 0;
    uint64_t deadline_errors = 0;
    uint64_t other_errors = 0;
    sys::ClientStats rstats;
    std::vector<uint64_t> all_lat;
    for (uint64_t c = 0; c < clients; ++c) {
        const BenchClientResult &r = results[c];
        transport_ok = transport_ok && r.ok;
        rstats.connects += r.stats.connects;
        rstats.connectFailures += r.stats.connectFailures;
        rstats.retriesSent += r.stats.retriesSent;
        rstats.transportErrors += r.stats.transportErrors;
        for (size_t i = 0; i < r.outcomes.size(); ++i) {
            const sys::QueryOutcome &o = r.outcomes[i];
            const size_t q = slices[c][i];
            if (o.error == sys::REASON_OK) {
                if (o.tier != (approx ? 1 : 0)) {
                    ++other_errors; // wrong tier is a protocol bug
                    continue;
                }
                values[q] = o.value;
                if (approx) {
                    bounds_lo[q] = o.boundLo;
                    bounds_hi[q] = o.boundHi;
                }
                got[q] = 1;
                all_lat.push_back(o.latencyNs);
            } else if (o.error == sys::REASON_ERR_OVERLOAD) {
                ++overloads;
            } else if (o.error ==
                       sys::REASON_ERR_DEADLINE_EXCEEDED) {
                ++deadline_errors;
            } else if (o.error != sys::kClientErrTransport &&
                       o.error != sys::kClientErrVersionMismatch) {
                ++other_errors;
            }
            // Client-side transport/version outcomes are already
            // reflected in transport_ok via runBatch's return.
        }
    }
    std::sort(all_lat.begin(), all_lat.end());
    auto percentile = [&](double p) {
        if (all_lat.empty())
            return 0.0;
        const size_t idx = std::min(
            all_lat.size() - 1, size_t(p * double(all_lat.size())));
        return double(all_lat[idx]) * 1e-6;
    };

    // Bitwise verification against in-process one-at-a-time
    // submission — the serving determinism contract made observable
    // from outside the process.  On the approximate tier the interval
    // endpoints must match bit-for-bit too, not just the values.
    sys::ReasonEngine reference;
    sys::Session session = reference.createSession(circuit);
    uint64_t mismatches = 0;
    size_t answered = 0;
    std::vector<double> remote_answered;
    std::vector<double> local_answered;
    for (size_t q = 0; q < queries.size(); ++q) {
        if (!got[q])
            continue;
        ++answered;
        const auto r =
            session.wait(session.submit(queries[q], budget));
        if (r->error != sys::REASON_OK) {
            ++mismatches; // remote answered, local failed
            continue;
        }
        remote_answered.push_back(values[q]);
        local_answered.push_back(r->outputs[0]);
        if (std::bit_cast<uint64_t>(values[q]) !=
            std::bit_cast<uint64_t>(r->outputs[0]))
            ++mismatches;
        if (approx &&
            (std::bit_cast<uint64_t>(bounds_lo[q]) !=
                 std::bit_cast<uint64_t>(r->boundLo[0]) ||
             std::bit_cast<uint64_t>(bounds_hi[q]) !=
                 std::bit_cast<uint64_t>(r->boundHi[0])))
            ++mismatches;
    }

    const size_t completed =
        answered + size_t(overloads) + size_t(deadline_errors);
    std::printf("completed %zu/%zu in %.3f ms: %.1f req/s\n",
                completed, queries.size(), wall_ms,
                double(completed) / (wall_ms * 1e-3));
    std::printf("latency: p50 %.3f ms, p99 %.3f ms\n",
                percentile(0.50), percentile(0.99));
    std::printf("errors: %llu overload, %llu deadline, %llu other\n",
                (unsigned long long)overloads,
                (unsigned long long)deadline_errors,
                (unsigned long long)other_errors);
    std::printf("resilience: %llu connects, %llu connect failures, "
                "%llu retries, %llu transport errors\n",
                (unsigned long long)rstats.connects,
                (unsigned long long)rstats.connectFailures,
                (unsigned long long)rstats.retriesSent,
                (unsigned long long)rstats.transportErrors);
    std::printf("bitwise: %llu mismatches over %zu answered "
                "(checksum remote %016llx local %016llx)\n",
                (unsigned long long)mismatches, answered,
                (unsigned long long)wire::checksumValues(
                    remote_answered.data(), remote_answered.size()),
                (unsigned long long)wire::checksumValues(
                    local_answered.data(), local_answered.size()));
    if (!transport_ok)
        std::fprintf(stderr, "bench-client: transport failure\n");
    return transport_ok && mismatches == 0 && other_errors == 0 ? 0
                                                                : 1;
#endif
}

int
cmdServe(const std::vector<std::string> &args)
{
    uint64_t max_batch = 64;
    uint64_t serve_threads = 1;
    uint64_t dispatchers = 1;
    uint64_t capacity = 0;
    std::string policy_text = "reject";
    uint64_t listen_port = 0;
    uint64_t idle_timeout_ms = 0;
    uint64_t drain_ms = 5000;
    std::string fault_spec;
    // Sentinel -1 = uncapped; parseBudget only ever writes
    // non-negative finite values, so any explicit --max-budget caps.
    double max_budget = -1.0;
    std::vector<CliOption> options = {
        countOpt("--listen", 0, 65535, &listen_port,
                 "loopback TCP port (default 0: an ephemeral port, "
                 "printed on the `listening on` line)"),
        countOpt("--max-batch", 1, 1u << 20, &max_batch,
                 "most rows per coalesced evaluation (a dispatcher "
                 "takes what is queued and never waits to fill one)"),
        countOpt("--serve-threads", 0, util::kMaxThreads,
                 &serve_threads,
                 "engine evaluation pool workers (0 = hardware)"),
        countOpt("--dispatchers", 1, util::kMaxThreads, &dispatchers,
                 "dispatcher threads draining the queue"),
        countOpt("--capacity", 0, uint64_t(1) << 30, &capacity,
                 "queue capacity before shedding (0 = unbounded)"),
        textOpt("--policy", &policy_text,
                "full-queue policy: reject (new) or shed (oldest)"),
        realOpt("--max-budget", &max_budget,
                "largest accuracy budget accepted over the wire "
                "(default: uncapped)"),
        textOpt("--fault-plan", &fault_spec,
                "deterministic fault-injection spec, e.g. "
                "seed=7,reset=0.01,torn=0.02,short=0.1 (also read "
                "from REASON_FAULT_PLAN)"),
        countOpt("--idle-timeout-ms", 0, 1u << 30, &idle_timeout_ms,
                 "close connections that sent nothing and are owed "
                 "nothing this long (0 = never)"),
        countOpt("--drain-ms", 0, 1u << 30, &drain_ms,
                 "graceful-drain deadline on SIGINT/SIGTERM"),
    };
    switch (parseSubcommand("serve", "<file.rpc>", args, options)) {
      case ParseStatus::Help: return 0;
      case ParseStatus::Error: return usage();
      case ParseStatus::Ok: break;
    }
    sys::QueuePolicy policy = sys::QueuePolicy::RejectNew;
    if (!parseQueuePolicy(policy_text, &policy)) {
        std::fprintf(stderr, "serve: unknown --policy '%s'\n",
                     policy_text.c_str());
        return usage();
    }

    pc::Circuit circuit = loadCircuit(args[0]);
    std::printf("circuit: %zu nodes, %zu edges, %u vars\n",
                circuit.numNodes(), circuit.numEdges(),
                circuit.numVars());

    sys::ServeOptions serve;
    serve.maxBatch = unsigned(max_batch);
    serve.serveThreads = unsigned(serve_threads);
    serve.dispatchers = unsigned(dispatchers);
    serve.queueCapacity = size_t(capacity);
    serve.queuePolicy = policy;

    // A fault plan makes the serving stack misbehave on purpose;
    // static because the installation is process-global and must
    // outlive every connection handler.
    static sys::FaultPlan fault_plan;
    if (fault_spec.empty()) {
        if (const char *env = std::getenv("REASON_FAULT_PLAN"))
            fault_spec = env;
    }
    if (!fault_spec.empty()) {
        std::string fault_error;
        if (!sys::FaultPlan::parse(fault_spec, &fault_plan,
                                   &fault_error))
            fatal("serve: bad --fault-plan: %s", fault_error.c_str());
        if (fault_plan.enabled()) {
            sys::installFaultPlan(&fault_plan);
            std::printf("fault plan: %s\n",
                        fault_plan.describe().c_str());
        }
    }

#if REASON_HAS_SOCKETS
    return runServeSocket(circuit, serve, max_budget,
                          uint16_t(listen_port), unsigned(idle_timeout_ms),
                          drain_ms * 1'000'000ull);
#else
    fatal("serve requires POSIX sockets (unavailable on this platform)");
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> all(argv + 1, argv + argc);
    // Global flags precede the subcommand.
    size_t at = 0;
    util::ReductionPolicy reductions = util::reductionPolicy();
    while (at < all.size() && all[at].rfind("--", 0) == 0) {
        unsigned threads = 0;
        if (all[at] == "--version") {
            return cmdVersion();
        } else if (all[at] == "--threads" && at + 1 < all.size() &&
            util::parseThreadCount(all[at + 1].c_str(), &threads)) {
            util::setGlobalThreads(threads);
            at += 2;
        } else if (all[at] == "--shards" && at + 1 < all.size()) {
            // Shard counts are clamped to the dataset size downstream,
            // so unlike --threads they are not bounded by kMaxThreads.
            uint64_t shards = 0;
            if (!parseCount(all[at + 1], 0, uint64_t(1) << 30, &shards))
                return usage();
            reductions.shards = unsigned(shards);
            at += 2;
        } else if (all[at] == "--fast-reductions") {
            reductions.deterministic = false;
            at += 1;
        } else {
            return usage();
        }
    }
    util::setReductionPolicy(reductions);
    if (at >= all.size())
        return usage();
    std::string cmd = all[at];
    std::vector<std::string> args(all.begin() + at + 1, all.end());
    if (cmd == "version")
        return cmdVersion();
    if (cmd == "solve")
        return cmdSolve(args);
    if (cmd == "count")
        return cmdCount(args);
    if (cmd == "marginals")
        return cmdMarginals(args);
    if (cmd == "compile")
        return cmdCompile(args);
    if (cmd == "fit")
        return cmdFit(args);
    if (cmd == "query")
        return cmdQuery(args);
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "bench-client")
        return cmdBenchClient(args);
    return usage();
}
