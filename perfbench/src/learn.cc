/**
 * @file
 * The `learn_em` workload: in-process flow-based EM (pc::emTrain) in
 * deterministic sharded mode on a 4-worker pool.  One unit of work is
 * one EM iteration over the whole dataset; a fit is a chain of
 * one-iteration emTrain calls from the loaded parameters, so every
 * iteration is timed on its own.
 */

#include <limits>
#include <stdexcept>

#include "pc/flat_cache.h"
#include "pc/flat_pc.h"
#include "pc/io.h"
#include "pc/learn.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace reason;

namespace {

constexpr unsigned kWorkers = 4;
constexpr int kSetups = 7;

struct LearnSize
{
    uint32_t vars;
    size_t rows;
    uint32_t iterations;
};

pc::EmOptions
emOptions(uint32_t iterations)
{
    pc::EmOptions em;
    em.maxIterations = iterations;
    // Never stop early: every fit runs the same number of iterations.
    em.tolerance = -std::numeric_limits<double>::infinity();
    em.shards = 0;
    em.deterministic = true;
    return em;
}

/** Parsed, lowered and warmed circuit: the first answer is ready. */
struct LearnSetup
{
    pc::Circuit circuit{1, 2};
    double parseMs = 0.0;
    double lowerMs = 0.0;
    double setupS = 0.0;
};

LearnSetup
setUp(const std::string &path, const std::vector<pc::Assignment> &data)
{
    pc::clearFlatCache(); // every set-up starts cold, like a new process
    trace::Span span("setup");
    LearnSetup s;
    const Clock::time_point t0 = Clock::now();
    std::string text;
    {
        trace::Span sp("pc.io:readFile");
        text = readFile(path);
    }
    Clock::time_point t = Clock::now();
    {
        trace::Span sp("pc.io:parseText");
        s.circuit = pc::parseText(text);
    }
    s.parseMs = msSince(t);
    t = Clock::now();
    {
        trace::Span sp("pc.flat_cache:cachedLowering");
        pc::cachedLowering(s.circuit);
    }
    s.lowerMs = msSince(t);
    {
        // The initial likelihood is the first answer; it also starts
        // the worker pool and the evaluator scratch.
        trace::Span sp("pc.learn:meanLogLikelihood");
        pc::meanLogLikelihood(s.circuit, data);
    }
    s.setupS = msSince(t0) * 1e-3;
    return s;
}

struct LearnPhase
{
    uint64_t iterations = 0;
    uint64_t okIterations = 0;
    std::vector<double> iterationMs;
    TrialStats trials;
    double wallS = 0.0;
    double stealFrac = 0.0;
    size_t fits = 0;
    uint64_t decreases = 0;
    uint64_t traceMismatches = 0;
    uint64_t paramMismatches = 0;
};

/**
 * One fit from `initial`: a chain of one-iteration emTrain calls,
 * each timed and checked against the 1-worker reference.
 */
void
fitOnce(const pc::Circuit &initial, const std::vector<pc::Assignment> &data,
        const LearnSize &size, const pc::Circuit &reference,
        const pc::EmTrace &refTrace, LearnPhase &p,
        std::vector<double> &trialMs, uint64_t &trialOk)
{
    trace::Span fit("pc.learn:fit", trace::newRequestId());
    const pc::EmOptions one = emOptions(1);
    pc::Circuit c = initial;
    uint64_t ok = 0;
    for (uint32_t it = 0; it < size.iterations; ++it) {
        const Clock::time_point t = Clock::now();
        pc::EmTrace tr;
        {
            trace::Span sp("pc.learn:emTrain");
            tr = pc::emTrain(c, data, one);
        }
        trialMs.push_back(msSince(t));
        ++p.iterations;
        const std::vector<double> &ll = tr.logLikelihood;
        const bool shaped = ll.size() == 2;
        const bool rising = shaped && ll[1] >= ll[0];
        const bool same = shaped &&
                          bitsEqual(ll[0], refTrace.logLikelihood[it]) &&
                          bitsEqual(ll[1], refTrace.logLikelihood[it + 1]);
        p.decreases += !rising;
        p.traceMismatches += !same;
        ok += rising && same;
    }
    const size_t wrong = countParamMismatches(c, reference);
    p.paramMismatches += wrong;
    // A fit whose parameters differ fails every iteration in it.
    trialOk += wrong == 0 ? ok : 0;
    ++p.fits;
}

/** Fit again and again for kTrials trials of `seconds / kTrials`. */
LearnPhase
measure(const pc::Circuit &initial, const std::vector<pc::Assignment> &data,
        const LearnSize &size, const pc::Circuit &reference,
        const pc::EmTrace &refTrace, double seconds)
{
    trace::Span span("measure");
    LearnPhase p;
    const auto trialLength = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / kTrials));
    const StealMeter steal;
    for (int i = 0; i < kTrials; ++i) {
        const Clock::time_point t0 = Clock::now();
        std::vector<double> trialMs;
        uint64_t trialOk = 0;
        while (Clock::now() < t0 + trialLength)
            fitOnce(initial, data, size, reference, refTrace, p, trialMs,
                    trialOk);
        const double wallS = msSince(t0) * 1e-3;
        p.trials.add(double(size.rows) * double(trialOk), wallS, trialMs);
        p.iterationMs.insert(p.iterationMs.end(), trialMs.begin(),
                             trialMs.end());
        p.okIterations += trialOk;
        p.wallS += wallS;
    }
    p.stealFrac = steal.fraction();
    return p;
}

void
checkPhase(const LearnPhase &p, const char *phase, Outcome &out)
{
    out.check(p.decreases == 0,
              format("%s: EM log-likelihood decreased %llu times", phase,
                     (unsigned long long)p.decreases));
    out.check(p.traceMismatches == 0,
              format("%s: %llu iterations differ from the 1-worker trace",
                     phase, (unsigned long long)p.traceMismatches));
    out.check(p.paramMismatches == 0,
              format("%s: %llu fitted parameters differ from the 1-worker "
                     "fit",
                     phase, (unsigned long long)p.paramMismatches));
}

/** learn.* probes on the loaded circuit. */
void
probeLearn(const pc::Circuit &circuit,
           const std::vector<pc::Assignment> &data,
           const LearnPhase &traced, Outcome &out)
{
    const std::shared_ptr<const pc::FlatCircuit> flat =
        pc::cachedLowering(circuit);
    probeFlatUpward(*flat, data, out);

    trace::Span span("pc.learn:probe");
    const pc::FlowShardOptions shards{0, true};
    const auto estepMs = [&](util::ThreadPool &pool) {
        std::vector<double> ms;
        for (int i = 0; i < 3; ++i) {
            trace::Span sp("pc.flat:accumulateDatasetFlows");
            const Clock::time_point t = Clock::now();
            const pc::DatasetFlows flows =
                pc::accumulateDatasetFlows(*flat, data, shards, &pool);
            ms.push_back(msSince(t));
        }
        return median(ms);
    };
    util::ThreadPool pool4(kWorkers);
    util::ThreadPool pool1(1);
    const double e4 = estepMs(pool4);
    const double e1 = estepMs(pool1);
    out.perLayer["learn.estep_ms"] = e4;
    out.perLayer["learn.estep_ms_1t"] = e1;
    out.perLayer["learn.estep_scaling"] = e1 / e4;
    out.perLayer["learn.mstep_ms"] = median(traced.iterationMs) - e4;

    pc::FlowAccumulator flows(*flat, &pool1);
    size_t next = 0;
    const double flowUs = timePerCallUs([&] {
        flows.add(data[next]);
        next = (next + 1) % data.size();
    });
    out.perLayer["learn.down_over_up"] =
        flowUs / out.perLayer["flat.upward_us_per_row_b64"];
}

} // namespace

Outcome
runLearnEm(const Options &o)
{
    Outcome out;
    const LearnSize size = o.tiny ? LearnSize{20, 64, 2}
                                  : LearnSize{400, 128, 3};
    Rng rng(o.seed);
    const pc::Circuit teacher = pc::randomCircuit(rng, size.vars, 2, 8, 16);
    const std::vector<pc::Assignment> data =
        pc::sampleDataset(rng, teacher, size.rows);
    const pc::Circuit student = pc::randomCircuit(rng, size.vars, 2, 8, 16);
    const std::string path = o.workDir + "/learn_em-" +
                             std::to_string(o.seed) + ".rpc";
    if (!writeRpc(student, path))
        throw std::runtime_error("cannot write " + path);
    out.note(format("inputs: %zu nodes, %zu edges, %u vars; %zu training "
                    "rows x %u EM iterations per fit, %u workers",
                    student.numNodes(), student.numEdges(),
                    student.numVars(), size.rows, size.iterations,
                    kWorkers));

    // The reference: an untimed 1-worker fit from the parameters as
    // loaded (parseText re-normalizes, so not the generated ones).
    // Matching it checks that deterministic sharding does not depend
    // on the worker count.
    util::setGlobalThreads(1);
    pc::Circuit reference = pc::parseText(readFile(path));
    const pc::EmTrace refTrace =
        pc::emTrain(reference, data, emOptions(size.iterations));
    util::setGlobalThreads(kWorkers);
    if (o.corruptReference) {
        for (pc::NodeId id = 0; id < reference.numNodes(); ++id) {
            pc::PcNode &n = reference.mutableNode(id);
            if (!n.weights.empty()) {
                n.weights[0] = flipLowBit(n.weights[0]);
                break;
            }
        }
    }

    std::vector<double> setupS, parseMs, lowerMs;
    const auto record = [&](const LearnSetup &s) {
        setupS.push_back(s.setupS);
        parseMs.push_back(s.parseMs);
        lowerMs.push_back(s.lowerMs);
    };
    LearnSetup s = setUp(path, data);
    record(s);
    const LearnPhase plain =
        measure(s.circuit, data, size, reference, refTrace,
                phaseSeconds(o));
    checkPhase(plain, "measure", out);
    // Read before the extra set-ups, as the serving workloads do.
    out.endToEnd["peak_rss_mb"] = peakRssMb();
    for (int k = 1; k < (o.tiny ? 2 : kSetups); ++k)
        record(setUp(path, data));

    out.attempted = plain.iterations;
    out.failed = plain.iterations - plain.okIterations;
    plain.trials.report(out.endToEnd);
    out.note(plain.trials.describe());
    out.note("set-ups s:" + formatList(setupS));
    out.endToEnd["setup_s"] = median(setupS);
    out.note(format("samples: %zu iteration latencies in %zu fits over %d "
                    "trials, %zu set-ups; %.3f s; host CPU steal %.1f%%",
                    plain.iterationMs.size(), plain.fits, kTrials,
                    setupS.size(), plain.wallS, 100.0 * plain.stealFrac));
    out.note(format("checks: %llu LL decreases, %llu trace mismatches, "
                    "%llu parameter mismatches vs the 1-worker fit",
                    (unsigned long long)plain.decreases,
                    (unsigned long long)plain.traceMismatches,
                    (unsigned long long)plain.paramMismatches));

    if (o.trace) {
        trace::enable(true);
        s = setUp(path, data);
        parseMs.push_back(s.parseMs);
        lowerMs.push_back(s.lowerMs);
        const LearnPhase traced =
            measure(s.circuit, data, size, reference, refTrace,
                phaseSeconds(o));
        checkPhase(traced, "traced measure", out);
        addSetupMetrics(parseMs, lowerMs, out);
        out.perLayer["trace.overhead_frac"] =
            1.0 - median(traced.trials.rate) / median(plain.trials.rate);
        probeLearn(s.circuit, data, traced, out);
        finishTrace(o, out);
    }
    return out;
}

} // namespace perfbench
