/**
 * @file
 * Differential harness for the direct CNF → d-DNNF → FlatCircuit
 * compilation route.
 *
 * A 200-formula randomized corpus (mixed clause lengths, unit clauses,
 * duplicated clauses, pure literals, planted-SAT and forced-UNSAT
 * instances, unused variables) drives every formula through four
 * independent routes to the same weighted model count:
 *
 *   1. legacy Dag route:   compileToDnnf + DnnfGraph::wmc
 *   2. direct flat route:  flatFromDnnf + flatLogWmc
 *   3. streamed route:     toC2dFormat → streamNnfToFlat (asserted
 *                          byte-identical to route 2's CSR arrays)
 *   4. brute force:        assignment enumeration (<= 20 vars)
 *
 * Agreement is bitwise or within 1e-10 relative.  The same corpus
 * checks evidence queries against conditionalMarginal, fingerprint
 * stability across routes (pc/flat_cache interop), and end-to-end
 * serving of compiled knowledge bases through ReasonEngine sessions
 * across coalescing shapes.  Committed `.nnf` fixtures exercise the
 * streaming loader against on-disk inputs, and a >100k-node input
 * generated in memory exercises it at scale.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "logic/cnf.h"
#include "logic/knowledge.h"
#include "logic/nnf_io.h"
#include "pc/flat_cache.h"
#include "pc/flat_pc.h"
#include "pc/from_logic.h"
#include "sys/engine.h"
#include "util/rng.h"

namespace reason {
namespace pc {
namespace {

using logic::Clause;
using logic::CnfFormula;
using logic::DnnfGraph;
using logic::Lit;
using logic::LitWeights;
using logic::NnfError;
using logic::plantedKSat;
using sys::REASON_OK;

/** Bitwise equality or 1e-10 relative agreement. */
bool
closeEnough(double a, double b)
{
    if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b))
        return true;
    double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= 1e-10 * scale;
}

bool
bitEqual(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Route 4: enumerate every assignment. */
double
bruteForceWmc(const CnfFormula &f, const LitWeights &w)
{
    uint32_t n = f.numVars();
    double total = 0.0;
    for (uint64_t m = 0; m < (uint64_t(1) << n); ++m) {
        std::vector<bool> a(n);
        for (uint32_t v = 0; v < n; ++v)
            a[v] = (m >> v) & 1;
        if (!f.evaluate(a))
            continue;
        double p = 1.0;
        for (uint32_t v = 0; v < n; ++v)
            p *= a[v] ? w.pos[v] : w.neg[v];
        total += p;
    }
    return total;
}

/**
 * The 200-formula corpus.  Four families in rotation, all <= 12 vars
 * so route 4 stays cheap:
 *   - mixed random CNF, clause lengths 1..4 (unit clauses and pure
 *     literals arise naturally), every third one with a duplicated
 *     clause appended;
 *   - planted 3-SAT (guaranteed satisfiable);
 *   - forced UNSAT (a random core plus x ∧ ¬x);
 *   - sparse formulas over more vars than they mention (unused
 *     variables exercise smoothing/padding on the flat routes).
 */
std::vector<CnfFormula>
buildCorpus(Rng &rng)
{
    std::vector<CnfFormula> corpus;
    auto randomClause = [&](CnfFormula &f, uint32_t vars, uint32_t len) {
        Clause c;
        for (uint32_t i = 0; i < len; ++i)
            c.push_back(Lit::make(uint32_t(rng.uniformInt(0, vars - 1)),
                                  rng.bernoulli(0.5)));
        f.addClause(c);
    };
    while (corpus.size() < 200) {
        switch (corpus.size() % 4) {
          case 0: {
            uint32_t vars = uint32_t(rng.uniformInt(2, 12));
            uint32_t clauses = uint32_t(rng.uniformInt(1, vars * 3));
            CnfFormula f;
            f.ensureVars(vars);
            for (uint32_t c = 0; c < clauses; ++c)
                randomClause(f, vars, uint32_t(rng.uniformInt(1, 4)));
            if (corpus.size() % 3 == 0 && f.numClauses() > 0)
                f.addClause(f.clauses()[0]); // duplicate clause
            corpus.push_back(std::move(f));
            break;
          }
          case 1: {
            uint32_t vars = uint32_t(rng.uniformInt(4, 12));
            corpus.push_back(plantedKSat(rng, vars, vars * 3, 3));
            break;
          }
          case 2: {
            uint32_t vars = uint32_t(rng.uniformInt(2, 10));
            CnfFormula f;
            f.ensureVars(vars);
            for (uint32_t c = 0; c < vars; ++c)
                randomClause(f, vars, uint32_t(rng.uniformInt(2, 3)));
            f.addClause({1});
            f.addClause({-1}); // force UNSAT
            corpus.push_back(std::move(f));
            break;
          }
          default: {
            uint32_t vars = uint32_t(rng.uniformInt(6, 12));
            CnfFormula f;
            f.ensureVars(vars); // mention only the first few vars
            uint32_t used = uint32_t(rng.uniformInt(1, 3));
            for (uint32_t c = 0; c < used * 2; ++c)
                randomClause(f, used, uint32_t(rng.uniformInt(1, 3)));
            corpus.push_back(std::move(f));
            break;
          }
        }
    }
    return corpus;
}

/** Assert the streamed load is byte-identical to the direct lowering. */
void
expectSameArrays(const FlatCircuit &a, const FlatCircuit &b)
{
    ASSERT_EQ(a.numVars, b.numVars);
    ASSERT_EQ(a.arity, b.arity);
    ASSERT_EQ(a.root, b.root);
    ASSERT_EQ(a.types, b.types);
    ASSERT_EQ(a.edgeOffset, b.edgeOffset);
    ASSERT_EQ(a.edgeTarget, b.edgeTarget);
    ASSERT_EQ(a.leafSlot, b.leafSlot);
    ASSERT_EQ(a.leafVar, b.leafVar);
    ASSERT_EQ(a.edgeLogWeight.size(), b.edgeLogWeight.size());
    for (size_t i = 0; i < a.edgeLogWeight.size(); ++i)
        ASSERT_TRUE(bitEqual(a.edgeLogWeight[i], b.edgeLogWeight[i]))
            << "edge " << i;
    ASSERT_EQ(a.leafLogDist.size(), b.leafLogDist.size());
    for (size_t i = 0; i < a.leafLogDist.size(); ++i)
        ASSERT_TRUE(bitEqual(a.leafLogDist[i], b.leafLogDist[i]))
            << "slot " << i;
}

TEST(CompileFlat, FourRouteDifferential)
{
    Rng rng(0xd1ff);
    std::vector<CnfFormula> corpus = buildCorpus(rng);
    ASSERT_EQ(corpus.size(), 200u);

    size_t unsat_seen = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
        const CnfFormula &f = corpus[i];
        SCOPED_TRACE("formula " + std::to_string(i));
        DnnfGraph g = logic::compileToDnnf(f);

        LitWeights weightings[2] = {
            LitWeights::uniform(f.numVars()),
            LitWeights::random(rng, f.numVars()),
        };
        for (const LitWeights &w : weightings) {
            // Route 1: legacy Dag evaluation.
            double dag_wmc = g.wmc(w);

            // Route 2: direct flat lowering.
            FlatCircuit direct = flatFromDnnf(g, w);
            double flat_log = flatLogWmc(direct);
            double flat_wmc = std::exp(flat_log);

            // Route 3: stream the c2d text back into flat form.
            std::istringstream in(logic::toC2dFormat(g));
            FlatCircuit streamed;
            NnfError err;
            ASSERT_TRUE(streamNnfToFlat(in, w, &streamed, &err))
                << err.message << " (line " << err.line << ")";
            expectSameArrays(direct, streamed);
            ASSERT_TRUE(bitEqual(flatLogWmc(streamed), flat_log));

            // Route 4: brute force.
            double brute = bruteForceWmc(f, w);

            EXPECT_TRUE(closeEnough(dag_wmc, flat_wmc))
                << dag_wmc << " vs " << flat_wmc;
            EXPECT_TRUE(closeEnough(dag_wmc, brute))
                << dag_wmc << " vs " << brute;
            EXPECT_TRUE(closeEnough(flat_wmc, brute))
                << flat_wmc << " vs " << brute;
            if (brute == 0.0) {
                EXPECT_TRUE(std::isinf(flat_log) && flat_log < 0.0);
                ++unsat_seen;
            }
        }
    }
    EXPECT_GE(unsat_seen, 50u) << "corpus lost its UNSAT family";
}

TEST(CompileFlat, EvidenceQueriesMatchConditionalMarginal)
{
    Rng rng(0xe51d);
    for (int trial = 0; trial < 24; ++trial) {
        uint32_t vars = uint32_t(rng.uniformInt(3, 10));
        CnfFormula f = plantedKSat(rng, vars, vars * 2, 3);
        LitWeights w = LitWeights::random(rng, vars);
        double z = logic::weightedModelCount(f, w);
        ASSERT_GT(z, 0.0);

        FlatCircuit flat = compileCnfFlat(f, w);
        CircuitEvaluator eval(flat);
        for (uint32_t v = 0; v < vars; ++v) {
            Assignment x(vars, kMissing);
            x[v] = 1;
            double joint = std::exp(eval.logLikelihood(x));
            double marginal = logic::conditionalMarginal(f, w, v);
            EXPECT_TRUE(closeEnough(joint / z, marginal))
                << "var " << v << ": " << joint / z << " vs "
                << marginal;
        }
    }
}

TEST(CompileFlat, FingerprintStableAcrossRoutes)
{
    Rng rng(0xf19);
    std::vector<uint64_t> prints;
    for (int trial = 0; trial < 12; ++trial) {
        uint32_t vars = uint32_t(rng.uniformInt(3, 10));
        CnfFormula f = plantedKSat(rng, vars, vars * 2, 3);
        LitWeights w = LitWeights::random(rng, vars);
        DnnfGraph g = logic::compileToDnnf(f);

        FlatCircuit direct = flatFromDnnf(g, w);
        FlatCircuit again = flatFromDnnf(g, w);
        std::istringstream in(logic::toC2dFormat(g));
        FlatCircuit streamed;
        NnfError err;
        ASSERT_TRUE(streamNnfToFlat(in, w, &streamed, &err))
            << err.message;

        uint64_t fp = structuralFingerprint(direct);
        EXPECT_EQ(fp, structuralFingerprint(again));
        EXPECT_EQ(fp, structuralFingerprint(streamed));
        prints.push_back(fp);
    }
    // Distinct formulas should not collide (12 draws, 64-bit space).
    std::sort(prints.begin(), prints.end());
    EXPECT_EQ(std::unique(prints.begin(), prints.end()), prints.end());
}

TEST(CompileFlat, FlatCacheInterop)
{
    // The heap-Circuit route must fingerprint identically whether
    // lowered directly or served from the process-wide lowering cache.
    Rng rng(0xcace);
    for (int trial = 0; trial < 8; ++trial) {
        uint32_t vars = uint32_t(rng.uniformInt(3, 9));
        CnfFormula f = plantedKSat(rng, vars, vars * 2, 3);
        Circuit c = compileCnf(f);
        uint64_t direct = structuralFingerprint(FlatCircuit(c));
        uint64_t cached = structuralFingerprint(*cachedLowering(c));
        EXPECT_EQ(direct, cached);
        EXPECT_EQ(cached, structuralFingerprint(*cachedLowering(c)));
    }
}

TEST(CompileFlat, EngineServesCompiledKnowledgeBases)
{
    // Serve a compiled KB end to end: outputs must be bit-identical
    // across engines with different coalescing shapes and equal to the
    // in-process evaluator.
    Rng rng(0x5e1f);
    for (int kb = 0; kb < 4; ++kb) {
        uint32_t vars = uint32_t(rng.uniformInt(4, 10));
        CnfFormula f = plantedKSat(rng, vars, vars * 3, 3);
        LitWeights w = LitWeights::random(rng, vars);
        auto flat = std::make_shared<const FlatCircuit>(
            flatFromDnnf(logic::compileToDnnf(f), w));

        std::vector<Assignment> rows;
        rows.emplace_back(vars, kMissing); // full WMC query
        for (int r = 0; r < 12; ++r) {
            Assignment x(vars, kMissing);
            for (uint32_t v = 0; v < vars; ++v)
                if (rng.bernoulli(0.4))
                    x[v] = uint32_t(rng.uniformInt(0, 1));
            rows.push_back(std::move(x));
        }

        CircuitEvaluator eval(*flat);
        std::vector<double> reference;
        for (const Assignment &x : rows)
            reference.push_back(eval.logLikelihood(x));

        for (unsigned max_batch : {1u, 8u, 64u}) {
            sys::ServeOptions opt;
            opt.maxBatch = max_batch;
            sys::ReasonEngine engine(opt);
            sys::Session session = engine.createSession(flat);

            // One bulk request and a burst of singles.
            auto bulk = session.wait(session.submitBatch(rows));
            ASSERT_EQ(bulk->error, REASON_OK);
            ASSERT_EQ(bulk->outputs.size(), rows.size());
            for (size_t r = 0; r < rows.size(); ++r) {
                EXPECT_TRUE(bitEqual(bulk->outputs[r], reference[r]))
                    << "kb " << kb << " maxBatch " << max_batch
                    << " row " << r;
                auto one = session.wait(session.submit(rows[r]));
                ASSERT_EQ(one->error, REASON_OK);
                EXPECT_TRUE(bitEqual(one->outputs[0], reference[r]))
                    << "kb " << kb << " maxBatch " << max_batch
                    << " row " << r;
            }
        }
    }
}

#ifdef REASON_NNF_FIXTURE_DIR

std::string
readFixture(const std::string &name)
{
    std::ifstream in(std::string(REASON_NNF_FIXTURE_DIR) + "/" + name);
    EXPECT_TRUE(in.good()) << "missing fixture " << name;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(CompileFlat, SmallFixturesAgreeAcrossRoutes)
{
    const char *kFixtures[] = {"true.nnf", "false.nnf", "lit.nnf",
                               "xor2.nnf", "chain.nnf"};
    for (const char *name : kFixtures) {
        SCOPED_TRACE(name);
        std::string text = readFixture(name);
        NnfError err;
        DnnfGraph g = logic::parseC2dFormat(text, &err);
        ASSERT_TRUE(err.ok()) << err.message;
        LitWeights w = LitWeights::uniform(g.numVars());

        std::istringstream in(text);
        FlatCircuit streamed;
        ASSERT_TRUE(streamNnfToFlat(in, w, &streamed, &err))
            << err.message;
        EXPECT_TRUE(closeEnough(std::exp(flatLogWmc(streamed)),
                                g.wmc(w)));
    }
}

#endif // REASON_NNF_FIXTURE_DIR

/**
 * A c2d-format input of 100,240 nodes: 20 variables, their 40
 * literals, then 33,400 XNOR gadgets.  Gadget t (i = t mod 20) is
 * (x_i AND x_{i+1}) OR (NOT x_i AND NOT x_{i+1}), indices mod 20.
 */
std::string
xnorChainNnf()
{
    constexpr uint32_t kVars = 20;
    constexpr uint32_t kGadgets = 33400;
    std::ostringstream out;
    out << "nnf " << 2 * kVars + 3 * kGadgets << ' ' << 6 * kGadgets
        << ' ' << kVars << '\n';
    for (uint32_t v = 1; v <= kVars; ++v)
        out << "L " << v << '\n';
    for (uint32_t v = 1; v <= kVars; ++v)
        out << "L -" << v << '\n';
    for (uint32_t t = 0; t < kGadgets; ++t) {
        const uint32_t i = t % kVars;
        const uint32_t j = (i + 1) % kVars;
        const uint32_t id = 2 * kVars + 3 * t;
        out << "A 2 " << i << ' ' << j << '\n'
            << "A 2 " << kVars + i << ' ' << kVars + j << '\n'
            << "O " << i + 1 << " 2 " << id << ' ' << id + 1 << '\n';
    }
    return out.str();
}

TEST(CompileFlat, StreamsHundredThousandNodeFixture)
{
    // The streaming loader's reason to exist: an input larger than any
    // in-memory Dag the tests otherwise build.  Parse it twice and
    // check node count and fingerprint identity across repeated loads.
    // No gadget feeds another, so only the last one is reachable from
    // the root: the WMC agreement with the Dag route covers that one
    // gadget.
    std::string text = xnorChainNnf();
    LitWeights w = LitWeights::uniform(20);

    std::istringstream in1(text);
    FlatCircuit first;
    NnfError err;
    ASSERT_TRUE(streamNnfToFlat(in1, w, &first, &err))
        << err.message << " (line " << err.line << ")";
    EXPECT_GT(first.numNodes(), 100000u);

    NnfError perr;
    DnnfGraph g = logic::parseC2dFormat(text, &perr);
    ASSERT_TRUE(perr.ok()) << perr.message;
    EXPECT_GT(g.numNodes(), 100000u);
    EXPECT_TRUE(closeEnough(std::exp(flatLogWmc(first)), g.wmc(w)));

    std::istringstream in2(text);
    FlatCircuit second;
    ASSERT_TRUE(streamNnfToFlat(in2, w, &second, &err));
    EXPECT_EQ(structuralFingerprint(first),
              structuralFingerprint(second));
}

} // namespace
} // namespace pc
} // namespace reason
