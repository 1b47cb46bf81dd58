/**
 * @file
 * Tests for serialization: d-DNNF c2d `.nnf` round trips (structure,
 * model counts, weighted counts), probabilistic-circuit rpc text round
 * trips (structure and likelihoods), and malformed-input rejection.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "logic/cnf.h"
#include "logic/knowledge.h"
#include "logic/nnf_io.h"
#include "pc/from_logic.h"
#include "pc/io.h"
#include "pc/pc.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::logic;

class NnfIoSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(NnfIoSweep, C2dRoundTripPreservesSemantics)
{
    Rng rng(GetParam());
    CnfFormula f = randomKSat(rng, 10, 32, 3);
    DnnfGraph g = compileToDnnf(f);

    std::string text = toC2dFormat(g);
    DnnfGraph h = parseC2dFormat(text);
    h.validate();

    // Export drops unreachable (hash-consed but unused) nodes.
    EXPECT_LE(h.numNodes(), g.numNodes());
    EXPECT_EQ(h.numVars(), g.numVars());
    EXPECT_DOUBLE_EQ(h.modelCount(), g.modelCount());

    LitWeights w = LitWeights::random(rng, 10);
    EXPECT_DOUBLE_EQ(h.wmc(w), g.wmc(w));

    for (int trial = 0; trial < 16; ++trial) {
        std::vector<bool> x(10);
        for (uint32_t v = 0; v < 10; ++v)
            x[v] = rng.bernoulli(0.5);
        EXPECT_EQ(h.isModel(x), g.isModel(x));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NnfIoSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(NnfIo, TrivialGraphs)
{
    CnfFormula empty(3);
    DnnfGraph g = parseC2dFormat(toC2dFormat(compileToDnnf(empty)));
    EXPECT_DOUBLE_EQ(g.modelCount(), 8.0);

    CnfFormula contra(2);
    contra.addClause({1});
    contra.addClause({-1});
    DnnfGraph h = parseC2dFormat(toC2dFormat(compileToDnnf(contra)));
    EXPECT_DOUBLE_EQ(h.modelCount(), 0.0);
}

TEST(NnfIo, HeaderCountsMatchBody)
{
    CnfFormula f(2);
    f.addClause({1, 2});
    DnnfGraph g = compileToDnnf(f);
    std::string text = toC2dFormat(g);
    DnnfGraph h = parseC2dFormat(text);
    std::string expected = "nnf " + std::to_string(h.numNodes()) + " " +
                           std::to_string(h.numEdges()) + " 2";
    EXPECT_EQ(text.substr(0, expected.size()), expected);
}

TEST(NnfIo, RejectsMalformedInput)
{
    EXPECT_DEATH(parseC2dFormat("garbage"), "header");
    EXPECT_DEATH(parseC2dFormat("nnf 1 0 2\nX 1"), "unknown node tag");
    EXPECT_DEATH(parseC2dFormat("nnf 2 1 2\nL 1\nA 1 5"),
                 "bad child reference");
    EXPECT_DEATH(parseC2dFormat("nnf 3 0 2\nL 1"), "declared");
}

// ---------------------------------------------------------------------------
// Probabilistic-circuit rpc text format
// ---------------------------------------------------------------------------

class PcIoSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PcIoSweep, RoundTripPreservesLikelihoods)
{
    Rng rng(GetParam());
    uint32_t arity = 2 + GetParam() % 3;
    pc::Circuit c = pc::randomCircuit(rng, 7, arity, 2, 3);

    pc::Circuit d = pc::parseText(pc::toText(c));
    EXPECT_EQ(d.numNodes(), c.numNodes());
    EXPECT_EQ(d.numEdges(), c.numEdges());
    EXPECT_EQ(d.numVars(), c.numVars());
    EXPECT_EQ(d.arity(), c.arity());
    EXPECT_EQ(d.isSmoothAndDecomposable(), c.isSmoothAndDecomposable());

    for (int trial = 0; trial < 24; ++trial) {
        pc::Assignment x(7);
        for (auto &v : x) {
            v = uint32_t(rng.uniformInt(0, arity));
            if (v == arity)
                v = pc::kMissing; // exercise marginalized slots too
        }
        EXPECT_NEAR(d.logLikelihood(x), c.logLikelihood(x), 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PcIoSweep,
                         ::testing::Values(10, 11, 12, 13, 14, 15));

TEST(PcIo, CompiledGuardCircuitRoundTrips)
{
    Rng rng(9);
    CnfFormula rules = plantedKSat(rng, 8, 18, 3);
    pc::Circuit c = pc::compileCnf(rules, LitWeights::random(rng, 8));
    pc::Circuit d = pc::parseText(pc::toText(c));
    pc::Assignment q(8, pc::kMissing);
    q[3] = 1;
    EXPECT_NEAR(d.logLikelihood(q), c.logLikelihood(q), 1e-12);
}

TEST(PcIo, RejectsMalformedInput)
{
    EXPECT_DEATH(pc::parseText("spn 1"), "header");
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 0 arity 2\nroot 0"),
                 "dimension");
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 2 arity 2\nl 5 0.5 0.5\n"
                               "root 0"),
                 "leaf variable");
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 2 arity 2\nl 0 0.5 0.5\n"
                               "p 1 7\nroot 1"),
                 "child reference");
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 2 arity 2\nl 0 0.5 0.5\n"),
                 "missing root");
    // Inputs that once tripped a Circuit assert, a sampler panic or an
    // uncaught bad_alloc: each is a parseText error now.
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 1 arity 1\nl 0 1\nroot 0"),
                 "parseText: malformed dimension");
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 1 arity 2\nl 0 0 0\nroot 0"),
                 "parseText: leaf mass .* node 0");
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 1 arity 2\nl 0 1 0\n"
                               "s 1 0 0\nroot 1"),
                 "parseText: sum weights .* node 1");
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 1 arity 2\nl 0 1e308 1e308\n"
                               "root 0"),
                 "parseText: leaf mass .* node 0");
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 1 arity 2\nl 0 1 0\n"
                               "p 999999999999 0\nroot 1"),
                 "parseText: bad child reference at node 1");
    EXPECT_DEATH(pc::parseText("rpc 1\nvars 1 arity 4000000000\n"
                               "l 0 1 0\nroot 0"),
                 "parseText: bad leaf distribution at node 0");
}

TEST(PcIo, TextIsHumanReadable)
{
    pc::Circuit c(2, 2);
    auto l0 = c.addLeaf(0, {0.25, 0.75});
    auto l1 = c.addLeaf(1, {0.5, 0.5});
    c.markRoot(c.addProduct({l0, l1}));
    std::string text = pc::toText(c);
    EXPECT_NE(text.find("rpc 1"), std::string::npos);
    EXPECT_NE(text.find("vars 2 arity 2"), std::string::npos);
    EXPECT_NE(text.find("l 0 0.25 0.75"), std::string::npos);
    EXPECT_NE(text.find("p 2 0 1"), std::string::npos);
    EXPECT_NE(text.find("root 2"), std::string::npos);
}
