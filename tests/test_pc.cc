/**
 * @file
 * Tests for probabilistic circuits: evaluation against brute-force
 * enumeration, normalization of smooth & decomposable circuits, circuit
 * flows (conservation laws), flow-based pruning (likelihood bound), and
 * EM parameter learning.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "pc/flows.h"
#include "pc/learn.h"
#include "pc/pc.h"
#include "util/numeric.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::pc;

namespace {

/** Tiny hand-built mixture over two binary variables. */
Circuit
tinyMixture()
{
    Circuit c(2, 2);
    NodeId l0 = c.addLeaf(0, {0.8, 0.2});
    NodeId l1 = c.addLeaf(1, {0.3, 0.7});
    NodeId p0 = c.addProduct({l0, l1});
    NodeId l2 = c.addLeaf(0, {0.1, 0.9});
    NodeId l3 = c.addLeaf(1, {0.5, 0.5});
    NodeId p1 = c.addProduct({l2, l3});
    NodeId s = c.addSum({p0, p1}, {0.6, 0.4});
    c.markRoot(s);
    c.validate();
    return c;
}

uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

/** Every sum weight and leaf probability, in node order. */
std::vector<double>
params(const Circuit &c)
{
    std::vector<double> out;
    for (NodeId id = 0; id < c.numNodes(); ++id) {
        const PcNode &n = c.node(id);
        out.insert(out.end(), n.weights.begin(), n.weights.end());
        out.insert(out.end(), n.dist.begin(), n.dist.end());
    }
    return out;
}

} // namespace

TEST(Circuit, HandComputedLikelihood)
{
    Circuit c = tinyMixture();
    // P(x0=0, x1=1) = 0.6*0.8*0.7 + 0.4*0.1*0.5 = 0.336 + 0.02 = 0.356
    EXPECT_NEAR(std::exp(c.logLikelihood({0, 1})), 0.356, 1e-12);
}

TEST(Circuit, MarginalizationViaMissing)
{
    Circuit c = tinyMixture();
    // Marginal over x1: P(x0=0) = 0.6*0.8 + 0.4*0.1 = 0.52
    EXPECT_NEAR(std::exp(c.logLikelihood({0, kMissing})), 0.52, 1e-12);
    // All-missing marginal = 1.
    EXPECT_NEAR(std::exp(c.logLikelihood({kMissing, kMissing})), 1.0,
                1e-12);
}

TEST(Circuit, SmoothDecomposableDetection)
{
    Circuit c = tinyMixture();
    EXPECT_TRUE(c.isSmoothAndDecomposable());

    // A sum over different scopes is not smooth.
    Circuit bad(2, 2);
    NodeId l0 = bad.addLeaf(0, {0.5, 0.5});
    NodeId l1 = bad.addLeaf(1, {0.5, 0.5});
    bad.markRoot(bad.addSum({l0, l1}, {0.5, 0.5}));
    EXPECT_FALSE(bad.isSmoothAndDecomposable());
}

/** Random circuits must be normalized: partition function = 1. */
class RandomCircuitProps : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomCircuitProps, PartitionFunctionIsOne)
{
    Rng rng(GetParam() * 33331 + 1);
    uint32_t vars = 4 + GetParam() % 4;
    Circuit c = randomCircuit(rng, vars, 2);
    EXPECT_TRUE(c.isSmoothAndDecomposable());
    EXPECT_NEAR(c.bruteForceLogZ(), 0.0, 1e-9);
}

TEST_P(RandomCircuitProps, MarginalEqualsSumOfCompletions)
{
    Rng rng(GetParam() * 911 + 2);
    Circuit c = randomCircuit(rng, 5, 2);
    // P(x0=1) must equal sum over completions of the other vars.
    Assignment q(5, kMissing);
    q[0] = 1;
    double marginal = std::exp(c.logLikelihood(q));
    double total = 0.0;
    for (uint32_t m = 0; m < 16; ++m) {
        Assignment x(5);
        x[0] = 1;
        for (uint32_t v = 1; v < 5; ++v)
            x[v] = (m >> (v - 1)) & 1;
        total += std::exp(c.logLikelihood(x));
    }
    EXPECT_NEAR(marginal, total, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomCircuitProps,
                         ::testing::Range(0, 12));

TEST(Circuit, MapCompletionIsConsistent)
{
    Circuit c = tinyMixture();
    Assignment partial{kMissing, 1};
    Assignment filled = c.mapCompletion(partial);
    EXPECT_EQ(filled[1], 1u);
    ASSERT_LT(filled[0], 2u);
    // MAP completion must have likelihood >= any other completion's
    // within the same evidence for this selective-enough circuit.
    Assignment other = filled;
    other[0] = 1 - filled[0];
    EXPECT_GE(c.logLikelihood(filled), c.logLikelihood(other) - 1e-9);
}

TEST(Circuit, SamplerMatchesDistribution)
{
    Rng rng(404);
    Circuit c = tinyMixture();
    auto data = sampleDataset(rng, c, 40000);
    // Empirical P(x0=0, x1=1) vs exact 0.356.
    size_t hits = 0;
    for (const auto &x : data)
        hits += (x[0] == 0 && x[1] == 1) ? 1 : 0;
    EXPECT_NEAR(double(hits) / data.size(), 0.356, 0.01);
}

TEST(Flows, RootFlowIsOneAndSumsConserve)
{
    Rng rng(5);
    Circuit c = randomCircuit(rng, 6, 2);
    auto data = sampleDataset(rng, c, 1);
    EdgeFlows ef = computeFlows(c, data[0]);
    EXPECT_DOUBLE_EQ(ef.nodeFlows[c.root()], 1.0);
    // For each sum node, child edge flows sum to the node's flow.
    for (NodeId id = 0; id < c.numNodes(); ++id) {
        const PcNode &n = c.node(id);
        if (n.type != PcNodeType::Sum)
            continue;
        double total = 0.0;
        for (size_t k = 0; k < n.children.size(); ++k)
            total += ef.flows[id][k];
        EXPECT_NEAR(total, ef.nodeFlows[id], 1e-9);
    }
}

TEST(Flows, ZeroEvidenceCarriesNoFlow)
{
    Circuit c(1, 2);
    NodeId leaf = c.addLeaf(0, {1.0, 0.0});
    c.markRoot(leaf);
    EdgeFlows ef = computeFlows(c, {1}); // impossible evidence
    EXPECT_DOUBLE_EQ(ef.nodeFlows[c.root()], 0.0);
}

TEST(PruneByFlow, KeepsCircuitValidAndBoundsLikelihood)
{
    Rng rng(6);
    Circuit c = randomCircuit(rng, 8, 2, 3, 6);
    auto data = sampleDataset(rng, c, 200);
    double ll_before = 0.0;
    for (const auto &x : data)
        ll_before += c.logLikelihood(x);
    ll_before /= double(data.size());

    PcPruneResult pr = pruneByFlow(c, data, 0.02);
    EXPECT_GT(pr.edgesRemoved, 0u);
    pr.pruned.validate();

    double ll_after = 0.0;
    for (const auto &x : data)
        ll_after += pr.pruned.logLikelihood(x);
    ll_after /= double(data.size());

    // Note: pruned sum weights are renormalized, which can only help;
    // the paper's bound applies to the unnormalized drop.
    EXPECT_GE(ll_after, ll_before - pr.logLikelihoodBound - 0.05);
}

TEST(PruneFraction, RemovesRequestedShare)
{
    Rng rng(7);
    Circuit c = randomCircuit(rng, 8, 2, 3, 6);
    auto data = sampleDataset(rng, c, 100);
    size_t sum_edges = 0;
    for (NodeId id = 0; id < c.numNodes(); ++id)
        if (c.node(id).type == PcNodeType::Sum)
            sum_edges += c.node(id).children.size();
    PcPruneResult pr = pruneFraction(c, data, 0.3);
    EXPECT_GT(pr.edgesRemoved, 0u);
    EXPECT_LE(pr.edgesRemoved, sum_edges);
    pr.pruned.validate();
    // Pruned circuit must still produce finite likelihoods on data.
    for (const auto &x : data)
        EXPECT_GT(pr.pruned.logLikelihood(x), kLogZero);
}

TEST(PruneFraction, NeverOrphansSumNodes)
{
    Rng rng(8);
    Circuit c = randomCircuit(rng, 6, 2, 2, 4);
    auto data = sampleDataset(rng, c, 50);
    PcPruneResult pr = pruneFraction(c, data, 0.9);
    for (NodeId id = 0; id < pr.pruned.numNodes(); ++id) {
        const PcNode &n = pr.pruned.node(id);
        if (n.type == PcNodeType::Sum) {
            EXPECT_GE(n.children.size(), 1u);
        }
    }
}

TEST(Em, TrainingImprovesLikelihood)
{
    Rng rng(9);
    // Data from a "true" circuit, model starts at random parameters.
    Circuit truth = randomCircuit(rng, 6, 2);
    auto data = sampleDataset(rng, truth, 400);
    Circuit model = randomCircuit(rng, 6, 2);
    double before = meanLogLikelihood(model, data);
    EmConfig cfg;
    cfg.maxIterations = 15;
    EmTrace trace = emTrain(model, data, cfg);
    double after = meanLogLikelihood(model, data);
    EXPECT_GT(after, before);
    EXPECT_GE(trace.logLikelihood.size(), 2u);
    // Trend is upward: final beats initial by a clear margin or the run
    // converged immediately.
    EXPECT_GE(after - before, -1e-9);
}

TEST(Em, KeepsParametersNormalized)
{
    Rng rng(10);
    Circuit model = randomCircuit(rng, 5, 2);
    auto data = sampleDataset(rng, model, 100);
    emTrain(model, data);
    model.validate(); // checks weight normalization
    EXPECT_NEAR(model.bruteForceLogZ(), 0.0, 1e-9);
}

TEST(Em, FirstLogLikelihoodIsTheInitialMeanBitwise)
{
    // The first E-step's upward half is the root pass, so the trace's
    // initial entry needs no pass of its own, and keeps its bits.
    Rng rng(12);
    const Circuit truth = randomCircuit(rng, 7, 3);
    const auto data = sampleDataset(rng, truth, 150);
    const Circuit model = randomCircuit(rng, 7, 3);
    const double want = meanLogLikelihood(model, data);
    for (unsigned shards : {0u, 1u, 5u}) {
        Circuit m = model;
        EmConfig cfg;
        cfg.maxIterations = 2;
        cfg.shards = shards;
        const EmTrace trace = emTrain(m, data, cfg);
        ASSERT_GE(trace.logLikelihood.size(), 2u);
        EXPECT_EQ(bits(trace.logLikelihood[0]), bits(want))
            << "shards=" << shards;
    }
    // No iterations: the initial likelihood alone, and no change.
    Circuit m = model;
    EmConfig none;
    none.maxIterations = 0;
    const EmTrace trace = emTrain(m, data, none);
    ASSERT_EQ(trace.logLikelihood.size(), 1u);
    EXPECT_EQ(bits(trace.logLikelihood[0]), bits(want));
    EXPECT_EQ(trace.iterations, 0u);
    EXPECT_EQ(params(m), params(model));
}

TEST(Em, ChainOfOneIterationFitsIsOneFitBitwise)
{
    Rng rng(13);
    const Circuit truth = randomCircuit(rng, 7, 2);
    const auto data = sampleDataset(rng, truth, 120);
    const Circuit model = randomCircuit(rng, 7, 2);
    EmConfig cfg;
    cfg.maxIterations = 4;
    cfg.tolerance = -std::numeric_limits<double>::infinity();
    Circuit whole = model;
    const EmTrace want = emTrain(whole, data, cfg);
    ASSERT_EQ(want.logLikelihood.size(), 5u);

    EmConfig one = cfg;
    one.maxIterations = 1;
    Circuit chained = model;
    for (uint32_t it = 0; it < cfg.maxIterations; ++it) {
        const EmTrace step = emTrain(chained, data, one);
        ASSERT_EQ(step.logLikelihood.size(), 2u);
        EXPECT_EQ(bits(step.logLikelihood[0]), bits(want.logLikelihood[it]))
            << "iteration " << it;
        EXPECT_EQ(bits(step.logLikelihood[1]),
                  bits(want.logLikelihood[it + 1]))
            << "iteration " << it;
    }
    const std::vector<double> got = params(chained);
    const std::vector<double> ref = params(whole);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(bits(got[i]), bits(ref[i])) << "parameter " << i;
}
