/**
 * @file
 * Tests for advanced probabilistic-circuit queries: conditionals,
 * posterior marginals (one flow pass) against brute-force enumeration
 * and their evidence checks, conditional sampling frequencies, entropy,
 * expectations, and mutual information, over random circuit sweeps.
 */

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "pc/pc.h"
#include "pc/queries.h"
#include "util/numeric.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::pc;

namespace {

/** All complete assignments over (vars, arity). */
std::vector<Assignment>
enumerate(uint32_t vars, uint32_t arity)
{
    std::vector<Assignment> all;
    uint64_t combos = 1;
    for (uint32_t v = 0; v < vars; ++v)
        combos *= arity;
    for (uint64_t n = 0; n < combos; ++n) {
        Assignment x(vars);
        uint64_t rem = n;
        for (uint32_t v = 0; v < vars; ++v) {
            x[v] = uint32_t(rem % arity);
            rem /= arity;
        }
        all.push_back(std::move(x));
    }
    return all;
}

/** Brute-force P(var = val | evidence) by enumeration. */
double
bruteMarginal(const Circuit &c, const Assignment &evidence, uint32_t var,
              uint32_t val)
{
    double num = 0.0, den = 0.0;
    for (const auto &x : enumerate(c.numVars(), c.arity())) {
        bool compatible = true;
        for (uint32_t v = 0; v < c.numVars(); ++v)
            if (evidence[v] != kMissing && x[v] != evidence[v])
                compatible = false;
        if (!compatible)
            continue;
        double p = std::exp(c.logLikelihood(x));
        den += p;
        if (x[var] == val)
            num += p;
    }
    return num / den;
}

} // namespace

struct QuerySweepParam
{
    uint32_t vars;
    uint32_t arity;
    uint64_t seed;
};

class QuerySweep : public ::testing::TestWithParam<QuerySweepParam>
{
  protected:
    Circuit
    make() const
    {
        Rng rng(GetParam().seed);
        return randomCircuit(rng, GetParam().vars, GetParam().arity, 2, 3);
    }
};

TEST_P(QuerySweep, PosteriorMarginalsMatchEnumeration)
{
    Circuit c = make();
    Rng rng(GetParam().seed + 99);
    // Evidence on roughly a third of the variables.
    Assignment evidence(c.numVars(), kMissing);
    for (uint32_t v = 0; v < c.numVars(); v += 3)
        evidence[v] = uint32_t(rng.uniformInt(0, c.arity() - 1));

    MarginalTable table = posteriorMarginals(c, evidence);
    for (uint32_t v = 0; v < c.numVars(); ++v) {
        double row = 0.0;
        for (uint32_t val = 0; val < c.arity(); ++val) {
            EXPECT_NEAR(table.prob[v][val],
                        bruteMarginal(c, evidence, v, val), 1e-8)
                << "var " << v << " val " << val;
            row += table.prob[v][val];
        }
        EXPECT_NEAR(row, 1.0, 1e-8);
    }
}

TEST_P(QuerySweep, ConditionalChainRule)
{
    // P(a, b | e) == P(a | b, e) * P(b | e).
    Circuit c = make();
    ASSERT_GE(c.numVars(), 4u);
    Assignment e(c.numVars(), kMissing);
    e[0] = 0;

    Assignment qa(c.numVars(), kMissing), qb(c.numVars(), kMissing);
    qa[1] = c.arity() - 1;
    qb[2] = 0;

    Assignment be = e;
    be[2] = 0;

    double lhs = conditionalLogProbability(
        c,
        [&] {
            Assignment q = qa;
            q[2] = 0;
            return q;
        }(),
        e);
    double rhs = conditionalLogProbability(c, qa, be) +
                 conditionalLogProbability(c, qb, e);
    EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST_P(QuerySweep, ExactEntropyMatchesEnumeration)
{
    Circuit c = make();
    double expected = 0.0;
    for (const auto &x : enumerate(c.numVars(), c.arity())) {
        double ll = c.logLikelihood(x);
        if (ll != kLogZero)
            expected -= std::exp(ll) * ll;
    }
    EXPECT_NEAR(exactEntropy(c), expected, 1e-9);
}

TEST_P(QuerySweep, SampledEntropyApproximatesExact)
{
    Circuit c = make();
    Rng rng(GetParam().seed + 7);
    double exact = exactEntropy(c);
    double sampled = sampledEntropy(rng, c, 4000);
    // Monte-Carlo: loose tolerance.
    EXPECT_NEAR(sampled, exact, 0.25 * std::max(1.0, exact));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuerySweep,
    ::testing::Values(QuerySweepParam{4, 2, 1}, QuerySweepParam{6, 2, 2},
                      QuerySweepParam{8, 2, 3}, QuerySweepParam{5, 3, 4},
                      QuerySweepParam{6, 3, 5}, QuerySweepParam{4, 4, 6},
                      QuerySweepParam{9, 2, 7}, QuerySweepParam{7, 3, 8}));

TEST(Queries, LogDerivativesSumToValueTimesCount)
{
    // For a complete assignment, sum over leaves of d_l * leaf value
    // recovers the root value once per variable (smoothness).
    Rng rng(21);
    Circuit c = randomCircuit(rng, 6, 2, 2, 3);
    Assignment x(6);
    for (uint32_t v = 0; v < 6; ++v)
        x[v] = uint32_t(rng.uniformInt(0, 1));
    auto logv = c.evaluate(x);
    auto logd = logDerivatives(c, x);

    std::vector<double> per_var(6, kLogZero);
    for (size_t i = 0; i < c.numNodes(); ++i) {
        const PcNode &node = c.node(NodeId(i));
        if (node.type != PcNodeType::Leaf)
            continue;
        if (logd[i] == kLogZero || logv[i] == kLogZero)
            continue;
        per_var[node.var] =
            logAdd(per_var[node.var], logd[i] + logv[i]);
    }
    for (uint32_t v = 0; v < 6; ++v)
        EXPECT_NEAR(per_var[v], logv[c.root()], 1e-9) << "var " << v;
}

TEST(Queries, PosteriorMarginalsRejectOutOfRangeEvidence)
{
    // Variable 1 has no leaf, so the flow pass never reads its value:
    // the range check must come before the table is written.
    Circuit leafless(2, 2);
    leafless.markRoot(leafless.addLeaf(0, {0.3, 0.7}));
    EXPECT_DEATH(posteriorMarginals(leafless, {kMissing, 7}),
                 "evidence value out of range");

    // Variable 1's only leaf sits under a zero-weight edge, which the
    // flow kernel's program drops together with the leaf.
    Circuit dropped(2, 2);
    NodeId a = dropped.addLeaf(0, {0.3, 0.7});
    NodeId b = dropped.addLeaf(1, {0.6, 0.4});
    NodeId p = dropped.addProduct({a, b});
    NodeId root = dropped.addSum({a, p}, {0.5, 0.5});
    dropped.mutableNode(root).weights[1] = 0.0;
    dropped.markRoot(root);
    EXPECT_DEATH(posteriorMarginals(dropped, {0, 7}),
                 "evidence value out of range");
}

TEST(Queries, PosteriorMarginalsRejectZeroProbabilityEvidence)
{
    Circuit c(2, 2);
    NodeId a = c.addLeaf(0, {1.0, 0.0});
    NodeId b = c.addLeaf(1, {0.5, 0.5});
    c.markRoot(c.addProduct({a, b}));
    EXPECT_DEATH(posteriorMarginals(c, {1, kMissing}),
                 "evidence has zero probability");
}

TEST(Queries, ConditionalSamplingFrequencies)
{
    Rng rng(33);
    Circuit c = randomCircuit(rng, 5, 2, 2, 3);
    Assignment evidence(5, kMissing);
    evidence[0] = 1;

    MarginalTable expected = posteriorMarginals(c, evidence);
    const int kSamples = 20000;
    std::vector<std::vector<int>> counts(5, std::vector<int>(2, 0));
    for (int s = 0; s < kSamples; ++s) {
        Assignment draw = sampleConditional(rng, c, evidence);
        for (uint32_t v = 0; v < 5; ++v) {
            ASSERT_NE(draw[v], kMissing);
            ++counts[v][draw[v]];
        }
    }
    for (uint32_t v = 0; v < 5; ++v)
        for (uint32_t val = 0; val < 2; ++val)
            EXPECT_NEAR(double(counts[v][val]) / kSamples,
                        expected.prob[v][val], 0.02)
                << "var " << v << " val " << val;
    // Evidence variables must be copied through.
    Assignment draw = sampleConditional(rng, c, evidence);
    EXPECT_EQ(draw[0], 1u);
}

TEST(Queries, ExpectedValueOfIndicatorIsMarginal)
{
    Rng rng(55);
    Circuit c = randomCircuit(rng, 6, 3, 2, 3);
    Assignment evidence(6, kMissing);
    evidence[5] = 2;

    std::vector<std::vector<double>> f(6, std::vector<double>(3, 0.0));
    f[2][1] = 1.0; // indicator of X2 = 1
    MarginalTable table = posteriorMarginals(c, evidence);
    EXPECT_NEAR(expectedValue(c, f, evidence), table.prob[2][1], 1e-9);
}

TEST(Queries, PairwiseMarginalSumsToOne)
{
    Rng rng(66);
    Circuit c = randomCircuit(rng, 6, 2, 2, 3);
    auto joint = pairwiseMarginal(c, 1, 4);
    double total = 0.0;
    for (const auto &row : joint)
        for (double p : row)
            total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Queries, MutualInformationProperties)
{
    Rng rng(77);
    Circuit c = randomCircuit(rng, 6, 2, 2, 3);
    // Non-negativity and symmetry.
    for (auto [a, b] : {std::pair<uint32_t, uint32_t>{0, 1},
                        {2, 5},
                        {1, 4}}) {
        double ab = mutualInformation(c, a, b);
        double ba = mutualInformation(c, b, a);
        EXPECT_GE(ab, 0.0);
        EXPECT_NEAR(ab, ba, 1e-9);
    }
}

TEST(Queries, IndependentProductHasZeroMi)
{
    // Two independent leaves under a product: MI must be ~0.
    Circuit c(2, 2);
    NodeId l0 = c.addLeaf(0, {0.3, 0.7});
    NodeId l1 = c.addLeaf(1, {0.6, 0.4});
    c.markRoot(c.addProduct({l0, l1}));
    EXPECT_NEAR(mutualInformation(c, 0, 1), 0.0, 1e-12);
}

TEST(Queries, FullyCorrelatedMixtureHasEntropyMi)
{
    // Mixture of (0,0) and (1,1): X0 determines X1.
    Circuit c(2, 2);
    NodeId a0 = c.addLeaf(0, {1.0, 0.0});
    NodeId a1 = c.addLeaf(1, {1.0, 0.0});
    NodeId b0 = c.addLeaf(0, {0.0, 1.0});
    NodeId b1 = c.addLeaf(1, {0.0, 1.0});
    NodeId pa = c.addProduct({a0, a1});
    NodeId pb = c.addProduct({b0, b1});
    c.markRoot(c.addSum({pa, pb}, {0.5, 0.5}));
    // I(X;Y) = H(X) = log 2 for a deterministic copy of a fair bit.
    EXPECT_NEAR(mutualInformation(c, 0, 1), std::log(2.0), 1e-9);
}
