/**
 * @file
 * Randomized differential tests: the flat CSR engines (single-row and
 * batched likelihoods, flow accumulation, sharded dataset flows, and
 * the posterior marginals answered from the flow pass) must agree with
 * the seed reference walkers (Circuit::logLikelihood,
 * pc::logDerivatives, pc::computeFlows) to <= 1e-10 over hundreds of
 * generated circuit structures, including degenerate single-child,
 * all-zero-weight, and shared-sub-DAG shapes (tests/random_circuit.h).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "pc/flat_pc.h"
#include "pc/flows.h"
#include "pc/pc.h"
#include "pc/queries.h"
#include "random_circuit.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace reason;

namespace {

constexpr int kNumCircuits = 200;
constexpr double kTol = 1e-10;

/** Agreement in the log domain: exact on -inf, <= kTol otherwise. */
::testing::AssertionResult
logNear(double got, double want)
{
    if (got == kLogZero && want == kLogZero)
        return ::testing::AssertionSuccess();
    if (got == kLogZero || want == kLogZero)
        return ::testing::AssertionFailure()
               << got << " vs " << want << " (one is log-zero)";
    if (std::fabs(got - want) > kTol)
        return ::testing::AssertionFailure()
               << got << " vs " << want << " (diff "
               << std::fabs(got - want) << ")";
    return ::testing::AssertionSuccess();
}

/** Seed-walker flow totals: computeFlows summed sample by sample. */
pc::EdgeFlows
referenceFlows(const pc::Circuit &c,
               const std::vector<pc::Assignment> &data)
{
    pc::EdgeFlows total;
    total.nodeFlows.assign(c.numNodes(), 0.0);
    total.flows.resize(c.numNodes());
    for (size_t i = 0; i < c.numNodes(); ++i)
        total.flows[i].assign(c.node(pc::NodeId(i)).children.size(),
                              0.0);
    for (const auto &x : data) {
        pc::EdgeFlows one = pc::computeFlows(c, x);
        for (size_t i = 0; i < c.numNodes(); ++i) {
            total.nodeFlows[i] += one.nodeFlows[i];
            for (size_t k = 0; k < total.flows[i].size(); ++k)
                total.flows[i][k] += one.flows[i][k];
        }
    }
    return total;
}

} // namespace

TEST(FlatRandomDifferential, LikelihoodsMatchSeedWalker)
{
    Rng rng(20260730);
    util::ThreadPool serial(1);
    for (int trial = 0; trial < kNumCircuits; ++trial) {
        pc::Circuit c = testutil::randomTestCircuit(rng);
        pc::FlatCircuit flat(c);
        pc::CircuitEvaluator eval(flat, &serial);

        // logZ = likelihood of the all-marginalized assignment.
        pc::Assignment all_missing(c.numVars(), pc::kMissing);
        EXPECT_TRUE(logNear(eval.logLikelihood(all_missing),
                            c.logLikelihood(all_missing)))
            << "trial " << trial << " (logZ)";

        // Single-row root passes on partial assignments.
        auto xs = testutil::randomPartialAssignments(rng, c, 9, 0.3);
        for (size_t i = 0; i < xs.size(); ++i)
            EXPECT_TRUE(logNear(eval.logLikelihood(xs[i]),
                                c.logLikelihood(xs[i])))
                << "trial " << trial << " row " << i;

        // Batched path (full blocks plus scalar tail at 9 rows).
        std::vector<double> batch(xs.size());
        eval.logLikelihoodBatch(xs, batch);
        for (size_t i = 0; i < xs.size(); ++i)
            EXPECT_TRUE(logNear(batch[i], c.logLikelihood(xs[i])))
                << "trial " << trial << " batch row " << i;
    }
}

TEST(FlatRandomDifferential, PosteriorMarginalsMatchSeedWalker)
{
    Rng rng(919);
    size_t compared = 0;
    for (int trial = 0; trial < kNumCircuits; ++trial) {
        pc::Circuit c = testutil::randomTestCircuit(rng);
        auto xs = testutil::randomPartialAssignments(rng, c, 4, 0.35);
        for (const auto &x : xs) {
            const double log_e = c.logLikelihood(x);
            if (log_e == kLogZero)
                continue; // posteriorMarginals rejects such evidence

            // Seed reference: P(v = val | e) is the sum over v's
            // leaves L of exp(log dRoot/dL + log dist_L[val] - log P(e)).
            const std::vector<double> logd = pc::logDerivatives(c, x);
            std::vector<std::vector<double>> want(
                c.numVars(), std::vector<double>(c.arity(), 0.0));
            for (pc::NodeId id = 0; id < c.numNodes(); ++id) {
                const pc::PcNode &n = c.node(id);
                if (n.type != pc::PcNodeType::Leaf ||
                    x[n.var] != pc::kMissing)
                    continue;
                for (uint32_t val = 0; val < c.arity(); ++val)
                    want[n.var][val] += std::exp(
                        logd[id] + std::log(n.dist[val]) - log_e);
            }
            for (uint32_t v = 0; v < c.numVars(); ++v)
                if (x[v] != pc::kMissing)
                    want[v][x[v]] = 1.0;

            const pc::MarginalTable got = pc::posteriorMarginals(c, x);
            ASSERT_EQ(got.prob.size(), c.numVars());
            for (uint32_t v = 0; v < c.numVars(); ++v)
                for (uint32_t val = 0; val < c.arity(); ++val)
                    ASSERT_NEAR(got.prob[v][val], want[v][val], kTol)
                        << "trial " << trial << " var " << v << " val "
                        << val;
            ++compared;
        }
    }
    // The zero-probability skip must leave most cases compared.
    EXPECT_GT(compared, size_t(kNumCircuits) * 2);
}

TEST(FlatRandomDifferential, EmFlowsMatchSeedWalker)
{
    Rng rng(7177);
    util::ThreadPool serial(1);
    for (int trial = 0; trial < kNumCircuits; ++trial) {
        pc::Circuit c = testutil::randomTestCircuit(rng);
        pc::FlatCircuit flat(c);
        auto data = testutil::randomPartialAssignments(rng, c, 10, 0.25);
        pc::EdgeFlows want = referenceFlows(c, data);

        pc::FlowAccumulator acc(flat, &serial);
        for (const auto &x : data)
            acc.add(x);
        // Sharded accumulation over the same data must agree too
        // (deterministic fixed shard count).
        pc::DatasetFlows sharded =
            pc::accumulateDatasetFlows(flat, data, {0, true}, &serial);
        EXPECT_EQ(sharded.count, data.size());

        for (size_t i = 0; i < c.numNodes(); ++i) {
            ASSERT_NEAR(acc.nodeFlow()[i], want.nodeFlows[i], kTol)
                << "trial " << trial << " node " << i;
            ASSERT_NEAR(sharded.nodeFlow[i], want.nodeFlows[i], kTol)
                << "trial " << trial << " node " << i;
            const uint32_t lo = flat.edgeOffset[i];
            for (size_t k = 0; k < want.flows[i].size(); ++k) {
                ASSERT_NEAR(acc.edgeFlow()[lo + k], want.flows[i][k],
                            kTol)
                    << "trial " << trial << " edge " << i << "/" << k;
                ASSERT_NEAR(sharded.edgeFlow[lo + k], want.flows[i][k],
                            kTol)
                    << "trial " << trial << " edge " << i << "/" << k;
            }
        }
    }
}
