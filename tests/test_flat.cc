/**
 * @file
 * Tests for the flat CSR kernel engine (core/flat.h, pc/flat_pc.h):
 * flat and batched evaluation must match the reference walkers
 * (Dag::evaluate, Circuit::logLikelihood, computeFlows) to <= 1e-12
 * across randomized DAGs covering every op, weighted and unweighted
 * sums, and zero-probability leaves.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/dag.h"
#include "core/flat.h"
#include "pc/flat_pc.h"
#include "pc/flows.h"
#include "pc/pc.h"
#include "util/numeric.h"
#include "util/rng.h"

using namespace reason;

namespace {

/** Random DAG exercising every opcode, with weighted and plain sums. */
core::Dag
randomDag(Rng &rng, uint32_t num_inputs, uint32_t num_consts,
          uint32_t num_ops)
{
    core::Dag dag;
    for (uint32_t i = 0; i < num_inputs; ++i)
        dag.addInput();
    for (uint32_t i = 0; i < num_consts; ++i)
        dag.addConst(rng.uniformReal(-2.0, 2.0));
    for (uint32_t i = 0; i < num_ops; ++i) {
        size_t existing = dag.numNodes();
        uint32_t fan_in = uint32_t(rng.uniformInt(1, 4));
        std::vector<core::NodeId> operands;
        for (uint32_t k = 0; k < fan_in; ++k)
            operands.push_back(
                core::NodeId(rng.uniformInt(0, int64_t(existing) - 1)));
        switch (rng.uniformInt(0, 4)) {
          case 0: {
            if (rng.bernoulli(0.5)) {
                std::vector<double> weights;
                for (uint32_t k = 0; k < fan_in; ++k)
                    weights.push_back(rng.uniformReal(-1.5, 1.5));
                dag.addOp(core::DagOp::Sum, std::move(operands),
                          std::move(weights));
            } else {
                dag.addOp(core::DagOp::Sum, std::move(operands));
            }
            break;
          }
          case 1:
            dag.addOp(core::DagOp::Product, std::move(operands));
            break;
          case 2:
            dag.addOp(core::DagOp::Max, std::move(operands));
            break;
          case 3:
            dag.addOp(core::DagOp::Min, std::move(operands));
            break;
          default:
            operands.resize(1);
            dag.addOp(core::DagOp::Not, std::move(operands));
            break;
        }
    }
    dag.validate();
    return dag;
}

std::vector<double>
randomInputs(Rng &rng, uint32_t n)
{
    std::vector<double> in(n);
    for (auto &v : in)
        v = rng.uniformReal(-1.0, 1.0);
    return in;
}

} // namespace

TEST(FlatGraph, LoweringPreservesStructure)
{
    Rng rng(11);
    core::Dag dag = randomDag(rng, 6, 3, 60);
    core::FlatGraph flat = core::lowerDag(dag);
    EXPECT_EQ(flat.numNodes(), dag.numNodes());
    EXPECT_EQ(flat.numEdges(), dag.numEdges());
    EXPECT_EQ(flat.numInputs, dag.numInputs());
    EXPECT_EQ(flat.root, dag.root());
    EXPECT_GT(flat.memoryBytes(), 0u);
    EXPECT_EQ(flat.numLevels(), dag.stats().depth + 1);
}

TEST(FlatGraph, LevelScheduleRespectsDependences)
{
    Rng rng(12);
    core::Dag dag = randomDag(rng, 4, 2, 80);
    core::FlatGraph flat = core::lowerDag(dag);
    // A node scheduled in level L must have all operands in levels < L.
    std::vector<uint32_t> level_of(flat.numNodes(), 0);
    for (size_t l = 0; l < flat.numLevels(); ++l)
        for (uint32_t k = flat.levelOffset[l]; k < flat.levelOffset[l + 1];
             ++k)
            level_of[flat.levelNodes[k]] = uint32_t(l);
    for (size_t l = 0; l < flat.numLevels(); ++l) {
        for (uint32_t k = flat.levelOffset[l]; k < flat.levelOffset[l + 1];
             ++k) {
            uint32_t node = flat.levelNodes[k];
            for (uint32_t e = flat.edgeOffset[node];
                 e < flat.edgeOffset[node + 1]; ++e)
                EXPECT_LT(level_of[flat.edgeTarget[e]], l);
        }
    }
}

TEST(FlatEvaluator, MatchesReferenceAcrossRandomDags)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        core::Dag dag =
            randomDag(rng, 3 + seed % 5, 2, 40 + uint32_t(seed) * 10);
        core::FlatGraph flat = core::lowerDag(dag);
        core::Evaluator eval(flat);
        for (int trial = 0; trial < 10; ++trial) {
            auto inputs = randomInputs(rng, dag.numInputs());
            auto want = dag.evaluate(inputs);
            auto got = eval.evaluate(inputs);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i)
                EXPECT_NEAR(got[i], want[i], 1e-12) << "node " << i;
            EXPECT_NEAR(eval.evaluateRoot(inputs),
                        dag.evaluateRoot(inputs), 1e-12);
        }
    }
}

TEST(FlatEvaluator, BatchMatchesPerRowEvaluation)
{
    Rng rng(77);
    core::Dag dag = randomDag(rng, 8, 2, 120);
    core::FlatGraph flat = core::lowerDag(dag);
    core::Evaluator eval(flat);

    const size_t rows = 32;
    std::vector<double> batch(rows * dag.numInputs());
    for (auto &v : batch)
        v = rng.uniformReal(-1.0, 1.0);
    std::vector<double> roots(rows);
    eval.evaluateBatch(batch, rows, roots);
    for (size_t r = 0; r < rows; ++r) {
        std::vector<double> row(
            batch.begin() + r * dag.numInputs(),
            batch.begin() + (r + 1) * dag.numInputs());
        EXPECT_NEAR(roots[r], dag.evaluateRoot(row), 1e-12);
    }
}

TEST(FlatEvaluator, ConstantsSurviveRepeatedCalls)
{
    core::Dag dag;
    core::NodeId a = dag.addInput();
    core::NodeId c = dag.addConst(0.75);
    dag.markRoot(dag.addOp(core::DagOp::Sum, {a, c}));
    core::FlatGraph flat = core::lowerDag(dag);
    core::Evaluator eval(flat);
    std::vector<double> in{1.0};
    EXPECT_DOUBLE_EQ(eval.evaluateRoot(in), 1.75);
    in[0] = -0.25;
    EXPECT_DOUBLE_EQ(eval.evaluateRoot(in), 0.5);
    EXPECT_DOUBLE_EQ(eval.evaluateRoot(in), 0.5);
}

TEST(FlatCircuit, LogLikelihoodMatchesReference)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 13);
        uint32_t vars = 4 + uint32_t(seed % 5);
        uint32_t arity = 2 + uint32_t(seed % 3);
        pc::Circuit c = pc::randomCircuit(rng, vars, arity, 2, 3);
        pc::FlatCircuit flat(c);
        pc::CircuitEvaluator eval(flat);

        for (int trial = 0; trial < 20; ++trial) {
            pc::Assignment x(vars);
            for (uint32_t v = 0; v < vars; ++v) {
                x[v] = rng.bernoulli(0.25)
                           ? pc::kMissing
                           : uint32_t(rng.uniformInt(0, arity - 1));
            }
            double ll = eval.logLikelihood(x);
            double ref = c.logLikelihood(x);
            if (ref == kLogZero)
                EXPECT_EQ(ll, kLogZero);
            else
                EXPECT_NEAR(ll, ref, 1e-12);
        }
    }
}

TEST(FlatCircuit, ZeroProbabilityLeavesPropagate)
{
    // Deterministic leaves create exact zeros that must flow through
    // products and weighted sums identically in both engines.
    pc::Circuit c(2, 2);
    pc::NodeId a0 = c.addLeaf(0, {1.0, 0.0});
    pc::NodeId a1 = c.addLeaf(1, {0.25, 0.75});
    pc::NodeId b0 = c.addLeaf(0, {0.0, 1.0});
    pc::NodeId b1 = c.addLeaf(1, {1.0, 0.0});
    pc::NodeId pa = c.addProduct({a0, a1});
    pc::NodeId pb = c.addProduct({b0, b1});
    c.markRoot(c.addSum({pa, pb}, {0.6, 0.4}));

    pc::FlatCircuit flat(c);
    pc::CircuitEvaluator eval(flat);
    for (uint32_t v0 = 0; v0 < 2; ++v0) {
        for (uint32_t v1 = 0; v1 < 2; ++v1) {
            pc::Assignment x{v0, v1};
            double ref = c.logLikelihood(x);
            double got = eval.logLikelihood(x);
            if (ref == kLogZero)
                EXPECT_EQ(got, kLogZero);
            else
                EXPECT_NEAR(got, ref, 1e-12);
        }
    }
    // (1, 1) is impossible under both mixture components.
    EXPECT_EQ(eval.logLikelihood({1, 1}), kLogZero);
}

TEST(FlatCircuit, BatchMatchesSequential)
{
    Rng rng(3);
    pc::Circuit c = pc::randomCircuit(rng, 8, 2, 2, 4);
    auto data = pc::sampleDataset(rng, c, 64);
    pc::FlatCircuit flat(c);
    pc::CircuitEvaluator eval(flat);
    std::vector<double> out(data.size());
    eval.logLikelihoodBatch(data, out);
    for (size_t i = 0; i < data.size(); ++i)
        EXPECT_NEAR(out[i], c.logLikelihood(data[i]), 1e-12);
}

TEST(FlatCircuit, FlowAccumulatorMatchesPerSampleReference)
{
    Rng rng(41);
    pc::Circuit c = pc::randomCircuit(rng, 6, 2, 2, 3);
    auto data = pc::sampleDataset(rng, c, 50);

    pc::FlatCircuit flat(c);
    pc::FlowAccumulator acc(flat);
    for (const auto &x : data)
        acc.add(x);

    // Reference: per-sample computeFlows summed by hand.
    std::vector<double> node_ref(c.numNodes(), 0.0);
    std::vector<std::vector<double>> edge_ref(c.numNodes());
    for (size_t i = 0; i < c.numNodes(); ++i)
        edge_ref[i].assign(c.node(pc::NodeId(i)).children.size(), 0.0);
    for (const auto &x : data) {
        pc::EdgeFlows one = pc::computeFlows(c, x);
        for (size_t i = 0; i < c.numNodes(); ++i) {
            node_ref[i] += one.nodeFlows[i];
            for (size_t k = 0; k < one.flows[i].size(); ++k)
                edge_ref[i][k] += one.flows[i][k];
        }
    }

    EXPECT_EQ(acc.count(), data.size());
    for (size_t i = 0; i < c.numNodes(); ++i) {
        EXPECT_NEAR(acc.nodeFlow()[i], node_ref[i], 1e-12) << "node " << i;
        for (size_t k = 0; k < edge_ref[i].size(); ++k)
            EXPECT_NEAR(acc.edgeFlow()[flat.edgeOffset[i] + k],
                        edge_ref[i][k], 1e-12)
                << "edge " << i << "/" << k;
    }
}

TEST(FlatCircuit, UpwardOnlyFinalizationEvaluatesTheSame)
{
    Rng rng(43);
    pc::Circuit c = pc::randomCircuit(rng, 8, 2, 2, 4);
    auto data = pc::sampleDataset(rng, c, 19);
    const pc::FlatCircuit full(c);

    pc::FlatCircuit up;
    up.types = full.types;
    up.edgeOffset = full.edgeOffset;
    up.edgeTarget = full.edgeTarget;
    up.edgeLogWeight = full.edgeLogWeight;
    up.leafSlot = full.leafSlot;
    up.leafVar = full.leafVar;
    up.leafLogDist = full.leafLogDist;
    up.numVars = full.numVars;
    up.arity = full.arity;
    up.root = full.root;
    up.finalizeUpwardTopology();
    EXPECT_EQ(up.maxFanIn, full.maxFanIn);
    EXPECT_TRUE(up.parentOffset.empty());
    EXPECT_TRUE(up.parentEdge.empty());

    pc::CircuitEvaluator want(full);
    pc::CircuitEvaluator got(up);
    std::vector<double> want_batch(data.size()), got_batch(data.size());
    want.logLikelihoodBatch(data, want_batch);
    got.logLikelihoodBatch(data, got_batch);
    for (size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(got.logLikelihood(data[i]), want.logLikelihood(data[i]));
        EXPECT_EQ(got_batch[i], want_batch[i]);
    }

    // The flow pass needs the transpose and says so.
    EXPECT_DEATH(pc::FlowAccumulator acc(up), "parent transpose");
}

TEST(Numeric, CheckedIntPowGuardsOverflow)
{
    uint64_t out = 0;
    EXPECT_TRUE(checkedIntPow(2, 10, 1 << 22, &out));
    EXPECT_EQ(out, 1024u);
    EXPECT_TRUE(checkedIntPow(2, 22, 1 << 22, &out));
    EXPECT_EQ(out, uint64_t(1) << 22);
    EXPECT_FALSE(checkedIntPow(2, 23, 1 << 22, &out));
    EXPECT_FALSE(checkedIntPow(3, 64, 1 << 22, &out)); // would overflow
    EXPECT_TRUE(checkedIntPow(7, 0, 10, &out));
    EXPECT_EQ(out, 1u);
    EXPECT_TRUE(checkedIntPow(0, 3, 10, &out));
    EXPECT_EQ(out, 0u);
}
