/**
 * @file
 * Tests for thread-parallel execution and the lowering cache: every
 * parallel path (core::Evaluator's wavefronts single/batch,
 * pc::CircuitEvaluator's row-block batches, pc::FlowAccumulator, sharded
 * dataset flows, sharded EM, and sharded Baum-Welch in deterministic
 * mode) must be *bit-identical* to the serial flat path across thread
 * counts {1, 2, 4, 8}, and cachedLowering must hit on unchanged
 * structures and miss on mutation.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/dag.h"
#include "core/flat.h"
#include "hmm/hmm.h"
#include "pc/flat_cache.h"
#include "pc/flat_pc.h"
#include "pc/learn.h"
#include "pc/pc.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace reason;

namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

/** Bitwise equality that treats every double as its bit pattern. */
::testing::AssertionResult
bitIdentical(std::span<const double> got, std::span<const double> want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << "size " << got.size() << " vs " << want.size();
    for (size_t i = 0; i < got.size(); ++i)
        if (std::bit_cast<uint64_t>(got[i]) !=
            std::bit_cast<uint64_t>(want[i]))
            return ::testing::AssertionFailure()
                   << "index " << i << ": " << got[i] << " vs "
                   << want[i];
    return ::testing::AssertionSuccess();
}

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
          case 0:
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

/** Random partial assignments over the circuit's variables. */
std::vector<pc::Assignment>
randomAssignments(Rng &rng, const pc::Circuit &c, size_t count,
                  double missing_prob)
{
    std::vector<pc::Assignment> out(count);
    for (auto &x : out) {
        x.resize(c.numVars());
        for (uint32_t v = 0; v < c.numVars(); ++v)
            x[v] = rng.bernoulli(missing_prob)
                       ? pc::kMissing
                       : uint32_t(rng.uniformInt(0, c.arity() - 1));
    }
    return out;
}

} // namespace

TEST(ThreadPool, CoversRangeExactlyOnceWithValidWorkers)
{
    for (unsigned threads : kThreadCounts) {
        util::ThreadPool pool(threads);
        EXPECT_EQ(pool.numThreads(), threads);
        std::vector<int> hits(10000, 0);
        std::mutex m;
        unsigned max_worker = 0;
        pool.parallelFor(0, hits.size(), 1,
                         [&](size_t b, size_t e, unsigned worker) {
                             std::lock_guard<std::mutex> lock(m);
                             max_worker = std::max(max_worker, worker);
                             for (size_t i = b; i < e; ++i)
                                 ++hits[i];
                         });
        for (size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "index " << i;
        EXPECT_LT(max_worker, threads);
    }
}

TEST(ThreadPool, RespectsMinGrain)
{
    util::ThreadPool pool(8);
    size_t calls = 0;
    // 100 items with min grain 64 -> only one chunk (inline).
    pool.parallelFor(0, 100, 64, [&](size_t b, size_t e, unsigned w) {
        ++calls;
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 100u);
        EXPECT_EQ(w, 0u);
    });
    EXPECT_EQ(calls, 1u);
}

TEST(ParallelEvaluator, DagBitIdenticalAcrossThreadCounts)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 19);
        core::Dag dag = randomDag(rng, 8, 3, 3000);
        core::FlatGraph flat = core::lowerDag(dag);

        std::vector<double> inputs(dag.numInputs());
        for (auto &v : inputs)
            v = rng.uniformReal(-1.0, 1.0);

        util::ThreadPool serial(1);
        core::Evaluator ref(flat, &serial);
        std::span<const double> ref_vals = ref.evaluate(inputs);
        std::vector<double> want(ref_vals.begin(), ref_vals.end());

        for (unsigned threads : kThreadCounts) {
            util::ThreadPool pool(threads);
            core::Evaluator eval(flat, &pool);
            EXPECT_TRUE(bitIdentical(eval.evaluate(inputs), want))
                << "threads=" << threads;
        }
    }
}

TEST(ParallelEvaluator, DagBatchBitIdenticalAcrossThreadCounts)
{
    Rng rng(7);
    core::Dag dag = randomDag(rng, 12, 2, 800);
    core::FlatGraph flat = core::lowerDag(dag);

    const size_t rows = 64;
    std::vector<double> batch(rows * dag.numInputs());
    for (auto &v : batch)
        v = rng.uniformReal(-1.0, 1.0);

    util::ThreadPool serial(1);
    core::Evaluator ref(flat, &serial);
    std::vector<double> want(rows);
    ref.evaluateBatch(batch, rows, want);

    for (unsigned threads : kThreadCounts) {
        util::ThreadPool pool(threads);
        core::Evaluator eval(flat, &pool);
        std::vector<double> got(rows);
        eval.evaluateBatch(batch, rows, got);
        EXPECT_TRUE(bitIdentical(got, want)) << "threads=" << threads;
        // Reuse must not disturb results (scratch is warm now).
        eval.evaluateBatch(batch, rows, got);
        EXPECT_TRUE(bitIdentical(got, want)) << "threads=" << threads;
    }
}

TEST(ParallelCircuitEvaluator, BatchBitIdenticalAcrossThreadCounts)
{
    Rng rng(29);
    pc::Circuit c = pc::randomCircuit(rng, 64, 3, 3, 6);
    pc::FlatCircuit flat(c);
    // 67 rows: full blocks plus a masked-tail block (3 live lanes).
    auto xs = randomAssignments(rng, c, 67, 0.2);

    util::ThreadPool serial(1);
    pc::CircuitEvaluator ref(flat, &serial);
    std::vector<double> want(xs.size());
    ref.logLikelihoodBatch(xs, want);

    for (unsigned threads : kThreadCounts) {
        util::ThreadPool pool(threads);
        pc::CircuitEvaluator eval(flat, &pool);
        std::vector<double> got(xs.size());
        eval.logLikelihoodBatch(xs, got);
        EXPECT_TRUE(bitIdentical(got, want)) << "threads=" << threads;
        eval.logLikelihoodBatch(xs, got);
        EXPECT_TRUE(bitIdentical(got, want)) << "threads=" << threads;
    }
}

TEST(ParallelFlowAccumulator, TotalsBitIdenticalAcrossThreadCounts)
{
    Rng rng(31);
    pc::Circuit c = pc::randomCircuit(rng, 768, 2, 4, 8);
    pc::FlatCircuit flat(c);
    auto data = randomAssignments(rng, c, 12, 0.3);

    util::ThreadPool serial(1);
    pc::FlowAccumulator ref(flat, &serial);
    for (const auto &x : data)
        ref.add(x);

    for (unsigned threads : kThreadCounts) {
        util::ThreadPool pool(threads);
        pc::FlowAccumulator acc(flat, &pool);
        for (const auto &x : data)
            acc.add(x);
        EXPECT_EQ(acc.count(), ref.count());
        EXPECT_TRUE(bitIdentical(acc.edgeFlow(), ref.edgeFlow()))
            << "threads=" << threads;
        EXPECT_TRUE(bitIdentical(acc.nodeFlow(), ref.nodeFlow()))
            << "threads=" << threads;
        EXPECT_TRUE(bitIdentical(acc.leafValueFlow(),
                                 ref.leafValueFlow()))
            << "threads=" << threads;
    }
}

TEST(ParallelFlowAccumulator, ZeroProbabilityBranchesMatchSerial)
{
    // Deterministic leaves create exact log-zero children on sum edges
    // and zero-probability evidence, exercising every skip branch of
    // the downward pass in both formulations.
    pc::Circuit c(2, 2);
    pc::NodeId a0 = c.addLeaf(0, {1.0, 0.0});
    pc::NodeId a1 = c.addLeaf(1, {0.25, 0.75});
    pc::NodeId b0 = c.addLeaf(0, {0.0, 1.0});
    pc::NodeId b1 = c.addLeaf(1, {1.0, 0.0});
    pc::NodeId pa = c.addProduct({a0, a1});
    pc::NodeId pb = c.addProduct({b0, b1});
    c.markRoot(c.addSum({pa, pb}, {0.6, 0.4}));
    pc::FlatCircuit flat(c);

    std::vector<pc::Assignment> data{
        {0, 0}, {0, 1}, {1, 0}, {1, 1} /* impossible */,
        {pc::kMissing, 1}, {0, pc::kMissing}};

    util::ThreadPool serial(1);
    pc::FlowAccumulator ref(flat, &serial);
    for (const auto &x : data)
        ref.add(x);

    for (unsigned threads : kThreadCounts) {
        util::ThreadPool pool(threads);
        pc::FlowAccumulator acc(flat, &pool);
        for (const auto &x : data)
            acc.add(x);
        EXPECT_TRUE(bitIdentical(acc.edgeFlow(), ref.edgeFlow()));
        EXPECT_TRUE(bitIdentical(acc.nodeFlow(), ref.nodeFlow()));
        EXPECT_TRUE(
            bitIdentical(acc.leafValueFlow(), ref.leafValueFlow()));
    }
}

TEST(ShardedFlows, DeterministicAcrossThreadCounts)
{
    Rng rng(53);
    pc::Circuit c = pc::randomCircuit(rng, 64, 2, 3, 6);
    pc::FlatCircuit flat(c);
    auto data = randomAssignments(rng, c, 23, 0.3);

    // shards == 1 must reproduce the legacy serial left fold exactly.
    util::ThreadPool serial(1);
    pc::FlowAccumulator legacy(flat, &serial);
    for (const auto &x : data)
        legacy.add(x);
    pc::DatasetFlows one =
        pc::accumulateDatasetFlows(flat, data, {1, true}, &serial);
    EXPECT_EQ(one.shards, 1u);
    EXPECT_EQ(one.count, legacy.count());
    EXPECT_TRUE(bitIdentical(one.edgeFlow, legacy.edgeFlow()));
    EXPECT_TRUE(bitIdentical(one.nodeFlow, legacy.nodeFlow()));
    EXPECT_TRUE(bitIdentical(one.leafValueFlow, legacy.leafValueFlow()));

    // Deterministic auto sharding: the shard count and reduction shape
    // ignore the worker count, so totals are bit-identical across
    // thread counts (and across explicit shard counts vs themselves).
    pc::DatasetFlows want =
        pc::accumulateDatasetFlows(flat, data, {0, true}, &serial);
    EXPECT_EQ(want.shards, util::kAutoReductionShards);
    EXPECT_EQ(want.count, data.size());
    for (unsigned threads : kThreadCounts) {
        util::ThreadPool pool(threads);
        pc::DatasetFlows got =
            pc::accumulateDatasetFlows(flat, data, {0, true}, &pool);
        EXPECT_EQ(got.shards, want.shards);
        EXPECT_TRUE(bitIdentical(got.edgeFlow, want.edgeFlow))
            << "threads=" << threads;
        EXPECT_TRUE(bitIdentical(got.nodeFlow, want.nodeFlow))
            << "threads=" << threads;
        EXPECT_TRUE(bitIdentical(got.leafValueFlow, want.leafValueFlow))
            << "threads=" << threads;
    }

    // Datasets smaller than the auto target keep a single shard: auto
    // resolution is a function of the data alone, never of the workers.
    std::vector<pc::Assignment> tiny(data.begin(), data.begin() + 4);
    for (unsigned threads : kThreadCounts) {
        util::ThreadPool pool(threads);
        pc::DatasetFlows small =
            pc::accumulateDatasetFlows(flat, tiny, {0, true}, &pool);
        EXPECT_EQ(small.shards, 1u) << "threads=" << threads;
        EXPECT_EQ(small.count, tiny.size());
    }

    // Fast mode shards per worker: still valid totals (vs the 1e-10
    // differential contract), same sample count.
    for (unsigned threads : kThreadCounts) {
        util::ThreadPool pool(threads);
        pc::DatasetFlows fast =
            pc::accumulateDatasetFlows(flat, data, {0, false}, &pool);
        EXPECT_EQ(fast.shards, std::min<unsigned>(threads, 23));
        EXPECT_EQ(fast.count, data.size());
        for (size_t i = 0; i < fast.edgeFlow.size(); ++i)
            ASSERT_NEAR(fast.edgeFlow[i], want.edgeFlow[i], 1e-10);
    }
}

namespace {

/** All learned parameters of a circuit, flattened for bit comparison. */
std::vector<double>
circuitParams(const pc::Circuit &c)
{
    std::vector<double> params;
    for (pc::NodeId id = 0; id < c.numNodes(); ++id) {
        const pc::PcNode &n = c.node(id);
        params.insert(params.end(), n.weights.begin(), n.weights.end());
        params.insert(params.end(), n.dist.begin(), n.dist.end());
    }
    return params;
}

/** All parameters of an HMM, flattened for bit comparison. */
std::vector<double>
hmmParams(const hmm::Hmm &h)
{
    std::vector<double> params;
    for (uint32_t s = 0; s < h.numStates(); ++s)
        params.push_back(h.initial(s));
    for (uint32_t i = 0; i < h.numStates(); ++i)
        for (uint32_t j = 0; j < h.numStates(); ++j)
            params.push_back(h.transition(i, j));
    for (uint32_t s = 0; s < h.numStates(); ++s)
        for (uint32_t m = 0; m < h.numSymbols(); ++m)
            params.push_back(h.emission(s, m));
    return params;
}

} // namespace

TEST(ShardedEm, DeterministicAcrossThreadCounts)
{
    Rng rng(59);
    pc::Circuit truth = pc::randomCircuit(rng, 8, 2);
    auto data = pc::sampleDataset(rng, truth, 60);
    pc::Circuit model = pc::randomCircuit(rng, 8, 2);

    pc::EmOptions opts;
    opts.maxIterations = 3;
    opts.tolerance = 0.0; // run every iteration
    opts.shards = 0;
    opts.deterministic = true;

    // emTrain reaches the pool through the global knob; sweep it and
    // demand bit-identical parameters and traces.
    std::vector<double> want_params;
    std::vector<double> want_trace;
    for (unsigned threads : kThreadCounts) {
        util::setGlobalThreads(threads);
        pc::Circuit m = model;
        pc::EmTrace trace = pc::emTrain(m, data, opts);
        std::vector<double> params = circuitParams(m);
        if (threads == 1) {
            want_params = params;
            want_trace = trace.logLikelihood;
            continue;
        }
        EXPECT_TRUE(bitIdentical(params, want_params))
            << "threads=" << threads;
        EXPECT_TRUE(bitIdentical(trace.logLikelihood, want_trace))
            << "threads=" << threads;
    }
    util::setGlobalThreads(0); // restore the default pool
}

TEST(ShardedBaumWelch, DeterministicAcrossThreadCounts)
{
    Rng rng(61);
    hmm::Hmm truth = hmm::Hmm::random(rng, 5, 4, 0.6);
    std::vector<hmm::Sequence> data(12);
    for (auto &seq : data)
        truth.sample(rng, 16, &seq);
    hmm::Hmm init = hmm::Hmm::random(rng, 5, 4);

    hmm::BaumWelchOptions opts;
    opts.maxIterations = 3;
    opts.tolerance = 0.0;
    opts.shards = 0;
    opts.deterministic = true;

    std::vector<double> want_params;
    std::vector<double> want_trace;
    for (unsigned threads : kThreadCounts) {
        util::ThreadPool pool(threads);
        hmm::Hmm model = init;
        hmm::BaumWelchTrace trace =
            hmm::baumWelch(model, data, opts, &pool);
        std::vector<double> params = hmmParams(model);
        if (threads == 1) {
            want_params = params;
            want_trace = trace.logLikelihood;
            continue;
        }
        EXPECT_TRUE(bitIdentical(params, want_params))
            << "threads=" << threads;
        EXPECT_TRUE(bitIdentical(trace.logLikelihood, want_trace))
            << "threads=" << threads;
    }
}

TEST(FlatCircuitSchedule, TransposeIsConsistent)
{
    Rng rng(37);
    pc::Circuit c = pc::randomCircuit(rng, 32, 2, 3, 5);
    pc::FlatCircuit flat(c);

    // The transpose lists each forward edge exactly once, under its
    // child, in descending parent order.
    std::vector<int> edge_seen(flat.numEdges(), 0);
    for (size_t c_id = 0; c_id < flat.numNodes(); ++c_id) {
        uint32_t prev_parent = ~0u;
        for (uint32_t pe = flat.parentOffset[c_id];
             pe < flat.parentOffset[c_id + 1]; ++pe) {
            const uint32_t e = flat.parentEdge[pe];
            ++edge_seen[e];
            EXPECT_EQ(flat.edgeTarget[e], c_id);
            const uint32_t parent = flat.parentNode[pe];
            EXPECT_GE(e, flat.edgeOffset[parent]);
            EXPECT_LT(e, flat.edgeOffset[parent + 1]);
            EXPECT_LE(parent, prev_parent);
            prev_parent = parent;
        }
    }
    for (size_t e = 0; e < flat.numEdges(); ++e)
        EXPECT_EQ(edge_seen[e], 1) << "edge " << e;
}

TEST(FlatCache, HitsOnUnchangedCircuitAndMissesOnMutation)
{
    pc::clearFlatCache();
    Rng rng(41);
    pc::Circuit c = pc::randomCircuit(rng, 12, 2, 2, 3);

    auto first = pc::cachedLowering(c);
    auto second = pc::cachedLowering(c);
    EXPECT_EQ(first.get(), second.get());
    auto stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);

    // Parameter mutation (what EM does every iteration) must miss.
    for (pc::NodeId id = 0; id < c.numNodes(); ++id) {
        if (c.node(id).type == pc::PcNodeType::Leaf) {
            auto &dist = c.mutableNode(id).dist;
            std::swap(dist[0], dist[1]);
            break;
        }
    }
    auto third = pc::cachedLowering(c);
    EXPECT_NE(third.get(), first.get());
    stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, 2u);

    // The fresh lowering reflects the mutation.
    util::ThreadPool serial(1);
    pc::CircuitEvaluator eval(*third, &serial);
    pc::Assignment x(c.numVars(), pc::kMissing);
    x[0] = 0;
    EXPECT_NEAR(eval.logLikelihood(x), c.logLikelihood(x), 1e-12);

    // The original lowering lives on through its shared_ptr.
    EXPECT_EQ(first->numNodes(), c.numNodes());
}

TEST(FlatCache, DagLoweringsAreCachedByIdentity)
{
    pc::clearFlatCache();
    Rng rng(43);
    core::Dag dag = randomDag(rng, 4, 2, 50);

    auto first = pc::cachedLowering(dag);
    auto second = pc::cachedLowering(dag);
    EXPECT_EQ(first.get(), second.get());

    // Structural growth changes the fingerprint.
    dag.addOp(core::DagOp::Not, {core::NodeId(0)});
    auto third = pc::cachedLowering(dag);
    EXPECT_NE(third.get(), first.get());
    EXPECT_EQ(third->numNodes(), dag.numNodes());

    auto stats = pc::flatCacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
}
