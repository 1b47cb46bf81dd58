#include "core/flat.h"

#include <algorithm>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace reason {
namespace core {

namespace {

/**
 * Evaluate one operation node into val[i].  Shared by the serial
 * id-order walk and the parallel wavefront walk so both paths run the
 * exact same floating-point expressions (bit-identical results).
 *
 * Sum/WeightedSum/Product stay scalar left folds: their results must
 * match Dag::evaluate bit for bit, and reassociating a + or * fold across
 * SIMD lanes would change the rounding.  Max/Min are associative and
 * commutative over non-NaN doubles, so wide fan-ins fold through
 * 8-lane packs (gathered chunks + fixed reduction tree) with results
 * identical to the serial fold.
 */
inline void
evalNode(const uint8_t *ops, const uint32_t *off, const uint32_t *tgt,
         const double *wgt, double *val, size_t i)
{
    const uint32_t lo = off[i];
    const uint32_t hi = off[i + 1];
    switch (FlatOp(ops[i])) {
      case FlatOp::Input:
      case FlatOp::Const:
        break; // pre-filled
      case FlatOp::Sum: {
        double acc = 0.0;
        for (uint32_t e = lo; e < hi; ++e)
            acc += val[tgt[e]];
        val[i] = acc;
        break;
      }
      case FlatOp::WeightedSum: {
        double acc = 0.0;
        for (uint32_t e = lo; e < hi; ++e)
            acc += wgt[e] * val[tgt[e]];
        val[i] = acc;
        break;
      }
      case FlatOp::Product: {
        double acc = 1.0;
        for (uint32_t e = lo; e < hi; ++e)
            acc *= val[tgt[e]];
        val[i] = acc;
        break;
      }
      case FlatOp::Max: {
        double acc = val[tgt[lo]];
        uint32_t e = lo + 1;
        if (hi - e >= 2 * simd::kLanes) {
            simd::Pack m = simd::splat(acc);
            double buf[simd::kLanes];
            for (; e + simd::kLanes <= hi; e += simd::kLanes) {
                for (size_t b = 0; b < simd::kLanes; ++b)
                    buf[b] = val[tgt[e + b]];
                m = simd::max(m, simd::load(buf));
            }
            acc = simd::reduceMax(m);
        }
        for (; e < hi; ++e)
            acc = std::max(acc, val[tgt[e]]);
        val[i] = acc;
        break;
      }
      case FlatOp::Min: {
        double acc = val[tgt[lo]];
        uint32_t e = lo + 1;
        if (hi - e >= 2 * simd::kLanes) {
            simd::Pack m = simd::splat(acc);
            double buf[simd::kLanes];
            for (; e + simd::kLanes <= hi; e += simd::kLanes) {
                for (size_t b = 0; b < simd::kLanes; ++b)
                    buf[b] = val[tgt[e + b]];
                m = simd::min(m, simd::load(buf));
            }
            acc = simd::reduceMin(m);
        }
        for (; e < hi; ++e)
            acc = std::min(acc, val[tgt[e]]);
        val[i] = acc;
        break;
      }
      case FlatOp::Not:
        val[i] = 1.0 - val[tgt[lo]];
        break;
    }
}

/** Full single-row pass: fill inputs, then walk every node in order. */
inline void
evalAllSerial(const FlatGraph &graph, std::span<const double> inputs,
              double *val)
{
    for (auto [node, tag] : graph.inputs)
        val[node] = inputs[tag];
    const uint8_t *ops = graph.ops.data();
    const uint32_t *off = graph.edgeOffset.data();
    const uint32_t *tgt = graph.edgeTarget.data();
    const double *wgt = graph.edgeWeight.data();
    const size_t n = graph.numNodes();
    for (size_t i = 0; i < n; ++i)
        evalNode(ops, off, tgt, wgt, val, i);
}

} // namespace

const char *
flatOpName(FlatOp op)
{
    switch (op) {
      case FlatOp::Input: return "input";
      case FlatOp::Const: return "const";
      case FlatOp::Sum: return "sum";
      case FlatOp::WeightedSum: return "wsum";
      case FlatOp::Product: return "product";
      case FlatOp::Max: return "max";
      case FlatOp::Min: return "min";
      case FlatOp::Not: return "not";
    }
    return "?";
}

size_t
FlatGraph::memoryBytes() const
{
    return ops.size() * sizeof(uint8_t) +
           edgeOffset.size() * sizeof(uint32_t) +
           edgeTarget.size() * sizeof(uint32_t) +
           edgeWeight.size() * sizeof(double) +
           inputs.size() * sizeof(inputs[0]) +
           consts.size() * sizeof(consts[0]) +
           levelOffset.size() * sizeof(uint32_t) +
           levelNodes.size() * sizeof(uint32_t);
}

void
FlatGraph::validate() const
{
    const size_t n = numNodes();
    reasonAssert(root < n, "flat graph root out of range");
    reasonAssert(edgeOffset.size() == n + 1, "edge offset size mismatch");
    reasonAssert(edgeOffset.front() == 0 && edgeOffset.back() == numEdges(),
                 "edge offsets must span the edge array");
    reasonAssert(edgeWeight.size() == edgeTarget.size(),
                 "edge weights must align with edge targets");
    for (size_t i = 0; i < n; ++i) {
        reasonAssert(edgeOffset[i] <= edgeOffset[i + 1],
                     "edge offsets must be monotone");
        for (uint32_t e = edgeOffset[i]; e < edgeOffset[i + 1]; ++e)
            reasonAssert(edgeTarget[e] < i,
                         "operands must precede consumers");
    }
    size_t op_nodes = 0;
    for (uint8_t op : ops)
        if (FlatOp(op) != FlatOp::Input && FlatOp(op) != FlatOp::Const)
            ++op_nodes;
    reasonAssert(levelNodes.size() == op_nodes,
                 "level schedule must cover every operation node");
}

LevelSchedule
buildLevelSchedule(size_t num_nodes,
                   std::span<const uint32_t> edge_offset,
                   std::span<const uint32_t> edge_target,
                   std::span<const uint8_t> schedulable)
{
    std::vector<uint32_t> level(num_nodes, 0);
    uint32_t max_level = 0;
    for (size_t i = 0; i < num_nodes; ++i) {
        uint32_t lvl = 0;
        for (uint32_t e = edge_offset[i]; e < edge_offset[i + 1]; ++e)
            lvl = std::max(lvl, level[edge_target[e]] + 1);
        level[i] = lvl;
        max_level = std::max(max_level, lvl);
    }
    // Counting sort by level keeps ascending node id within a level.
    LevelSchedule s;
    s.offset.assign(max_level + 2, 0);
    for (size_t i = 0; i < num_nodes; ++i)
        if (schedulable[i] != 0)
            ++s.offset[level[i] + 1];
    for (size_t l = 1; l < s.offset.size(); ++l)
        s.offset[l] += s.offset[l - 1];
    s.nodes.resize(s.offset.back());
    std::vector<uint32_t> cursor(s.offset.begin(), s.offset.end() - 1);
    for (size_t i = 0; i < num_nodes; ++i)
        if (schedulable[i] != 0)
            s.nodes[cursor[level[i]]++] = uint32_t(i);
    return s;
}

FlatGraph
lowerDag(const Dag &dag)
{
    dag.validate();
    const size_t n = dag.numNodes();
    FlatGraph g;
    g.ops.resize(n);
    g.edgeOffset.reserve(n + 1);
    g.edgeOffset.push_back(0);
    g.edgeTarget.reserve(dag.numEdges());
    g.edgeWeight.reserve(dag.numEdges());
    g.numInputs = dag.numInputs();
    g.root = dag.root();

    for (size_t i = 0; i < n; ++i) {
        const DagNode &node = dag.node(NodeId(i));
        FlatOp op;
        switch (node.op) {
          case DagOp::Input:
            op = FlatOp::Input;
            g.inputs.emplace_back(uint32_t(i), node.tag);
            break;
          case DagOp::Const:
            op = FlatOp::Const;
            g.consts.emplace_back(uint32_t(i), node.value);
            break;
          case DagOp::Sum:
            op = node.weights.empty() ? FlatOp::Sum : FlatOp::WeightedSum;
            break;
          case DagOp::Product: op = FlatOp::Product; break;
          case DagOp::Max: op = FlatOp::Max; break;
          case DagOp::Min: op = FlatOp::Min; break;
          case DagOp::Not: op = FlatOp::Not; break;
          default: panic("unknown DagOp in lowering");
        }
        g.ops[i] = uint8_t(op);
        for (size_t k = 0; k < node.inputs.size(); ++k) {
            g.edgeTarget.push_back(node.inputs[k]);
            g.edgeWeight.push_back(
                node.weights.empty() ? 1.0 : node.weights[k]);
        }
        g.edgeOffset.push_back(uint32_t(g.edgeTarget.size()));
    }

    // Wavefront schedule over operation nodes only: leaves (level 0
    // inputs/consts) are excluded — they are pre-filled.
    std::vector<uint8_t> schedulable(n);
    for (size_t i = 0; i < n; ++i) {
        FlatOp op = FlatOp(g.ops[i]);
        schedulable[i] = op != FlatOp::Input && op != FlatOp::Const;
    }
    LevelSchedule sched =
        buildLevelSchedule(n, g.edgeOffset, g.edgeTarget, schedulable);
    g.levelOffset = std::move(sched.offset);
    g.levelNodes = std::move(sched.nodes);
    g.validate();
    return g;
}

Evaluator::Evaluator(const FlatGraph &graph, util::ThreadPool *pool)
    : graph_(graph), pool_(pool), values_(graph.numNodes(), 0.0)
{
    // Constants never change: write them once, skip them per call.
    for (auto [node, value] : graph_.consts)
        values_[node] = value;
}

util::ThreadPool &
Evaluator::activePool() const
{
    // Resolved per call, not cached: setGlobalThreads may legally
    // replace the global pool between evaluation phases, and a cached
    // pointer would dangle.
    return pool_ ? *pool_ : util::globalThreadPool();
}

std::span<const double>
Evaluator::evaluate(std::span<const double> inputs)
{
    reasonAssert(inputs.size() >= graph_.numInputs,
                 "not enough input values supplied");
    util::ThreadPool &pool = activePool();
    double *val = values_.data();
    if (pool.numThreads() == 1) {
        evalAllSerial(graph_, inputs, val);
        return {values_.data(), values_.size()};
    }

    // Wavefront execution: every node inside a level depends only on
    // earlier levels and writes only val[i], so each level is a
    // data-parallel slice.  Partitioning is deterministic and per-node
    // expressions are unchanged, hence bit-identical to the serial walk.
    for (auto [node, tag] : graph_.inputs)
        val[node] = inputs[tag];
    const uint8_t *ops = graph_.ops.data();
    const uint32_t *off = graph_.edgeOffset.data();
    const uint32_t *tgt = graph_.edgeTarget.data();
    const double *wgt = graph_.edgeWeight.data();
    const uint32_t *sched = graph_.levelNodes.data();
    const size_t levels = graph_.numLevels();
    for (size_t l = 0; l < levels; ++l) {
        const size_t lo = graph_.levelOffset[l];
        const size_t hi = graph_.levelOffset[l + 1];
        pool.parallelFor(
            lo, hi, kMinNodesPerChunk,
            [&](size_t b, size_t e, unsigned) {
                for (size_t k = b; k < e; ++k)
                    evalNode(ops, off, tgt, wgt, val, sched[k]);
            });
    }
    return {values_.data(), values_.size()};
}

double
Evaluator::evaluateRoot(std::span<const double> inputs)
{
    return evaluate(inputs)[graph_.root];
}

void
Evaluator::evaluateBatch(std::span<const double> rows, size_t num_rows,
                         std::span<double> roots_out)
{
    const size_t stride = graph_.numInputs;
    reasonAssert(rows.size() >= num_rows * stride,
                 "batch input buffer too small");
    reasonAssert(roots_out.size() >= num_rows,
                 "batch output buffer too small");
    util::ThreadPool &pool = activePool();
    const unsigned threads = pool.numThreads();
    if (threads == 1 || num_rows < 2 * kMinRowsPerChunk) {
        for (size_t r = 0; r < num_rows; ++r)
            roots_out[r] =
                evaluate(rows.subspan(r * stride, stride))[graph_.root];
        return;
    }

    // Row-parallel: each worker streams a contiguous row slice through
    // its own value buffer; rows are independent, so any partitioning
    // yields the same per-row results as serial evaluate() calls.
    if (batchValues_.size() < threads) {
        batchValues_.resize(threads);
        for (auto &buf : batchValues_) {
            if (buf.empty()) {
                buf.assign(graph_.numNodes(), 0.0);
                for (auto [node, value] : graph_.consts)
                    buf[node] = value;
            }
        }
    }
    pool.parallelFor(
        0, num_rows, kMinRowsPerChunk,
        [&](size_t b, size_t e, unsigned worker) {
            double *val = batchValues_[worker].data();
            for (size_t r = b; r < e; ++r) {
                evalAllSerial(graph_,
                              rows.subspan(r * stride, stride), val);
                roots_out[r] = val[graph_.root];
            }
        });
}

} // namespace core
} // namespace reason
