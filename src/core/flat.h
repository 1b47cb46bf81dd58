/**
 * @file
 * Flat CSR kernel engine for the unified reasoning DAG (REASON Sec. IV-A).
 *
 * `Dag` stores one fan-in vector per node — convenient to build, but every
 * evaluation pointer-chases heap-scattered vectors and allocates a fresh
 * O(numNodes) result buffer.  The paper's observation is that all three
 * substrates stream the *same* operation sequence over a fixed topology,
 * which is exactly what hardware wants: contiguous opcode/edge arrays and
 * a static schedule.  `FlatGraph` lowers a `Dag` once into CSR-style
 * arrays (opcodes, edge offsets/targets, packed edge weights, a level
 * schedule), and `Evaluator` owns reusable scratch so repeated passes are
 * allocation-free and cache-friendly.
 *
 * Use `Dag::evaluate` as the readable reference walker and cross-check;
 * use `Evaluator` whenever the same DAG is evaluated more than a handful
 * of times (sampling, EM, benches, batched serving).
 */

#ifndef REASON_CORE_FLAT_H
#define REASON_CORE_FLAT_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/dag.h"

namespace reason {

namespace util {
class ThreadPool;
}

namespace core {

/**
 * Flat opcode.  Mirrors DagOp, but splits Sum into plain/weighted forms
 * so the hot loop dispatches without testing weight presence per node.
 */
enum class FlatOp : uint8_t
{
    Input,
    Const,
    Sum,         ///< unweighted addition over fan-in
    WeightedSum, ///< weighted addition; weights packed in edgeWeight
    Product,
    Max,
    Min,
    Not
};

/** Printable opcode name. */
const char *flatOpName(FlatOp op);

/**
 * CSR lowering of a Dag: structure-of-arrays, contiguous, immutable.
 *
 * Node i's operands are edgeTarget[edgeOffset[i] .. edgeOffset[i+1]) with
 * per-edge weights in the same index range of edgeWeight (1.0 for
 * non-weighted ops, so the arrays stay aligned).  Input and Const leaves
 * are listed separately so evaluators can pre-fill scratch and the hot
 * loop touches only operation nodes.
 *
 * The level schedule groups operation nodes by dependence depth: all
 * nodes of level L depend only on levels < L, so each level is a
 * data-parallel wavefront (the software analogue of the paper's pipelined
 * tree-PE issue schedule).
 */
struct FlatGraph
{
    /** Per-node opcode (FlatOp), indexed by original NodeId. */
    std::vector<uint8_t> ops;
    /** CSR fan-in offsets; size numNodes()+1. */
    std::vector<uint32_t> edgeOffset;
    /** Operand node ids, child-order preserved from the Dag. */
    std::vector<uint32_t> edgeTarget;
    /** Per-edge weight, aligned with edgeTarget (1.0 when unweighted). */
    std::vector<double> edgeWeight;
    /** (node, input tag) for every Input leaf. */
    std::vector<std::pair<uint32_t, uint32_t>> inputs;
    /** (node, value) for every Const leaf. */
    std::vector<std::pair<uint32_t, double>> consts;
    /** Wavefront offsets into levelNodes; size numLevels()+1. */
    std::vector<uint32_t> levelOffset;
    /** Operation nodes grouped by level, topological within a level. */
    std::vector<uint32_t> levelNodes;
    /** External input slot count (max tag + 1). */
    uint32_t numInputs = 0;
    /** Root node id. */
    uint32_t root = kInvalidNode;

    size_t numNodes() const { return ops.size(); }
    size_t numEdges() const { return edgeTarget.size(); }
    size_t
    numLevels() const
    {
        return levelOffset.empty() ? 0 : levelOffset.size() - 1;
    }
    /** Actual storage footprint of the flat arrays in bytes. */
    size_t memoryBytes() const;

    /** Structural invariants (offsets, targets, schedule); panics. */
    void validate() const;
};

/** Lower a Dag into flat CSR form.  O(nodes + edges). */
FlatGraph lowerDag(const Dag &dag);

/** A wavefront schedule: nodes grouped by level via offset slices. */
struct LevelSchedule
{
    /** Offsets into nodes; size numLevels+1. */
    std::vector<uint32_t> offset;
    /** Scheduled nodes, ascending id within a level. */
    std::vector<uint32_t> nodes;
};

/**
 * Compute the level (wavefront) schedule of a CSR DAG: a node's level
 * is one past its deepest operand (operand-free nodes are level 0).
 * Only nodes with a nonzero `schedulable` entry appear in the schedule;
 * levels are always computed over every node, so filtered-out leaves
 * still anchor level 0.  core::lowerDag schedules its operation nodes
 * with it.  O(nodes + edges).
 */
LevelSchedule buildLevelSchedule(size_t num_nodes,
                                 std::span<const uint32_t> edge_offset,
                                 std::span<const uint32_t> edge_target,
                                 std::span<const uint8_t> schedulable);

/**
 * Allocation-free evaluator over a FlatGraph.
 *
 * Owns one scratch buffer of per-node values, pre-filled with constants
 * at construction; every evaluate() reuses it.  The referenced FlatGraph
 * must outlive the evaluator.  Results are identical to Dag::evaluate
 * (same operation order, same floating-point expression shapes).
 *
 * **Threading.**  Pass a util::ThreadPool (or rely on the global pool)
 * and evaluate() executes each wavefront of the level schedule in
 * parallel: every node of a level depends only on earlier levels, each
 * node value has exactly one writer, and per-node expressions are
 * unchanged, so results are *bit-identical* to the serial path for any
 * thread count.  evaluateBatch() additionally splits the row dimension
 * across workers using one private per-worker value buffer each (lazily
 * allocated once, then reused).
 *
 * **Thread-safety contract.**  One Evaluator may be driven by one
 * caller at a time (the scratch is stateful); concurrent use requires
 * one Evaluator per thread, which may share a single FlatGraph —
 * FlatGraph is immutable after lowering and safe for unsynchronized
 * concurrent reads.
 */
class Evaluator
{
  public:
    /**
     * @param graph  lowered graph; must outlive the evaluator.
     * @param pool   worker pool for wavefront/batch parallelism;
     *               nullptr selects util::globalThreadPool().
     */
    explicit Evaluator(const FlatGraph &graph,
                       util::ThreadPool *pool = nullptr);

    /**
     * Evaluate for one input row (indexed by input tag; size must be
     * >= numInputs).  Returns a view of per-node values valid until the
     * next evaluate call.
     */
    std::span<const double> evaluate(std::span<const double> inputs);

    /** Evaluate and return only the root value. */
    double evaluateRoot(std::span<const double> inputs);

    /**
     * Batched evaluation over `num_rows` row-major input rows of
     * numInputs values each; writes one root value per row.  Rows are
     * split across pool workers (deterministic contiguous chunks, one
     * private value buffer per worker), so the batch is allocation-free
     * once warm and bit-identical to per-row evaluate() calls.
     */
    void evaluateBatch(std::span<const double> rows, size_t num_rows,
                       std::span<double> roots_out);

    const FlatGraph &graph() const { return graph_; }
    /**
     * Per-node values of the most recent evaluate().  Only meaningful
     * after evaluate(); evaluateBatch() does not update this view.
     */
    const std::vector<double> &values() const { return values_; }

  private:
    /** Smallest wavefront worth splitting across threads. */
    static constexpr size_t kMinNodesPerChunk = 2048;
    /** Smallest per-worker row count of the batched path. */
    static constexpr size_t kMinRowsPerChunk = 4;

    /** The explicit pool, or the (possibly reconfigured) global one. */
    util::ThreadPool &activePool() const;

    const FlatGraph &graph_;
    /** Explicit pool, or nullptr = resolve the global pool per call. */
    util::ThreadPool *pool_;
    std::vector<double> values_;
    /** Per-worker value buffers of the batched path (lazy). */
    std::vector<std::vector<double>> batchValues_;
};

} // namespace core
} // namespace reason

#endif // REASON_CORE_FLAT_H
