/**
 * @file
 * Flat CSR adapter for probabilistic circuits: the log-domain companion
 * of core/flat.h (REASON Sec. IV-A applied to the PC substrate).
 *
 * `Circuit::evaluate` walks per-node child vectors and heap-allocates a
 * full log-value buffer on every call; it also re-computes log(weight)
 * and log(dist) on every visit.  Every repeated-pass query —
 * likelihoods over a dataset, EM flows, entropy estimates, marginal
 * sweeps — pays that per sample.  `FlatCircuit` lowers the circuit once
 * into contiguous arrays with *pre-computed* edge log-weights and leaf
 * log-distributions, plus a compiled slot program for root passes.
 * Two runtime-dispatched kernels of the 8-lane SIMD layer (util/simd.h)
 * then serve every query, over reusable scratch, as 8-row blocks: the
 * upward one (`CircuitEvaluator`'s root passes) and the downward one
 * (`FlowAccumulator`'s flow pass, which also answers posterior
 * marginals) — each bit-identical across batch shapes, thread counts,
 * and SIMD backends.
 */

#ifndef REASON_PC_FLAT_PC_H
#define REASON_PC_FLAT_PC_H

#include <cstdint>
#include <span>
#include <vector>

#include "pc/pc.h"
#include "util/parallel.h"

namespace reason {
namespace simd {
struct SlotProgram;
struct FlowProgram;
} // namespace simd

namespace pc {

/**
 * CSR lowering of a Circuit with log-space constants baked in.
 *
 * Besides the forward (child) CSR, the lowering derives:
 *
 *  - a **root-pass slot program** (RootProgram), the compiled form of
 *    the upward pass that logLikelihood, logLikelihoodBatch, the
 *    approximate tier and the flow kernel's upward half run;
 *  - a **parent transpose** (CSC view) listing, per node, the forward
 *    edge ids arriving from its parents in *descending parent order*,
 *    plus the parent of each (parentNode), so the flow kernel's
 *    downward half gathers each node's flow with one writer per node
 *    and a deterministic fold order.
 *
 * FlatCircuit is immutable after construction and safe for concurrent
 * unsynchronized reads; many evaluators may share one instance.
 */
class FlatCircuit
{
  public:
    enum NodeType : uint8_t { kLeaf = 0, kSum = 1, kProduct = 2 };

    explicit FlatCircuit(const Circuit &circuit);

    /**
     * Empty circuit for direct builders (pc/from_logic's d-DNNF
     * lowering, the streaming `.nnf` loader): fill the CSR arrays
     * (types, edgeOffset/edgeTarget/edgeLogWeight, leaf arrays, root,
     * numVars, arity) with children at lower ids than their parents,
     * then call finalizeTopology() exactly once.
     */
    FlatCircuit() = default;

    /**
     * Derive the root-pass program, parent transpose and fan-in bound
     * from the filled CSR arrays.  Identical to the tail of the Circuit
     * constructor, so a directly-built circuit is indistinguishable
     * from a lowered one.  Requires a valid root and topological
     * (child-before-parent) node order.
     */
    void finalizeTopology();

    /**
     * The upward half of finalizeTopology(): maxFanIn and the root-pass
     * program, but no parent transpose (8 bytes per edge and 4 per
     * node).  Enough for CircuitEvaluator; the flow pass
     * (FlowAccumulator) rejects such a circuit.  `outputs` lists the
     * nodes the program reports, in order; empty selects {root}.
     */
    void finalizeUpwardTopology(std::vector<uint32_t> outputs = {});

    size_t numNodes() const { return types.size(); }
    size_t numEdges() const { return edgeTarget.size(); }
    size_t numLeaves() const { return leafVar.size(); }

    /** Per-node type (NodeType). */
    std::vector<uint8_t> types;
    /** CSR child offsets; size numNodes()+1. */
    std::vector<uint32_t> edgeOffset;
    /** Child node ids, order preserved. */
    std::vector<uint32_t> edgeTarget;
    /**
     * Per-edge log(weight) for sum edges with weight > 0, kLogZero for
     * non-positive weights (evaluators skip those) and non-sum edges.
     */
    std::vector<double> edgeLogWeight;
    /** Per-node leaf slot (dense leaf index), kInvalidNode otherwise. */
    std::vector<uint32_t> leafSlot;
    /** Per-leaf-slot variable index. */
    std::vector<uint32_t> leafVar;
    /** Packed per-leaf log distributions: [slot * arity + value]. */
    std::vector<double> leafLogDist;
    /** Transpose offsets: parents of node i are parentEdge[parentOffset[i]
     *  .. parentOffset[i+1]); size numNodes()+1. */
    std::vector<uint32_t> parentOffset;
    /** Forward edge ids into each node, descending parent order; a
     *  gather reads an edge's weight as edgeLogWeight[parentEdge[k]]. */
    std::vector<uint32_t> parentEdge;
    /** Aligned with parentEdge: parentNode[k] is the node whose CSR edge
     *  range holds parentEdge[k]. */
    std::vector<uint32_t> parentNode;

    /**
     * The root-pass slot program (simd::SlotProgram holds the kernel's
     * view of it), derived by finalizeUpwardTopology():
     *
     *  - ops are the nodes reachable from the outputs over
     *    mass-bearing edges, in id order (a zero-weight sum edge adds
     *    an exact 0, so it and whatever only it reaches are dropped);
     *  - each op's value gets a slot from a free list, and the slot is
     *    freed after the value's last reader, so the live set, not the
     *    node count, sizes an evaluator's scratch;
     *  - operands are slots, and weights and leaf tables are split
     *    into (mantissa, exponent) pairs for the linear-domain kernel.
     */
    struct RootProgram
    {
        /** Per op: kind << 30 | destination slot. */
        std::vector<uint32_t> op;
        /** Per op: operand count, or the leaf slot of a leaf. */
        std::vector<uint32_t> arg;
        /** Per op: the node it computes (where the flow pass stores the
         *  op's log value). */
        std::vector<uint32_t> node;
        /** Operand slots of every sum and product, in op order. */
        std::vector<uint32_t> operand;
        /** Per sum operand, in op order: weight mantissa in [1, 2)
         *  and exponent. */
        std::vector<double> weightMant;
        std::vector<int32_t> weightExp;
        /** (mantissa, exponent) of every leaf table entry, at
         *  [2 * (leaf slot * arity + value)]; zero mass is (0, -inf). */
        std::vector<double> leafPair;
        /** Output node ids, and the slots that hold them. */
        std::vector<uint32_t> outputs;
        std::vector<uint32_t> outputSlot;
        uint32_t numSlots = 0;
    };
    RootProgram program;

    /** The kernel's plain-array view of `program`, over this circuit's
     *  leaf variables (include util/simd.h to use it). */
    simd::SlotProgram programView() const;
    /** The flow kernel's view: programView() plus each op's node and
     *  the parent transpose.  Needs finalizeTopology() and a program
     *  whose one output is the root. */
    simd::FlowProgram flowView() const;

    uint32_t numVars = 0;
    uint32_t arity = 0;
    uint32_t root = kInvalidNode;
    /** Largest child fan-in of any node (sum/product arity bound). */
    uint32_t maxFanIn = 0;
};

/**
 * Allocation-free root-pass evaluator.  Agrees with
 * Circuit::logLikelihood to the 1e-12 reference contract.  The
 * referenced FlatCircuit must outlive the evaluator.
 *
 * Every pass (logLikelihood, logLikelihoodBatch, evaluateOutputs,
 * evaluateOutputsBatch) runs the circuit's slot program through one
 * runtime-dispatched block kernel (simd::runSlotProgram), in an
 * exponent-tracked linear domain: no exp per edge, one log per output.
 * Every row runs in an 8-lane block — a single row fills all lanes, a
 * batch tail repeats its last row, and only live lanes are stored — and
 * lanes never interact, so every row's value is **bit-identical**
 * regardless of batch size, batch composition, tail position, thread
 * count, or kernel table: the guarantee the serving engine's coalescing
 * relies on.  The downward half lives in FlowAccumulator.
 *
 * **Threading.**  With a multi-worker pool (explicit or the global
 * pool), the batched passes split the row-block dimension across
 * workers (private slot scratch per worker, sized by the program's
 * live slots, not the node count).
 *
 * **Thread-safety contract.**  One CircuitEvaluator serves one caller
 * at a time; for concurrent queries create one evaluator per thread
 * over a shared FlatCircuit (immutable, concurrently readable).
 */
class CircuitEvaluator
{
  public:
    /**
     * @param flat  lowered circuit; must outlive the evaluator.
     * @param pool  worker pool; nullptr selects util::globalThreadPool().
     */
    explicit CircuitEvaluator(const FlatCircuit &flat,
                              util::ThreadPool *pool = nullptr);

    /**
     * log P(x): one root pass, the row in every lane of one block;
     * kMissing variables are marginalized out.  Requires the program's
     * outputs to be {root} (the default).
     */
    double logLikelihood(const Assignment &x);

    /**
     * Batched log-likelihoods: one output per assignment.  Rows run in
     * blocks of kBlock through the slot-program kernel; a trailing
     * partial block repeats its last row in the unused lanes and
     * stores only the live ones, so every row is bit-identical to any
     * other batch shape.  Blocks are split across pool workers; zero
     * allocations once warm.  Requires the program's outputs to be
     * {root}.
     */
    void logLikelihoodBatch(const std::vector<Assignment> &xs,
                            std::span<double> out);

    /**
     * The log values of every program output
     * (FlatCircuit::RootProgram::outputs) in one root pass, in output
     * order; `out` holds at least that many doubles.
     */
    void evaluateOutputs(const Assignment &x, std::span<double> out);

    /**
     * evaluateOutputs for every row, row-major: the value of output k
     * for row r lands at out[r * outputs + k].  Same blocking and
     * bit-identity as logLikelihoodBatch.
     */
    void evaluateOutputsBatch(const std::vector<Assignment> &xs,
                              std::span<double> out);

    /** Rows per block: one simd::Pack of lanes. */
    static constexpr size_t kBlock = 8;

    const FlatCircuit &flat() const { return flat_; }

  private:
    /** The explicit pool, or the (possibly reconfigured) global one. */
    util::ThreadPool &activePool() const;
    /** Root pass over rows[0..n) (n >= 1): the values of every program
     *  output, row-major, into out. */
    void runRootPass(const Assignment *rows, size_t n, double *out);

    const FlatCircuit &flat_;
    /** Explicit pool, or nullptr = resolve the global pool per call. */
    util::ThreadPool *pool_;
    /** Per-worker root-pass scratch: program slots, then one block of
     *  output values (lazy). */
    std::vector<double> slots_;
};

struct DatasetFlows;
struct FlowShardOptions;

/**
 * Streaming top-down circuit-flow accumulator (Sec. IV-B): per-edge,
 * per-node and observed-leaf-value flow totals over a stream of rows.
 *
 * Rows run in 8-row blocks through one runtime-dispatched kernel
 * (simd::runFlowBlock), a whole flow pass per block: its upward half
 * runs the root-pass slot program in the linear domain and stores each
 * program node's log value; its downward half gathers each node's flow
 * from its parents through the transpose in descending parent order,
 * with one 8-lane exp per sum edge for all 8 rows.  Only the nodes the
 * program holds carry flow; the others (reached only over zero-weight
 * edges, or not at all) add nothing.  Lanes never interact, and every
 * total adds a block's lanes in row order, so a row adds the same bits
 * whatever its block, lane, tail position, thread count or kernel
 * table: a block equals a left fold of single rows, and add(x) is a
 * one-row block.  A row of zero probability adds exactly 0.
 *
 * A lone accumulator runs serially on its caller, with one block of
 * scratch (the program's slots plus 8 lanes per node) allocated by the
 * first add(); parallelism comes from accumulateDatasetFlows' shards.
 *
 * **Thread-safety contract.**  One accumulator per caller; totals are
 * plain members.  Concurrent accumulation requires one accumulator per
 * thread over a shared FlatCircuit plus a caller-side merge.
 */
class FlowAccumulator
{
  public:
    /**
     * @param flat  lowered circuit with its parent transpose; must
     *              outlive the accumulator.
     * @param pool  unused: a lone accumulator runs serially.  Kept so
     *              callers that pass one still compile.
     */
    explicit FlowAccumulator(const FlatCircuit &flat,
                             util::ThreadPool *pool = nullptr);

    /** Accumulate the flows of one (possibly partial) assignment. */
    void add(const Assignment &x);

    /**
     * Fold another accumulator's totals into this one (element-wise
     * `this += other`), the merge step of sharded accumulation.  Both
     * accumulators must be lowered from the same FlatCircuit.
     */
    void mergeFrom(const FlowAccumulator &other);

    size_t count() const { return count_; }
    /** Total edge flows, CSR-aligned with FlatCircuit::edgeTarget. */
    const std::vector<double> &edgeFlow() const { return edgeTotal_; }
    /** Total per-node flows. */
    const std::vector<double> &nodeFlow() const { return nodeTotal_; }
    /**
     * Total leaf flow attributed to the observed value, packed as
     * [leaf slot * arity + value]; the EM leaf statistic.
     */
    const std::vector<double> &leafValueFlow() const { return leafTotal_; }

  private:
    /** Runs shards through addRows and moves their totals out. */
    friend DatasetFlows accumulateDatasetFlows(
        const FlatCircuit &, const std::vector<Assignment> &,
        const FlowShardOptions &, util::ThreadPool *);

    /**
     * Add rows[0..n) block by block, with `scratch` (sized and filled
     * by initFlowScratch) as the block scratch; rowLog[r], unless null,
     * receives row r's log-likelihood, bit-identical to
     * CircuitEvaluator::logLikelihoodBatch.
     */
    void addRows(const Assignment *rows, size_t n, double *scratch,
                 double *rowLog);

    const FlatCircuit &flat_;
    /** add()'s block scratch; empty until the first add(). */
    std::vector<double> scratch_;
    std::vector<double> edgeTotal_;
    std::vector<double> nodeTotal_;
    std::vector<double> leafTotal_;
    size_t count_ = 0;
};

/**
 * Sample-level sharding options for accumulateDatasetFlows.  Defaults
 * inherit the process-wide util::ReductionPolicy (the
 * --shards/--fast-reductions knob); explicit assignment overrides it.
 * See ReductionPolicy for the shard-resolution and determinism rules.
 */
struct FlowShardOptions
{
    /** 0 = auto (fixed count when deterministic, else pool workers). */
    unsigned shards = util::reductionPolicy().shards;
    /** Fixed reduction shape, bit-identical across thread counts. */
    bool deterministic = util::reductionPolicy().deterministic;
};

/** Dataset-level flow totals, same layouts as FlowAccumulator. */
struct DatasetFlows
{
    /** Total edge flows, CSR-aligned with FlatCircuit::edgeTarget. */
    std::vector<double> edgeFlow;
    /** Total per-node flows. */
    std::vector<double> nodeFlow;
    /** Observed-value leaf flow, packed [leaf slot * arity + value]. */
    std::vector<double> leafValueFlow;
    /** Per row, in data order: log P(row), bit-identical to
     *  CircuitEvaluator::logLikelihoodBatch (the flow kernel's upward
     *  half is the root pass). */
    std::vector<double> logLikelihood;
    size_t count = 0;
    /** Shards actually used (diagnostics/tests). */
    unsigned shards = 1;
};

/**
 * Flow totals of a whole dataset with sample-level sharding: the sample
 * range is split into `shards` contiguous, deterministically-placed
 * slices, each fed block by block through the flow kernel (see
 * FlowAccumulator) by one worker into that shard's totals, then merged
 * by a fixed-shape pairwise tree reduction (util::treeReduce) whose
 * shape depends only on the shard count.  Every shard's totals, and one
 * block scratch per participating worker (never one per shard), are
 * allocated on the calling thread; the scratches stay with that thread
 * for its next call, so repeated E-steps do not fault them in again.
 * Each row's log-likelihood is written by the worker that owns its
 * row.
 *
 * Determinism: with opts.deterministic (default) the shard count never
 * depends on the worker count, so totals are bit-identical for any
 * thread count; shards == 1 is the serial left fold of add().  Fast
 * mode (deterministic = false) shards per worker, changing only the
 * reduction shape.
 */
DatasetFlows accumulateDatasetFlows(const FlatCircuit &flat,
                                    const std::vector<Assignment> &data,
                                    const FlowShardOptions &opts = {},
                                    util::ThreadPool *pool = nullptr);

} // namespace pc
} // namespace reason

#endif // REASON_PC_FLAT_PC_H
