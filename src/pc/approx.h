/**
 * @file
 * Query-time budgeted approximate inference over the flat CSR
 * substrate: the anytime tier of the serving stack (REASON Sec. V-B
 * applied to the PC workload; cf. A-NeSI-style budgeted approximate
 * inference).  Pruning produces a smaller circuit that the one exact
 * engine (CircuitEvaluator) runs — there is no second evaluator.
 *
 * Two pieces:
 *
 *  - **staticUpperBounds** — per-node, evidence-independent upper
 *    bounds on the log value any assignment can produce (leaf: at
 *    most the largest log mass, never below the missing-value
 *    identity 0; product: sum of child bounds; sum: logsumexp of
 *    weighted child bounds).  These order sum edges by the most mass
 *    they could ever contribute.
 *
 *  - **ApproxEvaluator** — a top-k/beam pruning pass: at construction
 *    it keeps, per sum node, the edges whose static score is within
 *    the accuracy budget of the node's best edge (always keeping the
 *    best), drops the rest, restricts to the root-reachable
 *    sub-circuit, and pre-folds the dropped edges of each sum into a
 *    single static *rest* bound.  It emits one FlatCircuit holding
 *    both endpoints:
 *
 *      - the kept sub-circuit, whose root is the lower root: its
 *        exact log value is the point value and the lower endpoint;
 *      - only when something mass-bearing was dropped, a sentinel
 *        empty product (log value 0) at id 0, and an *upper copy* of
 *        every kept node whose value can differ — a sum that dropped
 *        mass, or a node above one.  A copy takes its children's upper
 *        values and, on a sum that dropped mass, one extra *last* edge
 *        to the sentinel whose log-weight is the rest bound.  The copy
 *        of the root is the upper root and the circuit's root.
 *
 *    The emitted circuit's slot program reports both endpoints, so
 *    one root pass of CircuitEvaluator (evaluateOutputs for a row,
 *    evaluateOutputsBatch for a batch) yields both.  The endpoints are
 *    padded by a tiny relative slack.  The reported
 *    interval **always contains the exact answer** — the
 *    differential harness (tests/test_approx.cc) enforces zero
 *    violations over the random-circuit corpus.  With budget 0 only
 *    exact additive identities are dropped, no sentinel or copy
 *    exists, and the value is **bit-identical** to CircuitEvaluator —
 *    the exact tier expressed as the degenerate beam.
 *
 * **Determinism contract.**  Construction and queries are pure
 * functions of (FlatCircuit, options) and the assignment: no global
 * RNG, and the emitted circuit inherits CircuitEvaluator's
 * bit-identity across batch shapes, thread counts, and SIMD backends,
 * so results are bit-identical however rows are batched or served.
 *
 * **Thread-safety.**  One ApproxEvaluator serves one caller at a
 * time (evaluator scratch); the referenced FlatCircuit must outlive
 * it.
 * Concurrent callers each take their own evaluator over the shared
 * FlatCircuit, and each evaluator its own pool (or a 1-worker pool),
 * as the engine's dispatchers do: the default pool is the shared
 * global one, and a pool runs one parallelFor at a time
 * (util/parallel.h).
 */

#ifndef REASON_PC_APPROX_H
#define REASON_PC_APPROX_H

#include <memory>
#include <vector>

#include "pc/flat_pc.h"

namespace reason {
namespace pc {

/**
 * Evidence-independent per-node upper bounds on the log value, valid
 * for every (possibly partial) assignment.  Computed in one id-order
 * pass (children precede parents in FlatCircuit).
 */
std::vector<double> staticUpperBounds(const FlatCircuit &flat);

/** Construction knobs of an ApproxEvaluator. */
struct ApproxOptions
{
    /**
     * Accuracy budget: the fraction of a sum node's statically
     * bounded edge mass the beam may drop.  0 (default) keeps every
     * mass-bearing edge — the exact tier, bit-identical to
     * CircuitEvaluator.  Larger budgets prune more aggressively and
     * widen the reported bound monotonically (nested keep sets).
     * Must be finite and non-negative.
     */
    double budget = 0.0;
};

/** One approximate query answer: point value plus a containing bound. */
struct ApproxResult
{
    /** Exact log value of the pruned circuit (the lower endpoint
     *  before slack padding); bit-identical to the exact tier when
     *  nothing mass-bearing was pruned. */
    double value = 0.0;
    /** Certified interval: lo <= exact log-likelihood <= hi. */
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Budgeted beam evaluator over a FlatCircuit (see file comment).
 * Construction cost is one pass over nodes + edges; queries visit
 * only the kept sub-circuit.
 */
class ApproxEvaluator
{
  public:
    /**
     * @param flat  circuit to prune; must outlive the evaluator.
     * @param pool  worker pool of the emitted circuit's evaluator;
     *              nullptr selects util::globalThreadPool().
     */
    ApproxEvaluator(const FlatCircuit &flat,
                    const ApproxOptions &options = {},
                    util::ThreadPool *pool = nullptr);

    /** Interval query for one (possibly partial) assignment. */
    ApproxResult query(const Assignment &x);

    /**
     * Batched interval queries: one result per row, from one root pass
     * over the batch.  Every row is bit-identical to a standalone
     * query() — the coalescing contract of the serving engine.
     */
    void queryBatch(const std::vector<Assignment> &xs,
                    std::vector<ApproxResult> &out);

    /** Nodes kept after pruning + reachability restriction. */
    size_t keptNodes() const { return keptNodes_; }
    /** Edges kept across all kept nodes. */
    size_t keptEdges() const { return keptEdges_; }
    /** Nodes / edges of the underlying FlatCircuit. */
    size_t totalNodes() const { return flat_.numNodes(); }
    size_t totalEdges() const { return flat_.numEdges(); }
    /**
     * True when no mass-bearing edge was dropped anywhere: queries
     * then report lo == value == hi with zero slack, bit-identical
     * to the exact tier (always the case at budget 0).
     */
    bool isExact() const { return exact_; }

    const FlatCircuit &flat() const { return flat_; }

  private:
    /** The emitted circuit and its evaluator, at a stable address
     *  (the evaluator references the circuit). */
    struct Pruned
    {
        Pruned(FlatCircuit circuit, util::ThreadPool *pool)
            : flat(std::move(circuit)), eval(flat, pool)
        {
        }
        FlatCircuit flat;
        CircuitEvaluator eval;
    };

    /** Point value plus the padded interval of one row. */
    ApproxResult result(double lo, double hi) const;

    const FlatCircuit &flat_;
    std::unique_ptr<Pruned> pruned_;
    /** Ids of the two endpoints in the emitted circuit; equal when
     *  nothing differs. */
    uint32_t lowerRoot_ = kInvalidNode;
    uint32_t upperRoot_ = kInvalidNode;
    size_t keptNodes_ = 0;
    size_t keptEdges_ = 0;
    bool exact_ = true;
    /** Per-row batch scratch: the program outputs, row-major. */
    std::vector<double> batch_;
};

} // namespace pc
} // namespace reason

#endif // REASON_PC_APPROX_H
