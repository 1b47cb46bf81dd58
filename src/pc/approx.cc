#include "pc/approx.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/numeric.h"
#include "util/simd.h"

namespace reason {
namespace pc {

namespace {

/**
 * Relative slack padding the reported interval: the endpoints are
 * computed in floating point, so containment of the (equally rounded)
 * exact answer is certified up to accumulated rounding.  1e-9 of the
 * endpoint magnitude is orders beyond any chain of canonical-kernel
 * roundings while staying far inside the 1e-3 accuracy gate.
 */
constexpr double kBoundSlack = 1e-9;

double
padLo(double x)
{
    return x == kLogZero ? x : x - kBoundSlack * (1.0 + std::fabs(x));
}

double
padHi(double x)
{
    return x == kLogZero ? x : x + kBoundSlack * (1.0 + std::fabs(x));
}

/** Two-pass logsumexp over `n` staged terms, kLogZero terms skipped —
 *  the canonical sum-layer expressions at lane count 1. */
double
foldTerms(const double *terms, size_t n)
{
    double hi = kLogZero;
    for (size_t k = 0; k < n; ++k)
        if (terms[k] > hi)
            hi = terms[k];
    if (hi == kLogZero)
        return kLogZero;
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k)
        if (terms[k] != kLogZero)
            acc += fastExpNonPositive(terms[k] - hi);
    return hi + simd::fastLogPositive(acc);
}

} // namespace

std::vector<double>
staticUpperBounds(const FlatCircuit &flat)
{
    const size_t n = flat.numNodes();
    std::vector<double> ub(n, kLogZero);
    std::vector<double> terms(std::max<uint32_t>(flat.maxFanIn, 1));
    for (size_t i = 0; i < n; ++i) {
        switch (flat.types[i]) {
          case FlatCircuit::kLeaf: {
            // A missing variable contributes exactly 0 (the
            // marginalization identity), an observed one at most the
            // largest log mass — never more than 0 for a normalized
            // leaf, but the max keeps the bound valid regardless.
            const uint32_t s = flat.leafSlot[i];
            double best = 0.0;
            for (uint32_t v = 0; v < flat.arity; ++v)
                best = std::max(
                    best, flat.leafLogDist[size_t(s) * flat.arity + v]);
            ub[i] = best;
            break;
          }
          case FlatCircuit::kProduct: {
            double acc = 0.0;
            for (uint32_t e = flat.edgeOffset[i];
                 e < flat.edgeOffset[i + 1]; ++e)
                acc += ub[flat.edgeTarget[e]];
            ub[i] = acc;
            break;
          }
          case FlatCircuit::kSum: {
            const uint32_t lo = flat.edgeOffset[i];
            const uint32_t hi = flat.edgeOffset[i + 1];
            for (uint32_t e = lo; e < hi; ++e)
                terms[e - lo] =
                    flat.edgeLogWeight[e] + ub[flat.edgeTarget[e]];
            ub[i] = foldTerms(terms.data(), hi - lo);
            break;
          }
        }
    }
    return ub;
}

namespace {

/** What one pruning pass emits (see ApproxEvaluator). */
struct Emitted
{
    /** Rooted at the upper endpoint. */
    FlatCircuit circuit;
    uint32_t lowerRoot = kInvalidNode;
    size_t keptNodes = 0;
    size_t keptEdges = 0;
    /** No mass-bearing edge was dropped: no sentinel, no copies. */
    bool exact = true;
};

/** `reach` mark of a kept node whose upper value can differ. */
constexpr uint8_t kDiffers = 2;

/**
 * The pruning pass: keep decisions, rest bounds, root reachability,
 * and the emission of the circuit.  Its O(nodes) temporaries die on
 * return, before the caller allocates the long-lived evaluator, so
 * that does not pin the temporaries' memory in the allocator's arena.
 */
Emitted
prune(const FlatCircuit &flat, double budget)
{
    const size_t n = flat.numNodes();
    const size_t m = flat.numEdges();
    const std::vector<double> ub = staticUpperBounds(flat);

    // Per-edge keep decision.  Sum nodes keep the edges whose static
    // weighted bound survives the budget threshold, plus always the
    // best edge; zero-mass edges are free to drop (exact additive
    // identities).  Products and leaves keep everything.
    std::vector<uint8_t> keep(m, 1);
    std::vector<double> rest_ub(n, kLogZero);
    std::vector<double> rest_terms;
    Emitted out;
    for (size_t i = 0; i < n; ++i) {
        if (flat.types[i] != FlatCircuit::kSum)
            continue;
        const uint32_t lo = flat.edgeOffset[i];
        const uint32_t hi = flat.edgeOffset[i + 1];
        uint32_t active = 0;
        uint32_t best_edge = kInvalidNode;
        double best = kLogZero;
        for (uint32_t e = lo; e < hi; ++e) {
            const double score =
                flat.edgeLogWeight[e] + ub[flat.edgeTarget[e]];
            if (score == kLogZero) {
                keep[e] = 0; // contributes exactly nothing
                continue;
            }
            ++active;
            // First strict maximum; ties resolve to the earliest
            // edge, a deterministic choice.
            if (best_edge == kInvalidNode || score > best) {
                best_edge = e;
                best = score;
            }
        }
        if (active == 0)
            continue;
        if (budget > 0.0) {
            // Beam rule: dropping every edge below
            // best + log(budget/active) discards at most `budget`
            // of the node's statically bounded mass.
            const double thr = best + std::log(budget) -
                               std::log(double(active));
            for (uint32_t e = lo; e < hi; ++e) {
                if (!keep[e] || e == best_edge)
                    continue;
                const double score =
                    flat.edgeLogWeight[e] + ub[flat.edgeTarget[e]];
                if (!(score > thr))
                    keep[e] = 0;
            }
        }
        // Pre-fold the dropped edges into one static rest bound; a
        // finite rest means real mass was discarded and the interval
        // must account for it.
        rest_terms.clear();
        for (uint32_t e = lo; e < hi; ++e)
            if (!keep[e])
                rest_terms.push_back(flat.edgeLogWeight[e] +
                                     ub[flat.edgeTarget[e]]);
        rest_ub[i] = foldTerms(rest_terms.data(), rest_terms.size());
        if (rest_ub[i] != kLogZero)
            out.exact = false;
    }

    // Root-reachable restriction over kept edges.
    std::vector<uint8_t> reach(n, 0);
    std::vector<uint32_t> stack;
    stack.push_back(flat.root);
    reach[flat.root] = 1;
    while (!stack.empty()) {
        const uint32_t i = stack.back();
        stack.pop_back();
        for (uint32_t e = flat.edgeOffset[i];
             e < flat.edgeOffset[i + 1]; ++e) {
            if (flat.types[i] == FlatCircuit::kSum && !keep[e])
                continue;
            const uint32_t c = flat.edgeTarget[e];
            if (!reach[c]) {
                reach[c] = 1;
                stack.push_back(c);
            }
        }
    }

    // A node's upper value can differ from its lower value when it is
    // a sum that dropped mass or sits above one.  Children precede
    // parents, so one id-order pass marks them.
    for (size_t i = 0; i < n; ++i) {
        if (!reach[i])
            continue;
        bool differs = rest_ub[i] != kLogZero;
        for (uint32_t e = flat.edgeOffset[i]; e < flat.edgeOffset[i + 1];
             ++e) {
            if (flat.types[i] == FlatCircuit::kSum && !keep[e])
                continue;
            differs = differs || reach[flat.edgeTarget[e]] == kDiffers;
        }
        if (differs)
            reach[i] = kDiffers;
    }

    // Emit in id order — children before parents, kept edges in CSR
    // order, so the budget-0 circuit runs the canonical kernel over the
    // exact same term sequence — with only the kept leaves, in
    // re-densified slots.  When mass was dropped, id 0 is the sentinel,
    // and each differing node's upper copy follows it at id + 1: kept
    // edges to the children's upper values, then the rest edge last.
    const uint32_t first = out.exact ? 0 : 1;
    std::vector<uint32_t> remap(n, kInvalidNode);
    uint32_t next = first;
    for (size_t i = 0; i < n; ++i)
        if (reach[i]) {
            remap[i] = next;
            next += reach[i] == kDiffers ? 2 : 1;
        }
    FlatCircuit &c = out.circuit;
    c.numVars = flat.numVars;
    c.arity = flat.arity;
    c.types.reserve(next);
    c.leafSlot.reserve(next);
    c.edgeOffset.reserve(next + 1);
    c.edgeOffset.push_back(0);
    if (!out.exact) {
        // The empty product: log value 0, so a rest term is its bound.
        c.types.push_back(FlatCircuit::kProduct);
        c.leafSlot.push_back(kInvalidNode);
        c.edgeOffset.push_back(0);
    }
    const auto emit = [&](size_t i, bool upper) {
        c.types.push_back(flat.types[i]);
        if (flat.types[i] != FlatCircuit::kLeaf) {
            c.leafSlot.push_back(kInvalidNode);
        } else {
            const uint32_t s = flat.leafSlot[i];
            c.leafSlot.push_back(uint32_t(c.leafVar.size()));
            c.leafVar.push_back(flat.leafVar[s]);
            const double *dist =
                flat.leafLogDist.data() + size_t(s) * flat.arity;
            c.leafLogDist.insert(c.leafLogDist.end(), dist,
                                 dist + flat.arity);
        }
        for (uint32_t e = flat.edgeOffset[i]; e < flat.edgeOffset[i + 1];
             ++e) {
            if (flat.types[i] == FlatCircuit::kSum && !keep[e])
                continue;
            const uint32_t t = flat.edgeTarget[e];
            c.edgeTarget.push_back(remap[t] +
                                   (upper && reach[t] == kDiffers));
            c.edgeLogWeight.push_back(flat.edgeLogWeight[e]);
        }
        if (upper && rest_ub[i] != kLogZero) {
            c.edgeTarget.push_back(0);
            c.edgeLogWeight.push_back(rest_ub[i]);
        }
        c.edgeOffset.push_back(uint32_t(c.edgeTarget.size()));
    };
    for (size_t i = 0; i < n; ++i) {
        if (!reach[i])
            continue;
        const size_t edges = c.numEdges();
        emit(i, false);
        ++out.keptNodes;
        out.keptEdges += c.numEdges() - edges;
        if (reach[i] == kDiffers)
            emit(i, true);
    }
    out.lowerRoot = remap[flat.root];
    c.root = out.lowerRoot + (reach[flat.root] == kDiffers);
    // Only root passes run this circuit: no parent transpose, and one
    // program that reports both endpoints.
    if (c.root == out.lowerRoot)
        c.finalizeUpwardTopology();
    else
        c.finalizeUpwardTopology({out.lowerRoot, c.root});
    return out;
}

} // namespace

ApproxEvaluator::ApproxEvaluator(const FlatCircuit &flat,
                                 const ApproxOptions &options,
                                 util::ThreadPool *pool)
    : flat_(flat)
{
    reasonAssert(std::isfinite(options.budget) && options.budget >= 0.0,
                 "accuracy budget must be finite and non-negative");
    Emitted emitted = prune(flat, options.budget);
    lowerRoot_ = emitted.lowerRoot;
    upperRoot_ = emitted.circuit.root;
    keptNodes_ = emitted.keptNodes;
    keptEdges_ = emitted.keptEdges;
    exact_ = emitted.exact;
    pruned_ = std::make_unique<Pruned>(std::move(emitted.circuit), pool);
}

ApproxResult
ApproxEvaluator::result(double lo, double hi) const
{
    // No slack when nothing was dropped: the exact tier's bits.
    if (exact_)
        return {lo, lo, lo};
    return {lo, padLo(lo), padHi(hi)};
}

ApproxResult
ApproxEvaluator::query(const Assignment &x)
{
    // The program's outputs are (lower, upper), or the one root.
    double v[2];
    pruned_->eval.evaluateOutputs(x, v);
    return result(v[0], v[upperRoot_ != lowerRoot_ ? 1 : 0]);
}

void
ApproxEvaluator::queryBatch(const std::vector<Assignment> &xs,
                            std::vector<ApproxResult> &out)
{
    out.resize(xs.size());
    // One root pass yields both endpoints of every row.
    const size_t outs = upperRoot_ != lowerRoot_ ? 2 : 1;
    batch_.resize(xs.size() * outs);
    pruned_->eval.evaluateOutputsBatch(xs, batch_);
    for (size_t i = 0; i < xs.size(); ++i)
        out[i] = result(batch_[i * outs], batch_[i * outs + outs - 1]);
}

} // namespace pc
} // namespace reason
