#include "pc/flat_pc.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/flat.h"
#include "util/logging.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

namespace reason {
namespace pc {

FlatCircuit::FlatCircuit(const Circuit &circuit)
    : numVars(circuit.numVars()), arity(circuit.arity()),
      root(circuit.root())
{
    reasonAssert(root != kInvalidNode, "circuit has no root");
    const size_t n = circuit.numNodes();
    types.resize(n);
    leafSlot.assign(n, kInvalidNode);
    edgeOffset.reserve(n + 1);
    edgeOffset.push_back(0);
    edgeTarget.reserve(circuit.numEdges());
    edgeLogWeight.reserve(circuit.numEdges());

    for (size_t i = 0; i < n; ++i) {
        const PcNode &node = circuit.node(NodeId(i));
        switch (node.type) {
          case PcNodeType::Leaf: {
            types[i] = kLeaf;
            leafSlot[i] = uint32_t(leafVar.size());
            leafVar.push_back(node.var);
            for (uint32_t v = 0; v < arity; ++v)
                leafLogDist.push_back(node.dist[v] > 0.0
                                          ? std::log(node.dist[v])
                                          : kLogZero);
            break;
          }
          case PcNodeType::Sum: {
            types[i] = kSum;
            for (size_t k = 0; k < node.children.size(); ++k) {
                edgeTarget.push_back(node.children[k]);
                edgeLogWeight.push_back(node.weights[k] > 0.0
                                            ? std::log(node.weights[k])
                                            : kLogZero);
            }
            break;
          }
          case PcNodeType::Product: {
            types[i] = kProduct;
            for (NodeId c : node.children) {
                edgeTarget.push_back(c);
                edgeLogWeight.push_back(kLogZero);
            }
            break;
          }
        }
        edgeOffset.push_back(uint32_t(edgeTarget.size()));
    }

    finalizeTopology();
}

void
FlatCircuit::finalizeUpwardTopology()
{
    reasonAssert(root != kInvalidNode, "circuit has no root");
    const size_t n = types.size();
    reasonAssert(edgeOffset.size() == n + 1, "CSR offsets incomplete");

    // Level (wavefront) schedule over all nodes: leaves sit in level 0
    // (they are re-filled per assignment), interior nodes one past
    // their deepest child.
    core::LevelSchedule sched =
        core::buildLevelSchedule(n, edgeOffset, edgeTarget);
    levelOffset = std::move(sched.offset);
    levelNodes = std::move(sched.nodes);

    maxFanIn = 0;
    for (size_t i = 0; i < n; ++i)
        maxFanIn = std::max(maxFanIn, edgeOffset[i + 1] - edgeOffset[i]);
}

void
FlatCircuit::finalizeTopology()
{
    finalizeUpwardTopology();
    const size_t n = types.size();

    // Parent transpose in descending parent order: the downward
    // gathers fold each node's incoming contributions in this fixed
    // order, making flow/derivative sums deterministic by construction.
    const size_t m = edgeTarget.size();
    edgeSource.resize(m);
    parentOffset.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i)
        for (uint32_t e = edgeOffset[i]; e < edgeOffset[i + 1]; ++e) {
            edgeSource[e] = uint32_t(i);
            ++parentOffset[edgeTarget[e] + 1];
        }
    for (size_t i = 1; i <= n; ++i)
        parentOffset[i] += parentOffset[i - 1];
    parentEdge.resize(m);
    {
        std::vector<uint32_t> cursor(parentOffset.begin(),
                                     parentOffset.end() - 1);
        for (size_t i = n; i-- > 0;)
            for (uint32_t e = edgeOffset[i]; e < edgeOffset[i + 1]; ++e)
                parentEdge[cursor[edgeTarget[e]]++] = e;
    }

    parentNode.resize(m);
    parentLogWeight.resize(m);
    for (size_t k = 0; k < m; ++k) {
        parentNode[k] = edgeSource[parentEdge[k]];
        parentLogWeight[k] = edgeLogWeight[parentEdge[k]];
    }

    maxParentFanIn = 0;
    for (size_t i = 0; i < n; ++i)
        maxParentFanIn = std::max(maxParentFanIn,
                                  parentOffset[i + 1] - parentOffset[i]);
}

namespace {

/**
 * Evaluate one circuit node into val[i] — the canonical sum-layer
 * kernel at lane count 1.  The expressions and accumulation order are
 * exactly one lane of the blocked SIMD kernel (evaluateBlock), so a
 * single-assignment walk, a full SoA block, and a masked tail block
 * all produce bit-identical values for the same row.  Shared by the
 * serial id-order walk and the parallel wavefront walk.
 */
inline void
evalCircuitNode(const FlatCircuit &flat, const Assignment &x, double *val,
                double *terms, size_t i)
{
    const uint8_t *types = flat.types.data();
    const uint32_t *off = flat.edgeOffset.data();
    const uint32_t *tgt = flat.edgeTarget.data();
    const double *lw = flat.edgeLogWeight.data();
    switch (types[i]) {
      case FlatCircuit::kLeaf: {
        const uint32_t s = flat.leafSlot[i];
        const uint32_t v = x[flat.leafVar[s]];
        if (v == kMissing) {
            val[i] = 0.0; // marginalized: sums to 1
        } else {
            reasonAssert(v < flat.arity, "assignment value out of range");
            val[i] = flat.leafLogDist[size_t(s) * flat.arity + v];
        }
        break;
      }
      case FlatCircuit::kProduct: {
        // Straight-line add (no early break): -inf absorbs and no
        // operand can be +inf, so the result is unchanged and the
        // loop stays branch-free.
        double acc = 0.0;
        for (uint32_t e = off[i]; e < off[i + 1]; ++e)
            acc += val[tgt[e]];
        val[i] = acc;
        break;
      }
      case FlatCircuit::kSum: {
        // Two-pass log-sum-exp: one max scan, then exp-accumulate
        // against the max (one log per *node* instead of one
        // log1p+exp per *edge*).  -inf terms are exact additive
        // identities — skipped, never clamped — matching the masked
        // SIMD lanes of the blocked kernel term for term.
        const uint32_t lo = off[i];
        const uint32_t hi_e = off[i + 1];
        double hi = kLogZero;
        for (uint32_t e = lo; e < hi_e; ++e) {
            const double term = lw[e] + val[tgt[e]];
            terms[e - lo] = term;
            if (term > hi)
                hi = term;
        }
        if (hi == kLogZero) {
            val[i] = kLogZero;
            break;
        }
        double acc = 0.0;
        for (uint32_t e = lo; e < hi_e; ++e) {
            const double term = terms[e - lo];
            if (term != kLogZero)
                acc += fastExpNonPositive(term - hi);
        }
        val[i] = hi + simd::fastLogPositive(acc);
        break;
      }
    }
}

} // namespace

CircuitEvaluator::CircuitEvaluator(const FlatCircuit &flat,
                                   util::ThreadPool *pool)
    : flat_(flat), pool_(pool), logv_(flat.numNodes(), kLogZero),
      maxFanIn_(flat.maxFanIn)
{
    terms_.resize(std::max<size_t>(maxFanIn_, 1), 0.0);
}

util::ThreadPool &
CircuitEvaluator::activePool() const
{
    // Resolved per call, not cached: setGlobalThreads may legally
    // replace the global pool between evaluation phases, and a cached
    // pointer would dangle.
    return pool_ ? *pool_ : util::globalThreadPool();
}

void
CircuitEvaluator::evaluateLevelSlice(const Assignment &x, size_t b,
                                     size_t e, double *terms)
{
    double *val = logv_.data();
    const uint32_t *sched = flat_.levelNodes.data();
    for (size_t k = b; k < e; ++k)
        evalCircuitNode(flat_, x, val, terms, sched[k]);
}

std::span<const double>
CircuitEvaluator::evaluate(const Assignment &x)
{
    reasonAssert(x.size() >= flat_.numVars, "assignment too short");
    const size_t n = flat_.numNodes();
    util::ThreadPool &pool = activePool();
    if (pool.numThreads() == 1) {
        double *val = logv_.data();
        for (size_t i = 0; i < n; ++i)
            evalCircuitNode(flat_, x, val, terms_.data(), i);
        return {logv_.data(), logv_.size()};
    }

    // Wavefront execution over the level schedule: one writer per node
    // value, per-worker term scratch, unchanged per-node expressions —
    // bit-identical to the serial walk for any thread count.
    const size_t stripe = std::max<size_t>(maxFanIn_, 1);
    if (terms_.size() < stripe * pool.numThreads())
        terms_.resize(stripe * pool.numThreads(), 0.0);
    for (size_t l = 0; l < flat_.numLevels(); ++l) {
        pool.parallelFor(
            flat_.levelOffset[l], flat_.levelOffset[l + 1],
            kMinNodesPerChunk,
            [&](size_t b, size_t e, unsigned worker) {
                evaluateLevelSlice(x, b, e,
                                   terms_.data() + worker * stripe);
            });
    }
    return {logv_.data(), logv_.size()};
}

double
CircuitEvaluator::logLikelihood(const Assignment &x)
{
    return evaluate(x)[flat_.root];
}

void
CircuitEvaluator::logLikelihoodBatch(const std::vector<Assignment> &xs,
                                     std::span<double> out)
{
    reasonAssert(out.size() >= xs.size(), "batch output buffer too small");
    for (const Assignment &x : xs)
        reasonAssert(x.size() >= flat_.numVars, "assignment too short");
    if (xs.empty())
        return;
    util::ThreadPool &pool = activePool();
    const unsigned threads = pool.numThreads();
    // Every row — including a trailing partial block — goes through
    // the same SIMD block kernel: tail lanes replicate the last row
    // and are not stored, so each row's result is independent of the
    // batch shape (bit-identical to a single-row evaluate()).
    const size_t num_blocks = (xs.size() + kBlock - 1) / kBlock;
    const size_t val_size = flat_.numNodes() * kBlock;
    const size_t term_size = std::max<size_t>(maxFanIn_, 1) * kBlock;
    const unsigned buffers =
        threads > 1 && num_blocks > 1
            ? unsigned(std::min<size_t>(threads, num_blocks))
            : 1;
    if (blockVal_.size() < buffers) {
        blockVal_.resize(buffers);
        blockTerms_.resize(buffers);
    }
    for (unsigned w = 0; w < buffers; ++w) {
        if (blockVal_[w].empty()) {
            blockVal_[w].assign(val_size, 0.0);
            blockTerms_[w].assign(term_size, 0.0);
        }
    }
    // Block-parallel: each worker streams a contiguous run of
    // kBlock-row blocks through its own SoA buffers.  Blocks are
    // computed identically regardless of which worker runs them.
    pool.parallelFor(
        0, num_blocks, 1,
        [&](size_t b, size_t e, unsigned worker) {
            const Assignment *rows[kBlock];
            for (size_t blk = b; blk < e; ++blk) {
                const size_t base = blk * kBlock;
                const size_t n = std::min(kBlock, xs.size() - base);
                for (size_t i = 0; i < kBlock; ++i)
                    rows[i] = &xs[base + (i < n ? i : n - 1)];
                evaluateBlock(rows, n, &out[base],
                              blockVal_[worker].data(),
                              blockTerms_[worker].data());
            }
        });
}

void
CircuitEvaluator::evaluateBlock(const Assignment *const *rows, size_t n_out,
                                double *out, double *block_val,
                                double *block_terms)
{
    constexpr size_t B = kBlock;
    static_assert(B == simd::kLanes, "SoA block width is one SIMD pack");
    double *val = block_val;
    double *terms = block_terms;
    const uint8_t *types = flat_.types.data();
    const uint32_t *off = flat_.edgeOffset.data();
    const uint32_t *tgt = flat_.edgeTarget.data();
    const double *lw = flat_.edgeLogWeight.data();
    const uint32_t *slot = flat_.leafSlot.data();
    const uint32_t *var = flat_.leafVar.data();
    const double *dist = flat_.leafLogDist.data();
    const uint32_t arity = flat_.arity;
    const size_t n = flat_.numNodes();

    const simd::Pack zero = simd::splat(0.0);
    // Runtime-selected kernels: the widest table the host CPU can run
    // (util/simd_dispatch.h).  Bit-identical to the compile-time
    // backend by the simd.h contract; hoisted once per block so the
    // per-node cost is a single indirect call.
    const simd::KernelTable &kernels = simd::activeKernels();

    for (size_t i = 0; i < n; ++i) {
        double *vi = val + i * B;
        switch (types[i]) {
          case FlatCircuit::kLeaf: {
            // Leaf scoring gathers one table entry per row; the rows
            // are distinct assignments, so this stays a scalar gather.
            const uint32_t s = slot[i];
            const uint32_t v_idx = var[s];
            const double *row_dist = dist + size_t(s) * arity;
            for (size_t b = 0; b < B; ++b) {
                const uint32_t v = (*rows[b])[v_idx];
                if (v == kMissing) {
                    vi[b] = 0.0; // marginalized: sums to 1
                } else {
                    reasonAssert(v < arity,
                                 "assignment value out of range");
                    vi[b] = row_dist[v];
                }
            }
            break;
          }
          case FlatCircuit::kProduct: {
            simd::Pack acc = zero;
            for (uint32_t e = off[i]; e < off[i + 1]; ++e)
                acc = simd::add(
                    acc, simd::load(val + size_t(tgt[e]) * B));
            simd::store(vi, acc);
            break;
          }
          case FlatCircuit::kSum: {
            // The canonical two-pass logsumexp kernel across the 8
            // row lanes: terms (edge log-weight + child SoA row) are
            // staged into the scratch block, then reduced by the
            // runtime-dispatched sumLayerBlockStaged — the same
            // staged shape simd::sumLayerBlock lowers to.
            const uint32_t lo = off[i];
            const uint32_t hi_e = off[i + 1];
            const size_t fanin = hi_e - lo;
            for (size_t e = 0; e < fanin; ++e)
                simd::store(
                    terms + e * B,
                    simd::add(
                        simd::splat(lw[lo + e]),
                        simd::load(val + size_t(tgt[lo + e]) * B)));
            kernels.sumLayerBlockStaged(fanin, terms, vi);
            break;
          }
        }
    }
    const double *root_val = val + size_t(flat_.root) * B;
    for (size_t b = 0; b < n_out; ++b)
        out[b] = root_val[b];
}

namespace {

/**
 * Per-product-node derivative quantities: count of zero-valued
 * children, the (last) zero child, and the finite log-sum of the
 * rest.  finiteSum folds the child values in CSR edge order — one
 * fixed order on every path, which the bit-identity contract depends
 * on.
 */
struct ProdDerivInfo
{
    uint32_t zeros = 0;
    uint32_t zeroChild = kInvalidNode;
    double finiteSum = 0.0;
};

inline ProdDerivInfo
productDerivInfo(const FlatCircuit &flat, const double *logv, size_t i)
{
    const uint32_t *off = flat.edgeOffset.data();
    const uint32_t *tgt = flat.edgeTarget.data();
    ProdDerivInfo info;
    for (uint32_t e = off[i]; e < off[i + 1]; ++e) {
        const uint32_t c = tgt[e];
        if (logv[c] == kLogZero) {
            ++info.zeros;
            info.zeroChild = c;
        } else {
            info.finiteSum += logv[c];
        }
    }
    return info;
}

} // namespace

void
logDerivativesInto(const FlatCircuit &flat, std::span<const double> logv,
                   std::vector<double> &logd, util::ThreadPool *pool)
{
    const size_t n = flat.numNodes();
    reasonAssert(logv.size() == n, "log-value/graph size mismatch");
    reasonAssert(flat.parentOffset.size() == n + 1,
                 "derivative pass needs the parent transpose");
    logd.assign(n, kLogZero);

    const uint8_t *types = flat.types.data();

    util::ThreadPool &active =
        pool ? *pool : util::globalThreadPool();

    // Reverse wavefront gather — the canonical backward kernel for
    // every thread count (a 1-thread pool runs it inline, so results
    // are trivially bit-identical across thread counts).  Levels are
    // walked top-down; each node gathers its incoming derivative terms
    // from its finalized parents through the flattened transpose
    // streams into a contiguous stripe (stored descending-parent
    // order), then reduces them with the canonical two-pass SIMD
    // logsumexp (-inf terms are exact identities).  One writer per
    // logd entry, no atomics.  When a node turns out to be a product
    // with nonzero derivative, its (zero count, finite sum) pair is
    // tabulated immediately — its children sit in strictly lower
    // levels, so the per-level barrier publishes the entry before any
    // reader, and zero-derivative products are never tabulated at all.
    // The tables persist per calling thread: repeated marginal queries
    // reuse them allocation-free once grown.
    thread_local std::vector<double> prod_sum_tls;
    thread_local std::vector<uint8_t> prod_zeros_tls;
    thread_local std::vector<double> term_tls;
    // Terms per node: one per incoming parent edge plus the root seed.
    const size_t stripe = size_t(flat.maxParentFanIn) + 1;
    const size_t term_size = stripe * active.numThreads();
    if (prod_sum_tls.size() < n) {
        prod_sum_tls.resize(n);
        prod_zeros_tls.resize(n);
    }
    if (term_tls.size() < term_size)
        term_tls.resize(term_size);
    // Raw views: a thread_local named inside a lambda would resolve to
    // each *worker's* (empty) instance, not the caller's.
    double *prod_sum = prod_sum_tls.data();
    uint8_t *prod_zeros = prod_zeros_tls.data();
    double *term_base = term_tls.data();

    const uint32_t *poff = flat.parentOffset.data();
    const uint32_t *psrc = flat.parentNode.data();
    const double *plw = flat.parentLogWeight.data();
    double *d = logd.data();
    const simd::KernelTable &kernels = simd::activeKernels();
    // Per-node kernel, shared by both traversals below: the result
    // depends only on the (finalized) parents, not on traversal order.
    auto gatherNode = [&](uint32_t c, double *terms) {
        size_t cnt = 0;
        if (c == flat.root)
            terms[cnt++] = 0.0; // dRoot/dRoot == 1
        for (uint32_t pe = poff[c]; pe < poff[c + 1]; ++pe) {
            const uint32_t p = psrc[pe];
            const double dp = d[p];
            double t = kLogZero; // masked: exact identity
            if (dp != kLogZero) {
                if (types[p] == FlatCircuit::kSum) {
                    if (plw[pe] != kLogZero)
                        t = dp + plw[pe];
                } else if (prod_zeros[p] == 0) {
                    t = dp + prod_sum[p] - logv[c];
                } else if (prod_zeros[p] == 1 && logv[c] == kLogZero) {
                    t = dp + prod_sum[p];
                }
            }
            terms[cnt++] = t;
        }
        const double dc = kernels.logSumExpMasked(terms, cnt);
        d[c] = dc;
        if (types[c] == FlatCircuit::kProduct && dc != kLogZero) {
            const ProdDerivInfo info =
                productDerivInfo(flat, logv.data(), c);
            prod_sum[c] = info.finiteSum;
            prod_zeros[c] = uint8_t(std::min<uint32_t>(info.zeros, 2));
        }
    };
    if (active.numThreads() == 1) {
        // Parents always carry higher ids than their children, so a
        // reverse id scan finalizes every parent before its children —
        // same kernel, cache-friendly sequential streams.
        for (size_t i = n; i-- > 0;)
            gatherNode(uint32_t(i), term_base);
        return;
    }
    for (size_t l = flat.numLevels(); l-- > 0;)
        active.parallelFor(
            flat.levelOffset[l], flat.levelOffset[l + 1],
            kMinWavefrontNodesPerChunk,
            [&](size_t b, size_t e, unsigned worker) {
                double *terms = term_base + worker * stripe;
                for (size_t k = b; k < e; ++k)
                    gatherNode(flat.levelNodes[k], terms);
            });
}

FlowAccumulator::FlowAccumulator(const FlatCircuit &flat,
                                 util::ThreadPool *pool)
    : flat_(flat), pool_(pool), eval_(flat, pool),
      flow_(flat.numNodes(), 0.0),
      edgeTotal_(flat.numEdges(), 0.0), nodeTotal_(flat.numNodes(), 0.0),
      leafTotal_(flat.numLeaves() * flat.arity, 0.0)
{
    reasonAssert(flat.parentOffset.size() == flat.numNodes() + 1,
                 "flow pass needs the parent transpose");
}

void
FlowAccumulator::add(const Assignment &x)
{
    ++count_;
    std::span<const double> val = eval_.evaluate(x);
    if (val[flat_.root] == kLogZero)
        return; // zero-probability evidence carries no flow

    const uint8_t *types = flat_.types.data();
    const uint32_t *slot = flat_.leafSlot.data();
    const uint32_t *var = flat_.leafVar.data();

    util::ThreadPool &pool =
        pool_ ? *pool_ : util::globalThreadPool();

    // Downward pass: walk levels top-down and *gather* each node's
    // flow from its finalized parents through the transpose — the one
    // canonical kernel for every thread count (a 1-thread pool runs
    // the same code inline).  Parents of a level-L node all sit in
    // levels > L, so inside one level every node is independent;
    // flow_[c], edgeTotal_[e] (one child per edge), nodeTotal_[c], and
    // leafTotal_ rows each have a single writer.  Per node, the edge
    // arguments are staged into a contiguous stripe and the exp is
    // computed by the masked SIMD kernel (-inf encodes "no flow" and
    // contributes an exact zero); the fold over the resulting flows
    // keeps the stored descending-parent order, so totals are
    // bit-identical for any thread count and SIMD backend.
    const uint32_t *poff = flat_.parentOffset.data();
    const uint32_t *pedge = flat_.parentEdge.data();
    const uint32_t *psrc = flat_.parentNode.data();
    const double *plw = flat_.parentLogWeight.data();
    double *flow = flow_.data();
    const double *valp = val.data();
    const size_t stripe = std::max<uint32_t>(flat_.maxParentFanIn, 1);
    const unsigned workers = pool.numThreads();
    if (argScratch_.size() < stripe * workers) {
        argScratch_.resize(stripe * workers);
        scaleScratch_.resize(stripe * workers);
        flowScratch_.resize(stripe * workers);
    }
    const simd::KernelTable &kernels = simd::activeKernels();
    // Per-node kernel, shared by both traversals below: the result
    // depends only on the (finalized) parents, not on traversal order.
    auto gatherNode = [&](uint32_t c, double *args, double *scale,
                          double *f) {
        const uint32_t lo = poff[c];
        const uint32_t cnt = poff[c + 1] - lo;
        const double child_val = valp[c];
        for (uint32_t j = 0; j < cnt; ++j) {
            const uint32_t p = psrc[lo + j];
            const double fp = flow[p];
            if (types[p] == FlatCircuit::kProduct) {
                // exp(0) == 1 exactly, so the kernel passes fp
                // through unchanged — the product-edge flow.
                args[j] = fp == 0.0 ? kLogZero : 0.0;
            } else if (fp == 0.0 || plw[lo + j] == kLogZero ||
                       child_val == kLogZero) {
                args[j] = kLogZero; // masked: contributes exactly 0
            } else {
                args[j] = plw[lo + j] + child_val - valp[p];
            }
            scale[j] = fp;
        }
        kernels.expMulOrZero(args, scale, f, cnt);
        double fn = c == flat_.root ? 1.0 : 0.0;
        for (uint32_t j = 0; j < cnt; ++j) {
            edgeTotal_[pedge[lo + j]] += f[j];
            fn += f[j];
        }
        flow[c] = fn;
        if (fn == 0.0)
            return;
        nodeTotal_[c] += fn;
        if (types[c] == FlatCircuit::kLeaf) {
            const uint32_t s = slot[c];
            const uint32_t v = x[var[s]];
            if (v != kMissing)
                leafTotal_[size_t(s) * flat_.arity + v] += fn;
        }
    };
    if (pool.numThreads() == 1) {
        // Parents always carry higher ids than their children, so a
        // reverse id scan finalizes every parent before its children —
        // same kernel, cache-friendly sequential streams.
        for (size_t i = flat_.numNodes(); i-- > 0;)
            gatherNode(uint32_t(i), argScratch_.data(),
                       scaleScratch_.data(), flowScratch_.data());
        return;
    }
    for (size_t l = flat_.numLevels(); l-- > 0;)
        pool.parallelFor(
            flat_.levelOffset[l], flat_.levelOffset[l + 1],
            kMinNodesPerChunk,
            [&](size_t b, size_t e, unsigned worker) {
                double *args = argScratch_.data() + worker * stripe;
                double *scale = scaleScratch_.data() + worker * stripe;
                double *f = flowScratch_.data() + worker * stripe;
                for (size_t k = b; k < e; ++k)
                    gatherNode(flat_.levelNodes[k], args, scale, f);
            });
}

void
FlowAccumulator::mergeFrom(const FlowAccumulator &other)
{
    reasonAssert(&flat_ == &other.flat_,
                 "cannot merge flows of different lowerings");
    const simd::KernelTable &kernels = simd::activeKernels();
    kernels.addInto(edgeTotal_.data(), other.edgeTotal_.data(),
                    edgeTotal_.size());
    kernels.addInto(nodeTotal_.data(), other.nodeTotal_.data(),
                    nodeTotal_.size());
    kernels.addInto(leafTotal_.data(), other.leafTotal_.data(),
                    leafTotal_.size());
    count_ += other.count_;
}

DatasetFlows
accumulateDatasetFlows(const FlatCircuit &flat,
                       const std::vector<Assignment> &data,
                       const FlowShardOptions &opts,
                       util::ThreadPool *pool)
{
    util::ThreadPool &active =
        pool ? *pool : util::globalThreadPool();
    const unsigned shards = util::resolveShardCount(
        opts.shards, opts.deterministic, data.size(),
        active.numThreads());
    DatasetFlows out;
    out.shards = shards;
    if (shards <= 1) {
        // Legacy serial left fold over the dataset; per-sample
        // wavefront parallelism (the pool) still applies inside add().
        FlowAccumulator acc(flat, pool);
        for (const auto &x : data)
            acc.add(x);
        out.edgeFlow = std::move(acc.edgeTotal_);
        out.nodeFlow = std::move(acc.nodeTotal_);
        out.leafValueFlow = std::move(acc.leafTotal_);
        out.count = acc.count_;
        return out;
    }

    // One private accumulator per shard over a contiguous sample slice
    // whose boundaries depend only on (samples, shards).  Each shard's
    // per-sample passes run serially — shard parallelism replaces
    // wavefront parallelism here.  A 1-thread pool's parallelFor runs
    // inline without touching shared state, so one serial pool is
    // safely shared by every concurrent accumulator.
    util::ThreadPool serial_pool(1);
    std::vector<std::unique_ptr<FlowAccumulator>> accs(shards);
    for (unsigned s = 0; s < shards; ++s)
        accs[s] = std::make_unique<FlowAccumulator>(flat, &serial_pool);
    util::shardSlices(active, data.size(), shards,
                      [&](size_t s, size_t lo, size_t hi) {
                          for (size_t i = lo; i < hi; ++i)
                              accs[s]->add(data[i]);
                      });

    // Deterministic fixed-shape pairwise merge: shape depends only on
    // the shard count, and each element is accumulated left-to-right.
    util::treeReduce(shards, [&](size_t a, size_t b) {
        accs[a]->mergeFrom(*accs[b]);
    });
    out.edgeFlow = std::move(accs[0]->edgeTotal_);
    out.nodeFlow = std::move(accs[0]->nodeTotal_);
    out.leafValueFlow = std::move(accs[0]->leafTotal_);
    out.count = accs[0]->count_;
    return out;
}

} // namespace pc
} // namespace reason
