#include "pc/flat_pc.h"

#include <algorithm>
#include <cmath>

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

namespace {

/** Program-derivation marks of a node: not read by any kept op, or an
 *  output (never freed).  Other values are the id of the last reader. */
constexpr uint32_t kUnread = ~0u;
constexpr uint32_t kOutput = ~0u - 1;

/** Per-node derivation state, side by side: a parent's operand visit
 *  reads both halves with one cache miss. */
struct NodeMark
{
    uint32_t lastReader = kUnread;
    uint32_t slot = 0;
};

/**
 * Split n log values into (mantissa, exponent) pairs, 8 lanes at a
 * time (simd::expSplit), handing each to sink(k, log value, mantissa,
 * exponent).  A sink may overwrite x[k]: each pack is loaded before
 * its pairs are handed out.
 */
template <typename Sink>
void
splitLogs(const double *x, size_t n, Sink &&sink)
{
    constexpr size_t B = simd::kLanes;
    double mb[B], eb[B];
    for (size_t i = 0; i < n; i += B) {
        const size_t k = std::min(B, n - i);
        const simd::Pack v =
            k == B ? simd::load(x + i) : simd::loadN(x + i, k, 0.0);
        simd::Pack m, e;
        simd::expSplit(v, m, e);
        simd::store(mb, m);
        simd::store(eb, e);
        for (size_t j = 0; j < k; ++j)
            sink(i + j, x[i + j], mb[j], eb[j]);
    }
}

/**
 * Derive the root-pass slot program for `outputs` (see
 * FlatCircuit::RootProgram).  Two linear passes over one O(nodes)
 * temporary: a reverse id walk marks what the outputs reach and,
 * since the first reader it meets is the highest id, each value's last
 * reader; a forward walk then emits the ops, takes each destination
 * from the free list, and returns an operand's slot once its last
 * reader has consumed it (before the reader's own slot is taken: the
 * kernel reads every operand before it writes).
 */
FlatCircuit::RootProgram
deriveProgram(const FlatCircuit &flat, std::vector<uint32_t> outputs)
{
    const size_t n = flat.numNodes();
    const uint8_t *types = flat.types.data();
    const uint32_t *off = flat.edgeOffset.data();
    const uint32_t *tgt = flat.edgeTarget.data();
    const double *lw = flat.edgeLogWeight.data();

    std::vector<NodeMark> mark(n);
    for (uint32_t o : outputs) {
        reasonAssert(o < n, "program output out of range");
        mark[o].lastReader = kOutput;
    }
    size_t num_ops = 0, num_operands = 0, num_weights = 0;
    for (size_t i = n; i-- > 0;) {
        if (mark[i].lastReader == kUnread)
            continue;
        ++num_ops;
        const bool sum = types[i] == FlatCircuit::kSum;
        for (uint32_t e = off[i]; e < off[i + 1]; ++e) {
            if (sum && lw[e] == kLogZero)
                continue; // massless: adds an exact 0
            ++num_operands;
            num_weights += sum;
            const uint32_t c = tgt[e];
            reasonAssert(c < i, "children must precede their parents");
            if (mark[c].lastReader == kUnread)
                mark[c].lastReader = uint32_t(i);
        }
    }

    FlatCircuit::RootProgram prog;
    prog.op.resize(num_ops);
    prog.arg.resize(num_ops);
    prog.node.resize(num_ops);
    prog.operand.resize(num_operands);
    prog.weightMant.resize(num_weights);
    std::vector<uint32_t> free_slots;
    size_t op = 0, k = 0, w = 0;
    for (size_t i = 0; i < n; ++i) {
        if (mark[i].lastReader == kUnread)
            continue;
        uint32_t arg = 0;
        uint32_t kind = simd::SlotProgram::kLeaf;
        if (types[i] == FlatCircuit::kLeaf) {
            arg = flat.leafSlot[i];
        } else {
            const bool sum = types[i] == FlatCircuit::kSum;
            kind = sum ? simd::SlotProgram::kSum
                       : simd::SlotProgram::kProduct;
            for (uint32_t e = off[i]; e < off[i + 1]; ++e) {
                if (sum && lw[e] == kLogZero)
                    continue;
                NodeMark &child = mark[tgt[e]];
                prog.operand[k++] = child.slot;
                ++arg;
                if (sum)
                    prog.weightMant[w++] = lw[e]; // split below
                if (child.lastReader == uint32_t(i)) {
                    free_slots.push_back(child.slot);
                    child.lastReader = kUnread; // freed once
                }
            }
        }
        uint32_t dst = prog.numSlots;
        if (free_slots.empty()) {
            reasonAssert(prog.numSlots < simd::SlotProgram::kSlotMask,
                         "slot program too wide");
            ++prog.numSlots;
        } else {
            dst = free_slots.back();
            free_slots.pop_back();
        }
        mark[i].slot = dst;
        prog.op[op] = kind << simd::SlotProgram::kKindShift | dst;
        prog.node[op] = uint32_t(i);
        prog.arg[op++] = arg;
    }
    prog.outputSlot.reserve(outputs.size());
    for (uint32_t o : outputs)
        prog.outputSlot.push_back(mark[o].slot);
    prog.outputs = std::move(outputs);

    prog.weightExp.resize(num_weights);
    splitLogs(prog.weightMant.data(), num_weights,
              [&](size_t j, double x, double m, double e) {
                  reasonAssert(std::fabs(x) < 1e9,
                               "edge log-weight out of range");
                  prog.weightMant[j] = m;
                  prog.weightExp[j] = int32_t(e);
              });
    const std::vector<double> &dist = flat.leafLogDist;
    prog.leafPair.resize(2 * dist.size());
    splitLogs(dist.data(), dist.size(),
              [&](size_t j, double x, double m, double e) {
                  const bool zero = x == kLogZero;
                  reasonAssert(zero || std::fabs(x) < 1e9,
                               "leaf log-probability out of range");
                  prog.leafPair[2 * j] = zero ? 0.0 : m;
                  prog.leafPair[2 * j + 1] = zero ? kLogZero : e;
              });
    return prog;
}

} // namespace

void
FlatCircuit::finalizeUpwardTopology(std::vector<uint32_t> outputs)
{
    reasonAssert(root != kInvalidNode, "circuit has no root");
    const size_t n = types.size();
    reasonAssert(edgeOffset.size() == n + 1, "CSR offsets incomplete");

    maxFanIn = 0;
    for (size_t i = 0; i < n; ++i)
        maxFanIn = std::max(maxFanIn, edgeOffset[i + 1] - edgeOffset[i]);

    if (outputs.empty())
        outputs.push_back(root);
    program = deriveProgram(*this, std::move(outputs));
}

simd::SlotProgram
FlatCircuit::programView() const
{
    simd::SlotProgram view;
    view.op = program.op.data();
    view.arg = program.arg.data();
    view.numOps = program.op.size();
    view.operand = program.operand.data();
    view.weightMant = program.weightMant.data();
    view.weightExp = program.weightExp.data();
    view.leafVar = leafVar.data();
    view.leafPair = program.leafPair.data();
    view.arity = arity;
    view.missing = kMissing;
    view.output = program.outputSlot.data();
    view.numOutputs = program.outputSlot.size();
    view.numSlots = program.numSlots;
    return view;
}

simd::FlowProgram
FlatCircuit::flowView() const
{
    static_assert(kLeaf == simd::SlotProgram::kLeaf &&
                      kSum == simd::SlotProgram::kSum &&
                      kProduct == simd::SlotProgram::kProduct,
                  "the flow kernel reads node types as op kinds");
    reasonAssert(parentOffset.size() == numNodes() + 1,
                 "flow pass needs the parent transpose");
    reasonAssert(program.outputs.size() == 1 && program.outputs[0] == root,
                 "flow pass needs a program whose output is the root");
    simd::FlowProgram view;
    view.up = programView();
    view.opNode = program.node.data();
    view.nodeType = types.data();
    view.parentOffset = parentOffset.data();
    view.parentNode = parentNode.data();
    view.parentEdge = parentEdge.data();
    view.edgeLogWeight = edgeLogWeight.data();
    view.numNodes = numNodes();
    return view;
}

void
FlatCircuit::finalizeTopology()
{
    finalizeUpwardTopology();
    const size_t n = types.size();

    // Parent transpose in descending parent order: the flow kernel's
    // downward gather folds each node's incoming contributions in this
    // fixed order, making flow sums deterministic by construction.
    const size_t m = edgeTarget.size();
    parentOffset.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i)
        for (uint32_t e = edgeOffset[i]; e < edgeOffset[i + 1]; ++e)
            ++parentOffset[edgeTarget[e] + 1];
    for (size_t i = 1; i <= n; ++i)
        parentOffset[i] += parentOffset[i - 1];
    parentEdge.resize(m);
    parentNode.resize(m);
    {
        std::vector<uint32_t> cursor(parentOffset.begin(),
                                     parentOffset.end() - 1);
        for (size_t i = n; i-- > 0;)
            for (uint32_t e = edgeOffset[i]; e < edgeOffset[i + 1]; ++e) {
                const uint32_t k = cursor[edgeTarget[e]]++;
                parentEdge[k] = e;
                parentNode[k] = uint32_t(i);
            }
    }
}

CircuitEvaluator::CircuitEvaluator(const FlatCircuit &flat,
                                   util::ThreadPool *pool)
    : flat_(flat), pool_(pool)
{
}

util::ThreadPool &
CircuitEvaluator::activePool() const
{
    // Resolved per call, not cached: setGlobalThreads may legally
    // replace the global pool between evaluation phases, and a cached
    // pointer would dangle.
    return pool_ ? *pool_ : util::globalThreadPool();
}

double
CircuitEvaluator::logLikelihood(const Assignment &x)
{
    reasonAssert(flat_.program.outputs.size() == 1 &&
                     flat_.program.outputs[0] == flat_.root,
                 "logLikelihood needs a program whose output is the root");
    double out = 0.0;
    runRootPass(&x, 1, &out);
    return out;
}

void
CircuitEvaluator::logLikelihoodBatch(const std::vector<Assignment> &xs,
                                     std::span<double> out)
{
    reasonAssert(flat_.program.outputs.size() == 1 &&
                     flat_.program.outputs[0] == flat_.root,
                 "logLikelihood needs a program whose output is the root");
    reasonAssert(out.size() >= xs.size(), "batch output buffer too small");
    if (!xs.empty())
        runRootPass(xs.data(), xs.size(), out.data());
}

void
CircuitEvaluator::evaluateOutputs(const Assignment &x, std::span<double> out)
{
    reasonAssert(out.size() >= flat_.program.outputs.size(),
                 "output buffer too small");
    runRootPass(&x, 1, out.data());
}

void
CircuitEvaluator::evaluateOutputsBatch(const std::vector<Assignment> &xs,
                                       std::span<double> out)
{
    reasonAssert(out.size() >= xs.size() * flat_.program.outputs.size(),
                 "batch output buffer too small");
    if (!xs.empty())
        runRootPass(xs.data(), xs.size(), out.data());
}

void
CircuitEvaluator::runRootPass(const Assignment *xs, size_t num_rows,
                              double *out)
{
    constexpr size_t B = kBlock;
    static_assert(B == simd::kLanes, "a block is one SIMD pack of rows");
    for (size_t r = 0; r < num_rows; ++r)
        reasonAssert(xs[r].size() >= flat_.numVars, "assignment too short");
    const simd::SlotProgram view = flat_.programView();
    // Runtime-selected kernels: the widest table the host CPU can run
    // (util/simd_dispatch.h); every table gives the same bits.
    const simd::KernelTable &kernels = simd::activeKernels();

    const size_t outs = view.numOutputs;
    const size_t slot_doubles = view.numSlots * simd::SlotProgram::kSlotDoubles;
    const size_t stride = slot_doubles + outs * B;
    const size_t num_blocks = (num_rows + B - 1) / B;
    util::ThreadPool &pool = activePool();
    const unsigned threads = pool.numThreads();
    const size_t buffers =
        threads > 1 && num_blocks > 1 ? std::min<size_t>(threads, num_blocks)
                                      : 1;
    if (slots_.size() < buffers * stride)
        slots_.resize(buffers * stride);
    // Block-parallel: each worker streams a contiguous run of blocks
    // through its own slots.  A tail block repeats its last row in the
    // spare lanes and stores only the live ones; lanes never interact,
    // so a block computes each row identically whoever runs it.
    pool.parallelFor(
        0, num_blocks, 1, [&](size_t b, size_t e, unsigned worker) {
            double *slots = slots_.data() + worker * stride;
            double *vals = slots + slot_doubles;
            const uint32_t *rows[B];
            for (size_t blk = b; blk < e; ++blk) {
                const size_t base = blk * B;
                const size_t n = std::min(B, num_rows - base);
                for (size_t i = 0; i < B; ++i)
                    rows[i] = xs[base + (i < n ? i : n - 1)].data();
                const bool in_range =
                    kernels.runSlotProgram(view, rows, slots, vals);
                reasonAssert(in_range, "assignment value out of range");
                for (size_t i = 0; i < n; ++i)
                    for (size_t o = 0; o < outs; ++o)
                        out[(base + i) * outs + o] = vals[o * B + i];
            }
        });
}

namespace {

/**
 * Size `scratch` as a block scratch of the flow kernel for `flat` (the
 * program's slots, then one 8-lane pack per node) and fill every
 * node's pack with what a node without flow shows its children: 0 for
 * a product, -inf for a sum.  The kernel overwrites the packs of
 * program nodes in every block and never touches the others.
 */
void
initFlowScratch(const FlatCircuit &flat, std::vector<double> &scratch)
{
    constexpr size_t B = simd::kLanes;
    const size_t slot_doubles =
        flat.program.numSlots * simd::SlotProgram::kSlotDoubles;
    scratch.resize(slot_doubles + flat.numNodes() * B);
    double *pack = scratch.data() + slot_doubles;
    for (size_t i = 0; i < flat.numNodes(); ++i, pack += B)
        std::fill_n(pack, B,
                    flat.types[i] == FlatCircuit::kSum ? kLogZero : 0.0);
}

} // namespace

FlowAccumulator::FlowAccumulator(const FlatCircuit &flat,
                                 util::ThreadPool *)
    : flat_(flat), edgeTotal_(flat.numEdges(), 0.0),
      nodeTotal_(flat.numNodes(), 0.0),
      leafTotal_(flat.numLeaves() * flat.arity, 0.0)
{
    flat.flowView(); // asserts the transpose and a root-only program
}

void
FlowAccumulator::add(const Assignment &x)
{
    if (scratch_.empty())
        initFlowScratch(flat_, scratch_);
    addRows(&x, 1, scratch_.data(), nullptr);
}

void
FlowAccumulator::addRows(const Assignment *xs, size_t num_rows,
                         double *scratch, double *rowLog)
{
    constexpr size_t B = CircuitEvaluator::kBlock;
    static_assert(B == simd::kLanes, "a block is one SIMD pack of rows");
    const simd::FlowProgram view = flat_.flowView();
    const simd::FlowTotals totals{edgeTotal_.data(), nodeTotal_.data(),
                                  leafTotal_.data()};
    // Runtime-selected kernels (util/simd_dispatch.h); every table
    // gives the same bits.
    const simd::KernelTable &kernels = simd::activeKernels();
    const uint32_t *rows[B];
    double root_log[B];
    for (size_t base = 0; base < num_rows; base += B) {
        // A tail block repeats its last row in the spare lanes, which
        // the kernel computes but does not add.
        const size_t n = std::min(B, num_rows - base);
        for (size_t i = 0; i < B; ++i) {
            const Assignment &x = xs[base + (i < n ? i : n - 1)];
            reasonAssert(x.size() >= flat_.numVars, "assignment too short");
            rows[i] = x.data();
        }
        const bool in_range =
            kernels.runFlowBlock(view, rows, n, scratch, root_log, totals);
        reasonAssert(in_range, "assignment value out of range");
        if (rowLog != nullptr)
            std::copy_n(root_log, n, rowLog + base);
    }
    count_ += num_rows;
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

    // Everything the workers write is allocated here, on the calling
    // thread: each shard's totals, one block scratch per participating
    // worker (a worker runs its shards one after another), and the row
    // log-likelihoods.  Slice boundaries depend only on (samples,
    // shards), and each row is written by the worker that owns it.
    std::vector<FlowAccumulator> accs;
    accs.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        accs.emplace_back(flat);
    // The block scratches persist per calling thread, so repeated
    // E-steps reuse them instead of faulting fresh pages in every call.
    // A thread_local named inside the lambda below would resolve to
    // each worker's own (empty) instance, hence the reference.
    thread_local std::vector<std::vector<double>> scratch_tls;
    std::vector<std::vector<double>> &scratch = scratch_tls;
    scratch.resize(std::min(active.numThreads(), shards));
    for (std::vector<double> &s : scratch)
        initFlowScratch(flat, s);
    DatasetFlows out;
    out.shards = shards;
    out.logLikelihood.resize(data.size());
    util::shardSlices(active, data.size(), shards,
                      [&](size_t s, size_t lo, size_t hi, unsigned worker) {
                          accs[s].addRows(data.data() + lo, hi - lo,
                                          scratch[worker].data(),
                                          out.logLikelihood.data() + lo);
                      });

    // Deterministic fixed-shape pairwise merge: shape depends only on
    // the shard count, and each element is accumulated left-to-right.
    util::treeReduce(shards, [&](size_t a, size_t b) {
        accs[a].mergeFrom(accs[b]);
    });
    out.edgeFlow = std::move(accs[0].edgeTotal_);
    out.nodeFlow = std::move(accs[0].nodeTotal_);
    out.leafValueFlow = std::move(accs[0].leafTotal_);
    out.count = accs[0].count_;
    return out;
}

} // namespace pc
} // namespace reason
