#include "pc/learn.h"

#include <cmath>

#include "pc/flat_cache.h"
#include "pc/flat_pc.h"
#include "pc/flows.h"
#include "util/logging.h"

namespace reason {
namespace pc {

namespace {

/** Row-order mean of per-row log-likelihoods. */
double
meanOf(const std::vector<double> &ll)
{
    double acc = 0.0;
    for (double v : ll)
        acc += v;
    return acc / static_cast<double>(ll.size());
}

} // namespace

double
meanLogLikelihood(const Circuit &circuit,
                  const std::vector<Assignment> &data)
{
    reasonAssert(!data.empty(), "need data");
    std::shared_ptr<const FlatCircuit> flat = cachedLowering(circuit);
    CircuitEvaluator eval(*flat);
    std::vector<double> ll(data.size());
    eval.logLikelihoodBatch(data, ll);
    return meanOf(ll);
}

EmTrace
emTrain(Circuit &circuit, const std::vector<Assignment> &data,
        const EmConfig &config)
{
    reasonAssert(!data.empty(), "need data");
    EmTrace trace;
    if (config.maxIterations == 0)
        trace.logLikelihood.push_back(meanLogLikelihood(circuit, data));

    for (uint32_t it = 0; it < config.maxIterations; ++it) {
        // E-step: expected edge usage = accumulated flows; expected leaf
        // value usage = leaf flow attributed to the observed value,
        // accumulated shard-parallel across samples.  The parameters
        // change every iteration, so the fingerprint misses and the
        // circuit is re-lowered (O(edges), amortized over all
        // samples) — but the lowering is then *hit* by the
        // meanLogLikelihood call below, which sees unchanged parameters.
        std::shared_ptr<const FlatCircuit> flat = cachedLowering(circuit);
        DatasetFlows acc = accumulateDatasetFlows(
            *flat, data, {config.shards, config.deterministic});
        // The flow kernel's upward half is the root pass, so the first
        // E-step's row log-likelihoods are meanLogLikelihood's, bit for
        // bit: the initial trace entry costs no pass of its own.
        if (it == 0)
            trace.logLikelihood.push_back(meanOf(acc.logLikelihood));

        // M-step: re-normalize sum weights and leaf distributions.
        const std::vector<double> &edge_flow = acc.edgeFlow;
        const std::vector<double> &leaf_flow = acc.leafValueFlow;
        for (NodeId id = 0; id < circuit.numNodes(); ++id) {
            PcNode &n = circuit.mutableNode(id);
            if (n.type == PcNodeType::Sum) {
                const uint32_t lo = flat->edgeOffset[id];
                double denom = 0.0;
                for (size_t k = 0; k < n.children.size(); ++k)
                    denom += edge_flow[lo + k] + config.smoothing;
                for (size_t k = 0; k < n.children.size(); ++k)
                    n.weights[k] =
                        (edge_flow[lo + k] + config.smoothing) / denom;
            } else if (n.type == PcNodeType::Leaf) {
                const size_t row =
                    size_t(flat->leafSlot[id]) * circuit.arity();
                double denom = 0.0;
                for (uint32_t v = 0; v < circuit.arity(); ++v)
                    denom += leaf_flow[row + v] + config.smoothing;
                if (denom <= 0.0)
                    continue;
                for (uint32_t v = 0; v < circuit.arity(); ++v)
                    n.dist[v] =
                        (leaf_flow[row + v] + config.smoothing) / denom;
            }
        }

        double ll = meanLogLikelihood(circuit, data);
        trace.logLikelihood.push_back(ll);
        ++trace.iterations;
        double prev = trace.logLikelihood[trace.logLikelihood.size() - 2];
        if (ll - prev < config.tolerance)
            break;
    }
    return trace;
}

} // namespace pc
} // namespace reason
