#include "pc/queries.h"

#include <cmath>
#include <vector>

#include "pc/flat_cache.h"
#include "pc/flat_pc.h"
#include "util/logging.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace reason {
namespace pc {

double
conditionalLogProbability(const Circuit &circuit, const Assignment &query,
                          const Assignment &evidence)
{
    reasonAssert(query.size() == circuit.numVars() &&
                 evidence.size() == circuit.numVars(),
                 "assignments must cover all circuit variables");
    Assignment merged = evidence;
    for (uint32_t v = 0; v < circuit.numVars(); ++v) {
        if (query[v] == kMissing)
            continue;
        if (evidence[v] != kMissing && evidence[v] != query[v])
            fatal("conditionalLogProbability: query and evidence disagree "
                  "on variable %u", v);
        merged[v] = query[v];
    }
    double log_e = circuit.logLikelihood(evidence);
    if (log_e == kLogZero)
        return kLogZero;
    return circuit.logLikelihood(merged) - log_e;
}

std::vector<double>
logDerivatives(const Circuit &circuit, const Assignment &x)
{
    std::vector<double> logv = circuit.evaluate(x);
    std::vector<double> logd(circuit.numNodes(), kLogZero);
    logd[circuit.root()] = 0.0;

    for (size_t i = circuit.numNodes(); i-- > 0;) {
        const PcNode &node = circuit.node(NodeId(i));
        if (logd[i] == kLogZero)
            continue;
        switch (node.type) {
          case PcNodeType::Leaf:
            break;
          case PcNodeType::Sum:
            for (size_t k = 0; k < node.children.size(); ++k) {
                double w = node.weights[k];
                if (w <= 0.0)
                    continue;
                NodeId c = node.children[k];
                logd[c] = logAdd(logd[c], logd[i] + std::log(w));
            }
            break;
          case PcNodeType::Product: {
            // ∂v_n/∂v_c = prod of sibling values; handle zeros exactly.
            size_t zeros = 0;
            NodeId zero_child = kInvalidNode;
            double finite_sum = 0.0;
            for (NodeId c : node.children) {
                if (logv[c] == kLogZero) {
                    ++zeros;
                    zero_child = c;
                } else {
                    finite_sum += logv[c];
                }
            }
            if (zeros >= 2)
                break;
            if (zeros == 1) {
                logd[zero_child] =
                    logAdd(logd[zero_child], logd[i] + finite_sum);
                break;
            }
            for (NodeId c : node.children) {
                logd[c] = logAdd(logd[c],
                                 logd[i] + finite_sum - logv[c]);
            }
            break;
          }
        }
    }
    return logd;
}

MarginalTable
posteriorMarginals(const Circuit &circuit, const Assignment &evidence)
{
    reasonAssert(evidence.size() == circuit.numVars(),
                 "evidence must cover all circuit variables");
    const uint32_t arity = circuit.arity();
    // Checked here: the flow kernel range-checks only the leaves its
    // program holds, which skips a variable without leaves and one
    // whose leaves sit only under zero-weight edges.
    for (uint32_t val : evidence)
        reasonAssert(val == kMissing || val < arity,
                     "evidence value out of range");

    // One flow pass over the cached lowering.  A leaf of an unobserved
    // variable has value 1, so its flow is dRoot/dLeaf / P(e), and
    // P(v = val | e) = sum over v's leaves L of flow(L) * dist_L[val].
    std::shared_ptr<const FlatCircuit> flat = cachedLowering(circuit);
    const DatasetFlows flows =
        accumulateDatasetFlows(*flat, {evidence}, {1, true});
    if (flows.logLikelihood[0] == kLogZero)
        fatal("posteriorMarginals: evidence has zero probability");

    MarginalTable table;
    table.prob.assign(circuit.numVars(), std::vector<double>(arity, 0.0));
    for (size_t i = 0; i < flat->numNodes(); ++i) {
        const uint32_t slot = flat->leafSlot[i];
        if (slot == kInvalidNode)
            continue;
        const uint32_t var = flat->leafVar[slot];
        const double flow = flows.nodeFlow[i];
        if (evidence[var] != kMissing || flow == 0.0)
            continue;
        const double *log_dist = &flat->leafLogDist[size_t(slot) * arity];
        for (uint32_t val = 0; val < arity; ++val)
            table.prob[var][val] += flow * std::exp(log_dist[val]);
    }
    for (uint32_t v = 0; v < circuit.numVars(); ++v)
        if (evidence[v] != kMissing)
            table.prob[v][evidence[v]] = 1.0;
    return table;
}

Assignment
sampleConditional(Rng &rng, const Circuit &circuit,
                  const Assignment &evidence)
{
    reasonAssert(evidence.size() == circuit.numVars(),
                 "evidence must cover all circuit variables");
    std::vector<double> logv = circuit.evaluate(evidence);
    if (logv[circuit.root()] == kLogZero)
        fatal("sampleConditional: evidence has zero probability");

    Assignment out(circuit.numVars(), kMissing);
    std::vector<NodeId> stack{circuit.root()};
    while (!stack.empty()) {
        NodeId id = stack.back();
        stack.pop_back();
        const PcNode &node = circuit.node(id);
        switch (node.type) {
          case PcNodeType::Leaf: {
            if (evidence[node.var] != kMissing) {
                out[node.var] = evidence[node.var];
            } else {
                out[node.var] = uint32_t(rng.categorical(node.dist));
            }
            break;
          }
          case PcNodeType::Product:
            for (NodeId c : node.children)
                stack.push_back(c);
            break;
          case PcNodeType::Sum: {
            // Choose a branch proportionally to theta * child value.
            double hi = kLogZero;
            for (size_t k = 0; k < node.children.size(); ++k)
                if (node.weights[k] > 0.0)
                    hi = std::max(hi, logv[node.children[k]]);
            std::vector<double> w(node.children.size(), 0.0);
            double total = 0.0;
            for (size_t k = 0; k < node.children.size(); ++k) {
                double lv = logv[node.children[k]];
                if (node.weights[k] > 0.0 && lv != kLogZero) {
                    w[k] = node.weights[k] * std::exp(lv - hi);
                    total += w[k];
                }
            }
            if (total <= 0.0) {
                // Evidence zeroed out every child (possible in
                // non-smooth circuits, or by underflow): fall back to
                // the prior mixture weights rather than handing
                // rng.categorical an all-zero vector.
                w = node.weights;
            }
            stack.push_back(node.children[rng.categorical(w)]);
            break;
          }
        }
    }
    return out;
}

double
exactEntropy(const Circuit &circuit)
{
    uint64_t combos = 0;
    reasonAssert(checkedIntPow(circuit.arity(), circuit.numVars(),
                               uint64_t(1) << 22, &combos),
                 "exactEntropy: state space too large to enumerate");
    std::shared_ptr<const FlatCircuit> flat = cachedLowering(circuit);
    CircuitEvaluator eval(*flat);
    Assignment x(circuit.numVars(), 0);
    double entropy = 0.0;
    for (uint64_t n = 0; n < combos; ++n) {
        uint64_t rem = n;
        for (uint32_t v = 0; v < circuit.numVars(); ++v) {
            x[v] = uint32_t(rem % circuit.arity());
            rem /= circuit.arity();
        }
        double ll = eval.logLikelihood(x);
        if (ll == kLogZero)
            continue;
        entropy -= std::exp(ll) * ll;
    }
    return entropy;
}

double
sampledEntropy(Rng &rng, const Circuit &circuit, size_t samples)
{
    reasonAssert(samples > 0, "need at least one sample");
    auto data = sampleDataset(rng, circuit, samples);
    std::shared_ptr<const FlatCircuit> flat = cachedLowering(circuit);
    CircuitEvaluator eval(*flat);
    std::vector<double> ll(data.size());
    eval.logLikelihoodBatch(data, ll);
    double acc = 0.0;
    for (double v : ll)
        acc += v;
    return -acc / double(samples);
}

double
expectedValue(const Circuit &circuit,
              const std::vector<std::vector<double>> &f,
              const Assignment &evidence)
{
    reasonAssert(f.size() == circuit.numVars(),
                 "statistic must cover all circuit variables");
    MarginalTable table = posteriorMarginals(circuit, evidence);
    double acc = 0.0;
    for (uint32_t v = 0; v < circuit.numVars(); ++v) {
        reasonAssert(f[v].size() == circuit.arity(),
                     "statistic row must cover the variable arity");
        for (uint32_t val = 0; val < circuit.arity(); ++val)
            acc += table.prob[v][val] * f[v][val];
    }
    return acc;
}

std::vector<std::vector<double>>
pairwiseMarginal(const Circuit &circuit, uint32_t a, uint32_t b)
{
    reasonAssert(a < circuit.numVars() && b < circuit.numVars() && a != b,
                 "pairwiseMarginal needs two distinct variables");
    std::vector<std::vector<double>> joint(
        circuit.arity(), std::vector<double>(circuit.arity(), 0.0));
    std::shared_ptr<const FlatCircuit> flat = cachedLowering(circuit);
    CircuitEvaluator eval(*flat);
    Assignment x(circuit.numVars(), kMissing);
    for (uint32_t i = 0; i < circuit.arity(); ++i) {
        for (uint32_t j = 0; j < circuit.arity(); ++j) {
            x[a] = i;
            x[b] = j;
            joint[i][j] = std::exp(eval.logLikelihood(x));
        }
    }
    return joint;
}

double
mutualInformation(const Circuit &circuit, uint32_t a, uint32_t b)
{
    auto joint = pairwiseMarginal(circuit, a, b);
    uint32_t arity = circuit.arity();
    std::vector<double> pa(arity, 0.0), pb(arity, 0.0);
    for (uint32_t i = 0; i < arity; ++i)
        for (uint32_t j = 0; j < arity; ++j) {
            pa[i] += joint[i][j];
            pb[j] += joint[i][j];
        }
    double mi = 0.0;
    for (uint32_t i = 0; i < arity; ++i) {
        for (uint32_t j = 0; j < arity; ++j) {
            double p = joint[i][j];
            if (p <= 0.0 || pa[i] <= 0.0 || pb[j] <= 0.0)
                continue;
            mi += p * std::log(p / (pa[i] * pb[j]));
        }
    }
    return std::max(0.0, mi);
}

} // namespace pc
} // namespace reason
