/**
 * @file
 * Advanced probabilistic-circuit queries: conditionals, posterior
 * marginals from one circuit-flow pass, conditional sampling, entropy,
 * expectations, and pairwise mutual information.
 *
 * These are the query types the paper's probabilistic workloads issue
 * against their circuits (R2-Guard risk posteriors, NeuroPC
 * class-conditional marginals); all are exact for smooth and
 * decomposable circuits and are validated against brute-force
 * enumeration in the tests.
 */

#ifndef REASON_PC_QUERIES_H
#define REASON_PC_QUERIES_H

#include <cstdint>
#include <vector>

#include "pc/pc.h"

namespace reason {

class Rng;

namespace pc {

/**
 * log P(query, evidence) - log P(evidence).
 *
 * `query` and `evidence` are partial assignments (kMissing = unset) over
 * disjoint variable sets; fatal()s when they conflict on a variable.
 * Returns -inf when the evidence itself has zero probability.
 */
double conditionalLogProbability(const Circuit &circuit,
                                 const Assignment &query,
                                 const Assignment &evidence);

/** Posterior marginals for every variable given (partial) evidence. */
struct MarginalTable
{
    /** prob[var][val] = P(var = val | evidence). */
    std::vector<std::vector<double>> prob;
};

/**
 * All-variable posterior marginals from one flow pass of the flow
 * kernel (accumulateDatasetFlows over the single evidence row) —
 * O(edges) regardless of how many marginals are read.  A leaf of an
 * unobserved variable has value 1, so its flow is dRoot/dLeaf / P(e),
 * and P(v = val | e) is the sum over v's leaves of flow x dist[val].
 * Observed variables get an indicator row.  Panics on an evidence value
 * outside [0, arity) that is not kMissing; fatal()s when the evidence
 * has zero probability.
 */
MarginalTable posteriorMarginals(const Circuit &circuit,
                                 const Assignment &evidence);

/**
 * Per-node log-derivatives d log root / d log value(n) companion:
 * log ∂root/∂v_n in linear terms, computed against the upward log-value
 * pass for `x`.  The seed reference walker that posteriorMarginals is
 * checked against; exposed for tests and diagnostics.
 */
std::vector<double> logDerivatives(const Circuit &circuit,
                                   const Assignment &x);

/**
 * Draw one sample from P(X | evidence) by top-down descent: sum nodes
 * choose a child proportionally to weight x child-value-under-evidence,
 * products descend into all children, leaves sample their (restricted)
 * distribution.  Exact for smooth, decomposable circuits.
 */
Assignment sampleConditional(Rng &rng, const Circuit &circuit,
                             const Assignment &evidence);

/**
 * Exact Shannon entropy (nats) of the circuit distribution by full
 * enumeration.  Testing/small models only: requires arity^numVars to be
 * enumerable.
 */
double exactEntropy(const Circuit &circuit);

/** Monte-Carlo entropy estimate: -mean log p over `samples` draws. */
double sampledEntropy(Rng &rng, const Circuit &circuit, size_t samples);

/**
 * Expectation of an additive statistic given evidence:
 * E[ sum_v f[v][X_v] | evidence ].  `f` is indexed [var][value].
 */
double expectedValue(const Circuit &circuit,
                     const std::vector<std::vector<double>> &f,
                     const Assignment &evidence);

/** Joint marginal table P(a = i, b = j) for a pair of variables. */
std::vector<std::vector<double>> pairwiseMarginal(const Circuit &circuit,
                                                  uint32_t a, uint32_t b);

/** Mutual information I(X_a; X_b) in nats under the circuit. */
double mutualInformation(const Circuit &circuit, uint32_t a, uint32_t b);

} // namespace pc
} // namespace reason

#endif // REASON_PC_QUERIES_H
