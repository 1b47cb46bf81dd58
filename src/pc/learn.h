/**
 * @file
 * Parameter learning for probabilistic circuits via flow-based EM.
 *
 * Each EM iteration accumulates expected edge/leaf usage (the circuit
 * flows) over the dataset and re-estimates sum weights and leaf
 * distributions from the normalized counts with Laplace smoothing.
 * Monotone non-decreasing training log-likelihood is an invariant the
 * tests rely on.
 */

#ifndef REASON_PC_LEARN_H
#define REASON_PC_LEARN_H

#include <cstdint>
#include <vector>

#include "pc/pc.h"
#include "util/parallel.h"

namespace reason {
namespace pc {

/** One EM run's trace. */
struct EmTrace
{
    /** Mean train log-likelihood after each iteration (incl. initial). */
    std::vector<double> logLikelihood;
    uint32_t iterations = 0;
};

/**
 * EM options.  The sharding fields default to the process-wide
 * util::ReductionPolicy (the --shards / --fast-reductions knob);
 * explicit assignment overrides it.
 */
struct EmOptions
{
    uint32_t maxIterations = 20;
    /** Stop when LL improves by less than this per example. */
    double tolerance = 1e-6;
    /** Laplace smoothing pseudo-count added to every expected count. */
    double smoothing = 0.1;
    /**
     * Sample shards of the E-step flow accumulation; 0 = auto (a fixed
     * count when deterministic, one per pool worker otherwise) and 1 =
     * the legacy serial left fold.  See util::ReductionPolicy.
     */
    unsigned shards = util::reductionPolicy().shards;
    /**
     * Deterministic (default): the shard count and fixed-shape tree
     * reduction never depend on the worker count, so trained parameters
     * and the trace are bit-identical for any thread count.  The fast
     * mode (false) shards per worker, relaxing only the reduction
     * shape.
     */
    bool deterministic = util::reductionPolicy().deterministic;
};

/** Historical name of EmOptions. */
using EmConfig = EmOptions;

/** Mean log-likelihood of a dataset under the circuit. */
double meanLogLikelihood(const Circuit &circuit,
                         const std::vector<Assignment> &data);

/**
 * Run flow-based EM in place.  The first E-step also yields the initial
 * mean log-likelihood (bit-identical to meanLogLikelihood), so a fit
 * runs one root pass per iteration, for its convergence check.
 * @return the per-iteration trace (first entry is the initial LL).
 */
EmTrace emTrain(Circuit &circuit, const std::vector<Assignment> &data,
                const EmConfig &config = {});

} // namespace pc
} // namespace reason

#endif // REASON_PC_LEARN_H
