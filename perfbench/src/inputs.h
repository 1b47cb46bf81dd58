/**
 * @file
 * Seeded input generators of the benchmark that the library does not
 * offer publicly.  The program under test only ever receives what
 * these produce.
 */

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>

#include "pc/pc.h"
#include "util/rng.h"

namespace perfbench {

/**
 * The peaked mixture of bench_eval's approx_tier: C product components
 * over V shared binary variables, weights exp(-2.5 k), leaf
 * probabilities within +-0.002 of one shared base.  At num_vars = 1500
 * that is V = 150, C = 800: 800 x 151 + 1 = 120,801 nodes, of which a
 * 1e-3 budget keeps a handful of components.
 */
reason::pc::Circuit approxMixtureCircuit(reason::Rng &rng,
                                         uint32_t num_vars);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
