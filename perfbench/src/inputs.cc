#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

using namespace reason;

pc::Circuit
approxMixtureCircuit(Rng &rng, uint32_t num_vars)
{
    const uint32_t V = std::max(4u, num_vars / 10);
    const uint32_t C = std::max(8u, num_vars * 8 / 15);
    pc::Circuit mc(V, 2);
    std::vector<double> base(V);
    for (uint32_t v = 0; v < V; ++v)
        base[v] = rng.uniformReal(0.2, 0.8);
    std::vector<pc::NodeId> comps;
    std::vector<double> weights;
    for (uint32_t k = 0; k < C; ++k) {
        std::vector<pc::NodeId> leaves;
        for (uint32_t v = 0; v < V; ++v) {
            const double p = base[v] + rng.uniformReal(-0.002, 0.002);
            leaves.push_back(mc.addLeaf(v, {p, 1.0 - p}));
        }
        comps.push_back(mc.addProduct(std::move(leaves)));
        // Past k ~ 283 the weight underflows to exact 0: the exact
        // engine still pays for those components, the pruner drops
        // them.
        weights.push_back(std::exp(-2.5 * double(k)));
    }
    mc.markRoot(mc.addSum(std::move(comps), std::move(weights)));
    return mc;
}

} // namespace perfbench
