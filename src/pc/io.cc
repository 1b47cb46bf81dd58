#include "pc/io.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace reason {
namespace pc {

namespace {

/** Shortest round-trippable decimal form of a double. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
toText(const Circuit &circuit)
{
    std::ostringstream os;
    os << "rpc 1\n";
    os << "vars " << circuit.numVars() << " arity " << circuit.arity()
       << "\n";
    for (size_t i = 0; i < circuit.numNodes(); ++i) {
        const PcNode &node = circuit.node(NodeId(i));
        switch (node.type) {
          case PcNodeType::Leaf:
            os << "l " << node.var;
            for (double p : node.dist)
                os << " " << fmtDouble(p);
            os << "\n";
            break;
          case PcNodeType::Product:
            os << "p " << node.children.size();
            for (NodeId c : node.children)
                os << " " << c;
            os << "\n";
            break;
          case PcNodeType::Sum:
            os << "s " << node.children.size();
            for (size_t k = 0; k < node.children.size(); ++k)
                os << " " << node.children[k] << " "
                   << fmtDouble(node.weights[k]);
            os << "\n";
            break;
        }
    }
    os << "root " << circuit.root() << "\n";
    return os.str();
}

Circuit
parseText(const std::string &text)
{
    std::istringstream is(text);
    std::string tag;
    int version = 0;
    if (!(is >> tag >> version) || tag != "rpc" || version != 1)
        fatal("parseText: missing 'rpc 1' header");
    uint32_t num_vars = 0, arity = 0;
    std::string vars_tag, arity_tag;
    if (!(is >> vars_tag >> num_vars >> arity_tag >> arity) ||
        vars_tag != "vars" || arity_tag != "arity" || num_vars == 0 ||
        arity < 2)
        fatal("parseText: malformed dimension line");

    Circuit circuit(num_vars, arity);
    // Scratch grown one token at a time: a count in the file (arity,
    // fan-in) never sizes an allocation before its tokens were read.
    std::vector<double> values;
    std::vector<NodeId> children;
    // Circuit::addLeaf/addSum normalize by this left-to-right total;
    // it must be finite and positive.
    auto positiveFiniteTotal = [&values] {
        double total = 0.0;
        for (double v : values)
            total += v;
        return std::isfinite(total) && total > 0.0;
    };
    size_t count = 0;
    bool have_root = false;
    while (is >> tag) {
        if (tag == "root") {
            unsigned long long root;
            if (!(is >> root) || root >= count)
                fatal("parseText: bad root reference");
            circuit.markRoot(NodeId(root));
            have_root = true;
            break;
        }
        values.clear();
        children.clear();
        if (tag == "l") {
            uint32_t var;
            if (!(is >> var) || var >= num_vars)
                fatal("parseText: bad leaf variable at node %zu", count);
            for (uint32_t a = 0; a < arity; ++a) {
                double p;
                if (!(is >> p) || p < 0.0)
                    fatal("parseText: bad leaf distribution at node %zu",
                          count);
                values.push_back(p);
            }
            if (!positiveFiniteTotal())
                fatal("parseText: leaf mass not finite and positive at "
                      "node %zu",
                      count);
            circuit.addLeaf(var, values);
        } else if (tag == "p" || tag == "s") {
            bool sum = tag == "s";
            size_t k;
            if (!(is >> k) || k == 0)
                fatal("parseText: bad arity at node %zu", count);
            for (size_t i = 0; i < k; ++i) {
                unsigned long long c;
                if (!(is >> c) || c >= count)
                    fatal("parseText: bad child reference at node %zu",
                          count);
                children.push_back(NodeId(c));
                if (!sum)
                    continue;
                double w;
                if (!(is >> w) || w < 0.0)
                    fatal("parseText: bad sum weight at node %zu", count);
                values.push_back(w);
            }
            if (!sum) {
                circuit.addProduct(children);
            } else {
                if (!positiveFiniteTotal())
                    fatal("parseText: sum weights not finite and positive "
                          "at node %zu",
                          count);
                circuit.addSum(children, values);
            }
        } else {
            fatal("parseText: unknown node tag '%s'", tag.c_str());
        }
        ++count;
    }
    if (!have_root)
        fatal("parseText: missing root line");
    circuit.validate();
    return circuit;
}

} // namespace pc
} // namespace reason
