/**
 * @file
 * End-to-end integration of the new reasoning paths:
 *
 *  - the full R2-Guard pipeline — rules CNF -> d-DNNF -> probabilistic
 *    circuit -> unified DAG -> compiled VLIW -> cycle-accurate fabric —
 *    asserting the fabric's likelihoods equal WMC ratios exactly;
 *  - preprocessing feeding the CDCL solver on instances beyond
 *    brute-force reach, with model reconstruction against the original
 *    formula;
 *  - knowledge-compilation marginals cross-checked against the
 *    circuit-query machinery.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "arch/accelerator.h"
#include "compiler/compile.h"
#include "core/builders.h"
#include "logic/cnf.h"
#include "logic/knowledge.h"
#include "logic/preprocess.h"
#include "logic/solver.h"
#include "pc/from_logic.h"
#include "pc/queries.h"
#include "util/rng.h"

using namespace reason;

class GuardPathSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(GuardPathSweep, RulesToFabricLikelihoodsMatchWmc)
{
    Rng rng(GetParam());
    logic::CnfFormula rules = logic::plantedKSat(rng, 8, 16, 3);
    logic::LitWeights prior = logic::LitWeights::random(rng, 8);

    logic::DnnfGraph dnnf = logic::compileToDnnf(rules);
    double z = dnnf.wmc(prior);
    ASSERT_GT(z, 0.0);
    pc::Circuit guard = pc::fromDnnf(dnnf, prior);

    std::vector<pc::NodeId> leaf_order;
    core::Dag dag = core::buildFromCircuit(guard, &leaf_order);
    arch::ArchConfig cfg;
    compiler::Program program =
        compiler::compile(dag, cfg.compilerTarget());
    arch::Accelerator accel(cfg);

    // Every complete world: fabric == circuit == WMC ratio.
    for (uint64_t bits = 0; bits < (1u << 8); bits += 17) {
        pc::Assignment x(8);
        std::vector<bool> xb(8);
        logic::LitWeights ind;
        double weight = 1.0;
        for (uint32_t v = 0; v < 8; ++v) {
            xb[v] = (bits >> v) & 1;
            x[v] = xb[v] ? 1 : 0;
            weight *= xb[v] ? prior.pos[v] : prior.neg[v];
        }
        double expected = rules.evaluate(xb) ? weight / z : 0.0;

        auto inputs = core::circuitLeafInputs(guard, leaf_order, x);
        double fabric = accel.run(program, inputs).rootValue;
        EXPECT_NEAR(fabric, expected, 1e-9 * std::max(1.0, expected))
            << "world " << bits;
    }

    // Marginal queries: fabric with marginalized leaves == WMC ratio.
    for (uint32_t v = 0; v < 8; v += 3) {
        pc::Assignment q(8, pc::kMissing);
        q[v] = 1;
        auto inputs = core::circuitLeafInputs(guard, leaf_order, q);
        double fabric = accel.run(program, inputs).rootValue;
        logic::LitWeights cond = prior;
        cond.neg[v] = 0.0;
        EXPECT_NEAR(fabric, dnnf.wmc(cond) / z, 1e-9) << "var " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GuardPathSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(GuardPath, PosteriorMarginalsAgreeWithConditionalMarginal)
{
    Rng rng(7);
    logic::CnfFormula rules = logic::plantedKSat(rng, 10, 22, 3);
    logic::LitWeights prior = logic::LitWeights::random(rng, 10);
    pc::Circuit guard = pc::compileCnf(rules, prior);

    pc::Assignment none(10, pc::kMissing);
    pc::MarginalTable table = pc::posteriorMarginals(guard, none);
    for (uint32_t v = 0; v < 10; ++v) {
        double expected = logic::conditionalMarginal(rules, prior, v);
        EXPECT_NEAR(table.prob[v][1], expected, 1e-9) << "var " << v;
    }
}

class PreSolveSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PreSolveSweep, PreprocessedCdclAgreesAndReconstructs)
{
    // Instances large enough that brute force is out of reach; the
    // reference is CDCL on the unpreprocessed formula.
    Rng rng(GetParam());
    bool planted = GetParam() % 2 == 0;
    logic::CnfFormula f =
        planted ? logic::plantedKSat(rng, 60, 250, 3)
                : logic::randomKSat(rng, 50, 210, 3);

    logic::SolveResult reference = logic::solveCnf(f);

    logic::Preprocessor pre(f);
    pre.run();
    if (pre.knownUnsat()) {
        EXPECT_EQ(reference, logic::SolveResult::Unsat);
        return;
    }
    std::vector<bool> model;
    logic::SolveResult simplified_res =
        logic::solveCnf(pre.simplified(), &model);
    EXPECT_EQ(simplified_res, reference);
    if (simplified_res == logic::SolveResult::Sat) {
        auto full = pre.reconstructModel(model);
        EXPECT_TRUE(f.evaluate(full));
    }
}

TEST_P(PreSolveSweep, PreprocessingReducesSolverEffort)
{
    // Not universally guaranteed, but on planted instances with
    // redundancy the clause database shrinks; assert the preprocessed
    // solve never explores a larger clause database.
    Rng rng(GetParam() + 40);
    logic::CnfFormula f = logic::plantedKSat(rng, 60, 260, 3);
    logic::PreprocessStats stats;
    logic::CnfFormula g = logic::preprocessCnf(f, &stats);
    EXPECT_LE(g.numClauses(), f.numClauses());
    EXPECT_LE(stats.clausesAfter, stats.clausesBefore);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PreSolveSweep,
                         ::testing::Values(101, 102, 103, 104, 105, 106,
                                           107, 108));

TEST(PreSolve, PigeonholeViaPreprocessAndCdcl)
{
    logic::CnfFormula f = logic::pigeonhole(5);
    logic::Preprocessor pre(f);
    pre.run();
    if (!pre.knownUnsat()) {
        EXPECT_EQ(logic::solveCnf(pre.simplified()),
                  logic::SolveResult::Unsat);
    }
}
