/**
 * @file
 * Property tests for the DPLL solver and both compilation routes.
 *
 * Over randomized corpora (mixed clause lengths, planted instances,
 * pigeonhole UNSAT cores) the tests assert the solver's contracts
 * directly: every returned model satisfies the formula, SAT/UNSAT
 * verdicts match brute-force enumeration, model counts through the
 * d-DNNF compiler match brute force, and unsatisfiable inputs compile
 * to a constant-false circuit on both the heap-Dag route and the
 * direct-flat route.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "logic/cnf.h"
#include "logic/dpll.h"
#include "logic/knowledge.h"
#include "pc/from_logic.h"
#include "util/rng.h"

namespace reason {
namespace logic {
namespace {

/** Random formula with clause lengths mixed in [1, 4]. */
CnfFormula
mixedRandomCnf(uint32_t num_vars, uint32_t num_clauses, Rng &rng)
{
    CnfFormula f;
    f.ensureVars(num_vars);
    for (uint32_t c = 0; c < num_clauses; ++c) {
        uint32_t len = uint32_t(rng.uniformInt(1, 4));
        Clause clause;
        for (uint32_t i = 0; i < len; ++i) {
            uint32_t var = uint32_t(rng.uniformInt(0, num_vars - 1));
            clause.push_back(Lit::make(var, rng.bernoulli(0.5)));
        }
        f.addClause(clause);
    }
    return f;
}

TEST(DpllProp, ModelsSatisfyFormula)
{
    Rng rng(20260807);
    int sat_seen = 0;
    for (int trial = 0; trial < 60; ++trial) {
        uint32_t vars = uint32_t(rng.uniformInt(3, 14));
        uint32_t clauses = uint32_t(rng.uniformInt(1, vars * 4));
        CnfFormula f = mixedRandomCnf(vars, clauses, rng);
        DpllSolver solver(f);
        if (solver.solve() != SolveResult::Sat)
            continue;
        ++sat_seen;
        const std::vector<bool> &model = solver.model();
        ASSERT_GE(model.size(), f.numVars());
        EXPECT_TRUE(f.evaluate(model))
            << "trial " << trial << ": DPLL model does not satisfy\n"
            << f.toDimacs();
    }
    EXPECT_GT(sat_seen, 10) << "corpus degenerated to all-UNSAT";
}

TEST(DpllProp, VerdictMatchesBruteForce)
{
    Rng rng(71);
    for (int trial = 0; trial < 60; ++trial) {
        uint32_t vars = uint32_t(rng.uniformInt(2, 12));
        uint32_t clauses = uint32_t(rng.uniformInt(1, vars * 5));
        CnfFormula f = mixedRandomCnf(vars, clauses, rng);
        DpllSolver solver(f);
        bool dpll_sat = solver.solve() == SolveResult::Sat;
        EXPECT_EQ(dpll_sat, f.bruteForceSat(nullptr))
            << "trial " << trial << "\n"
            << f.toDimacs();
    }
}

TEST(DpllProp, ModelCountsMatchBruteForce)
{
    Rng rng(929);
    for (int trial = 0; trial < 40; ++trial) {
        uint32_t vars = uint32_t(rng.uniformInt(2, 20));
        uint32_t clauses = uint32_t(rng.uniformInt(1, vars * 3));
        CnfFormula f = mixedRandomCnf(vars, clauses, rng);
        double expected = double(f.bruteForceCountModels());
        EXPECT_EQ(countModels(f), expected)
            << "trial " << trial << "\n"
            << f.toDimacs();
        EXPECT_EQ(compileToDnnf(f).modelCount(), expected)
            << "trial " << trial << "\n"
            << f.toDimacs();
    }
}

TEST(DpllProp, PlantedInstancesStaySat)
{
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        uint32_t vars = uint32_t(rng.uniformInt(5, 16));
        CnfFormula f = plantedKSat(rng, vars, vars * 4, 3);
        DpllSolver solver(f);
        ASSERT_EQ(solver.solve(), SolveResult::Sat);
        EXPECT_TRUE(f.evaluate(solver.model()));
        EXPECT_GE(f.bruteForceCountModels(), 1u);
    }
}

/** UNSAT inputs must become constant-false on BOTH compile routes. */
TEST(DpllProp, UnsatCompilesToConstantFalse)
{
    std::vector<CnfFormula> unsat;
    unsat.push_back(pigeonhole(3));
    {
        CnfFormula f; // x ∧ ¬x
        f.ensureVars(4);
        f.addClause({1});
        f.addClause({-1});
        unsat.push_back(f);
    }
    {
        CnfFormula f; // all four sign patterns over two vars
        f.addClause({1, 2});
        f.addClause({1, -2});
        f.addClause({-1, 2});
        f.addClause({-1, -2});
        unsat.push_back(f);
    }
    for (size_t i = 0; i < unsat.size(); ++i) {
        const CnfFormula &f = unsat[i];
        DpllSolver solver(f);
        ASSERT_EQ(solver.solve(), SolveResult::Unsat) << "case " << i;

        // Dag route: the compiled d-DNNF is the single False node.
        DnnfGraph g = compileToDnnf(f);
        EXPECT_EQ(g.modelCount(), 0.0) << "case " << i;
        EXPECT_EQ(g.node(g.root()).type, NnfType::False) << "case " << i;

        // Flat route: the root evaluates to log 0 under every query.
        pc::FlatCircuit flat = pc::compileCnfFlat(f);
        EXPECT_TRUE(std::isinf(pc::flatLogWmc(flat))) << "case " << i;
        EXPECT_LT(pc::flatLogWmc(flat), 0.0) << "case " << i;
    }
}

TEST(DpllProp, CubeAndConquerAgreesWithDpll)
{
    Rng rng(4242);
    for (int trial = 0; trial < 20; ++trial) {
        uint32_t vars = uint32_t(rng.uniformInt(4, 12));
        uint32_t clauses = uint32_t(rng.uniformInt(2, vars * 4));
        CnfFormula f = mixedRandomCnf(vars, clauses, rng);
        DpllSolver solver(f);
        SolveResult direct = solver.solve();
        CubeAndConquerResult cc = cubeAndConquer(f, 3);
        EXPECT_EQ(cc.result, direct) << "trial " << trial << "\n"
                                     << f.toDimacs();
        if (cc.result == SolveResult::Sat) {
            EXPECT_TRUE(f.evaluate(cc.model));
        }
    }
}

} // namespace
} // namespace logic
} // namespace reason
