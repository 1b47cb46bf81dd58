/**
 * @file
 * Tests for the propositional logic substrate: literals, CNF, DIMACS,
 * the CDCL solver (validated against brute force on random instance
 * sweeps), DPLL with lookahead, cube-and-conquer, and implication-graph
 * pruning (validated by model-count preservation).
 */

#include <gtest/gtest.h>

#include "logic/cnf.h"
#include "logic/dpll.h"
#include "logic/implication_graph.h"
#include "logic/solver.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::logic;

TEST(Lit, EncodingRoundTrip)
{
    Lit a = Lit::make(3, false);
    EXPECT_EQ(a.var(), 3u);
    EXPECT_FALSE(a.negated());
    EXPECT_TRUE((~a).negated());
    EXPECT_EQ((~a).var(), 3u);
    EXPECT_EQ(~~a, a);
    EXPECT_EQ(a.toDimacs(), 4);
    EXPECT_EQ((~a).toDimacs(), -4);
    EXPECT_EQ(Lit::fromDimacs(4), a);
    EXPECT_EQ(Lit::fromDimacs(-4), ~a);
}

TEST(Cnf, EvaluateBasic)
{
    CnfFormula f(2);
    f.addClause({1, 2});   // x0 | x1
    f.addClause({-1, 2});  // ~x0 | x1
    EXPECT_TRUE(f.evaluate({true, true}));
    EXPECT_TRUE(f.evaluate({false, true}));
    EXPECT_FALSE(f.evaluate({true, false}));
}

TEST(Cnf, DimacsRoundTrip)
{
    Rng rng(5);
    CnfFormula f = randomKSat(rng, 12, 40, 3);
    CnfFormula g = CnfFormula::parseDimacs(f.toDimacs());
    EXPECT_EQ(g.numVars(), f.numVars());
    ASSERT_EQ(g.numClauses(), f.numClauses());
    for (size_t i = 0; i < f.numClauses(); ++i)
        EXPECT_EQ(g.clause(i), f.clause(i));
}

TEST(Cnf, BruteForceCountsModels)
{
    CnfFormula f(2);
    f.addClause({1, 2});
    // Models: 01, 10, 11 -> 3 of 4.
    EXPECT_EQ(f.bruteForceCountModels(), 3u);
}

TEST(Cnf, PlantedInstancesAreSatisfiable)
{
    Rng rng(77);
    for (int i = 0; i < 10; ++i) {
        std::vector<bool> hidden;
        CnfFormula f = plantedKSat(rng, 30, 120, 3, &hidden);
        EXPECT_TRUE(f.evaluate(hidden));
    }
}

TEST(Cnf, PigeonholeShape)
{
    CnfFormula f = pigeonhole(3);
    EXPECT_EQ(f.numVars(), 4u * 3u);
    // 4 "somewhere" clauses + 3 * C(4,2)=18 exclusivity clauses.
    EXPECT_EQ(f.numClauses(), 4u + 18u);
}

TEST(Cdcl, SimpleSatAndModel)
{
    CnfFormula f(3);
    f.addClause({1, 2});
    f.addClause({-1, 3});
    f.addClause({-2, -3});
    std::vector<bool> model;
    EXPECT_EQ(solveCnf(f, &model), SolveResult::Sat);
    EXPECT_TRUE(f.evaluate(model));
}

TEST(Cdcl, EmptyClauseIsUnsat)
{
    CnfFormula f(1);
    f.addClause(Clause{});
    EXPECT_EQ(solveCnf(f), SolveResult::Unsat);
}

TEST(Cdcl, UnitConflictIsUnsat)
{
    CnfFormula f(1);
    f.addClause({1});
    f.addClause({-1});
    EXPECT_EQ(solveCnf(f), SolveResult::Unsat);
}

TEST(Cdcl, PigeonholeUnsat)
{
    for (uint32_t holes : {3u, 4u, 5u}) {
        SolverStats stats;
        EXPECT_EQ(solveCnf(pigeonhole(holes), nullptr, &stats),
                  SolveResult::Unsat);
        EXPECT_GT(stats.conflicts, 0u);
    }
}

TEST(Cdcl, AssumptionsRestrictSolutions)
{
    CnfFormula f(2);
    f.addClause({1, 2});
    CdclSolver solver(f);
    EXPECT_EQ(solver.solve({Lit::make(0, true)}), SolveResult::Sat);
    EXPECT_TRUE(solver.model()[1]); // ~x0 forces x1
    // Contradictory assumptions.
    EXPECT_EQ(solver.solve({Lit::make(0, true), Lit::make(1, true)}),
              SolveResult::Unsat);
    // Solver remains usable without assumptions.
    EXPECT_EQ(solver.solve(), SolveResult::Sat);
}

TEST(Cdcl, ConflictBudgetReturnsUnknown)
{
    SolverConfig cfg;
    cfg.conflictBudget = 1;
    CdclSolver solver(pigeonhole(7), cfg);
    EXPECT_EQ(solver.solve(), SolveResult::Unknown);
}

TEST(Cdcl, StatsArePopulated)
{
    Rng rng(123);
    CnfFormula f = randomKSat(rng, 40, 170, 3);
    SolverStats stats;
    solveCnf(f, nullptr, &stats);
    EXPECT_GT(stats.propagations, 0u);
    EXPECT_GT(stats.literalVisits, 0u);
}

/** Property sweep: CDCL agrees with brute force on random instances. */
class CdclRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(CdclRandom, MatchesBruteForce)
{
    Rng rng(GetParam() * 7919 + 13);
    // Near the phase transition so both SAT and UNSAT appear.
    uint32_t vars = 10 + GetParam() % 6;
    uint32_t clauses = static_cast<uint32_t>(4.3 * vars);
    CnfFormula f = randomKSat(rng, vars, clauses, 3);
    bool expect_sat = f.bruteForceSat();
    std::vector<bool> model;
    SolveResult r = solveCnf(f, &model);
    ASSERT_NE(r, SolveResult::Unknown);
    EXPECT_EQ(r == SolveResult::Sat, expect_sat);
    if (r == SolveResult::Sat) {
        EXPECT_TRUE(f.evaluate(model));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CdclRandom, ::testing::Range(0, 40));

TEST(Dpll, SolvesSmallInstances)
{
    Rng rng(55);
    for (int i = 0; i < 10; ++i) {
        CnfFormula f = randomKSat(rng, 12, 50, 3);
        DpllSolver dpll(f);
        bool expect_sat = f.bruteForceSat();
        EXPECT_EQ(dpll.solve() == SolveResult::Sat, expect_sat);
    }
}

TEST(Dpll, LookaheadDetectsForcedLiterals)
{
    CnfFormula f(3);
    f.addClause({1});      // x0 forced
    f.addClause({-1, 2});  // then x1 forced
    DpllSolver dpll(f);
    EXPECT_EQ(dpll.solve(), SolveResult::Sat);
    EXPECT_TRUE(dpll.model()[0]);
    EXPECT_TRUE(dpll.model()[1]);
}

/** Cube-and-conquer must agree with plain CDCL. */
class CubeConquer : public ::testing::TestWithParam<int>
{
};

TEST_P(CubeConquer, EquivalentToCdcl)
{
    Rng rng(GetParam() * 104729 + 7);
    uint32_t vars = 14 + GetParam() % 8;
    uint32_t clauses = static_cast<uint32_t>(4.2 * vars);
    CnfFormula f = randomKSat(rng, vars, clauses, 3);
    SolveResult direct = solveCnf(f);
    CubeAndConquerResult cc = cubeAndConquer(f, 3);
    EXPECT_EQ(cc.result, direct);
    EXPECT_GE(cc.numCubes, 1u);
    if (cc.result == SolveResult::Sat) {
        EXPECT_TRUE(f.evaluate(cc.model));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CubeConquer, ::testing::Range(0, 16));

TEST(CubeSplitter, RefutedCubesAreGenuinelyUnsat)
{
    Rng rng(999);
    CnfFormula f = randomKSat(rng, 16, 80, 3);
    CubeSplitter splitter(f, 4);
    auto cubes = splitter.split();
    for (const auto &cube : cubes) {
        if (!cube.refuted)
            continue;
        CdclSolver solver(f);
        EXPECT_EQ(solver.solve(cube.lits), SolveResult::Unsat);
    }
}

TEST(ImplicationGraph, EdgesFromBinaryClauses)
{
    CnfFormula f(3);
    f.addClause({1, 2});       // ~x0 -> x1, ~x1 -> x0
    f.addClause({-2, 3});      // x1 -> x2, ~x2 -> ~x1
    ImplicationGraph g(f);
    EXPECT_EQ(g.numEdges(), 4u);
    Lit nx0 = Lit::make(0, true);
    Lit x1 = Lit::make(1, false);
    Lit x2 = Lit::make(2, false);
    EXPECT_TRUE(g.reachable(nx0, x1));
    EXPECT_TRUE(g.reachable(x1, x2));
    EXPECT_TRUE(g.reachable(nx0, x2)); // transitive
    EXPECT_FALSE(g.reachable(x2, x1));
}

TEST(ImplicationGraph, FailedLiteralDetection)
{
    // x0 -> x1 and x0 -> ~x1 makes x0 a failed literal.
    CnfFormula f(2);
    f.addClause({-1, 2});
    f.addClause({-1, -2});
    ImplicationGraph g(f);
    EXPECT_TRUE(g.isFailedLiteral(Lit::make(0, false)));
    EXPECT_FALSE(g.isFailedLiteral(Lit::make(0, true)));
}

TEST(PruneCnf, HiddenLiteralRemoved)
{
    // C = (a | b) with b -> a via (~b | a): b is droppable from C.
    CnfFormula f(2);
    f.addClause({1, 2});
    f.addClause({1, -2});
    CnfPruneResult pr = pruneCnf(f);
    EXPECT_GT(pr.literalsRemoved, 0u);
    EXPECT_EQ(f.bruteForceCountModels(),
              pr.pruned.bruteForceCountModels());
}

TEST(PruneCnf, UnsatByFailedLiterals)
{
    // Both polarities failed: x -> ~x and ~x -> x.
    CnfFormula f(2);
    f.addClause({-1, 2});
    f.addClause({-1, -2});
    f.addClause({1, 2});
    f.addClause({1, -2});
    CnfPruneResult pr = pruneCnf(f);
    EXPECT_EQ(solveCnf(pr.pruned), SolveResult::Unsat);
    EXPECT_EQ(solveCnf(f), SolveResult::Unsat);
}

/**
 * Key pruning invariant (Sec. IV-B): implication-graph pruning preserves
 * logical equivalence, therefore the exact model count.
 */
class PrunePreservesModels : public ::testing::TestWithParam<int>
{
};

TEST_P(PrunePreservesModels, ModelCountUnchanged)
{
    Rng rng(GetParam() * 6151 + 3);
    uint32_t vars = 8 + GetParam() % 5;
    // Mix binary and ternary clauses so the implication graph is rich.
    CnfFormula f = randomKSat(rng, vars, vars * 2, 2);
    CnfFormula f3 = randomKSat(rng, vars, vars, 3);
    for (const auto &c : f3.clauses())
        f.addClause(c);
    CnfPruneResult pr = pruneCnf(f);
    EXPECT_EQ(f.bruteForceCountModels(),
              pr.pruned.bruteForceCountModels())
        << "pruning must preserve equivalence";
    EXPECT_GE(pr.literalReduction, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PrunePreservesModels,
                         ::testing::Range(0, 25));

TEST(PruneCnf, ReductionReportedConsistently)
{
    Rng rng(31337);
    CnfFormula f = randomKSat(rng, 30, 60, 2);
    CnfPruneResult pr = pruneCnf(f);
    size_t before = f.numLiterals();
    size_t after = pr.pruned.numLiterals();
    EXPECT_NEAR(pr.literalReduction,
                1.0 - double(after) / double(before), 1e-12);
}
