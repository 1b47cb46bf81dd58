/**
 * @file
 * Tests for CNF preprocessing: per-pass behaviour on constructed
 * formulas, equisatisfiability and model reconstruction on random
 * sweeps, and the equivalence-preservation contract of subsumption and
 * self-subsuming resolution (exact model-count invariance).
 */

#include <gtest/gtest.h>

#include "logic/cnf.h"
#include "logic/preprocess.h"
#include "logic/solver.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::logic;

namespace {

PreprocessConfig
onlyPass(bool units, bool pures, bool subsume, bool self_subsume,
         bool probe, bool bve)
{
    PreprocessConfig cfg;
    cfg.unitPropagation = units;
    cfg.pureLiterals = pures;
    cfg.subsumption = subsume;
    cfg.selfSubsumption = self_subsume;
    cfg.failedLiteralProbing = probe;
    cfg.variableElimination = bve;
    return cfg;
}

} // namespace

TEST(Preprocess, UnitPropagationFixesChain)
{
    CnfFormula f(4);
    f.addClause({1});        // x0
    f.addClause({-1, 2});    // x0 -> x1
    f.addClause({-2, 3});    // x1 -> x2
    f.addClause({-3, 4});    // x2 -> x3
    Preprocessor pre(f, onlyPass(true, false, false, false, false, false));
    pre.run();
    EXPECT_FALSE(pre.knownUnsat());
    EXPECT_EQ(pre.stats().unitsFixed, 4u);
    EXPECT_EQ(pre.simplified().numClauses(), 0u);
    auto model = pre.reconstructModel({});
    EXPECT_TRUE(f.evaluate(model));
}

TEST(Preprocess, UnitConflictDetectsUnsat)
{
    CnfFormula f(2);
    f.addClause({1});
    f.addClause({-1});
    Preprocessor pre(f);
    pre.run();
    EXPECT_TRUE(pre.knownUnsat());
}

TEST(Preprocess, PureLiteralFixed)
{
    CnfFormula f(3);
    f.addClause({1, 2});
    f.addClause({1, -2});
    f.addClause({2, 3});
    // x0 occurs only positively.
    Preprocessor pre(f, onlyPass(false, true, false, false, false, false));
    pre.run();
    EXPECT_GE(pre.stats().pureLiteralsFixed, 1u);
    auto model = pre.reconstructModel(
        std::vector<bool>(3, false));
    // Remaining formula may be nonempty; only check x0's polarity here.
    EXPECT_TRUE(model[0]);
}

TEST(Preprocess, SubsumptionDropsSuperset)
{
    CnfFormula f(3);
    f.addClause({1, 2});
    f.addClause({1, 2, 3}); // subsumed by the first
    Preprocessor pre(f, onlyPass(false, false, true, false, false, false));
    pre.run();
    EXPECT_EQ(pre.stats().subsumedClauses, 1u);
    EXPECT_EQ(pre.simplified().numClauses(), 1u);
}

TEST(Preprocess, SelfSubsumptionStrengthens)
{
    CnfFormula f(3);
    f.addClause({1, 2});      // (x0 | x1)
    f.addClause({-1, 2, 3});  // (~x0 | x1 | x2) -> strengthen to (x1|x2)?
    // c = {x0, x1}, l = x0: c\{l} = {x1} ⊆ d\{~x0} = {x1, x2}: remove ~x0.
    Preprocessor pre(f, onlyPass(false, false, true, true, false, false));
    pre.run();
    EXPECT_EQ(pre.stats().strengthenedClauses, 1u);
    CnfFormula g = pre.simplified();
    // The strengthened clause is (x1 | x2).
    bool found = false;
    for (const auto &c : g.clauses())
        if (c == Clause{Lit::make(1, false), Lit::make(2, false)})
            found = true;
    EXPECT_TRUE(found);
}

TEST(Preprocess, SubsumptionPreservesModelCount)
{
    // Subsumption + self-subsuming resolution are logical-equivalence
    // preserving: the simplified formula has the same model count.
    Rng rng(91);
    for (int trial = 0; trial < 12; ++trial) {
        CnfFormula f = randomKSat(rng, 10, 45, 3);
        // Add redundancy for the passes to find: widen some clauses.
        CnfFormula padded = f;
        for (size_t i = 0; i + 1 < f.numClauses(); i += 4) {
            Clause wide = f.clause(i);
            wide.push_back(Lit::make(uint32_t(i % 10), (i / 10) & 1));
            std::sort(wide.begin(), wide.end());
            wide.erase(std::unique(wide.begin(), wide.end()), wide.end());
            padded.addClause(wide);
        }
        Preprocessor pre(padded,
                         onlyPass(false, false, true, true, false, false));
        pre.run();
        CnfFormula g = pre.simplified();
        EXPECT_EQ(g.bruteForceCountModels(),
                  padded.bruteForceCountModels())
            << "trial " << trial;
    }
}

TEST(Preprocess, FailedLiteralProbingDetectsForcedVar)
{
    // x0 -> x1, x0 -> ~x1 means x0 must be false.
    CnfFormula f(3);
    f.addClause({-1, 2});
    f.addClause({-1, -2});
    f.addClause({1, 3}); // keeps x0 from being pure
    Preprocessor pre(f, onlyPass(false, false, false, false, true, false));
    pre.run();
    EXPECT_GE(pre.stats().failedLiterals, 1u);
    auto model = pre.reconstructModel(std::vector<bool>(3, true));
    EXPECT_FALSE(model[0]);
}

TEST(Preprocess, BveEliminatesLowOccurrenceVar)
{
    // x1 appears in exactly two clauses; resolving removes it.
    CnfFormula f(3);
    f.addClause({1, 2});   // (x0 | x1)
    f.addClause({-2, 3});  // (~x1 | x2)
    Preprocessor pre(f, onlyPass(false, false, false, false, false, true));
    pre.run();
    EXPECT_GE(pre.stats().eliminatedVars, 1u);
    // Resolvent: (x0 | x2).
    CnfFormula g = pre.simplified();
    for (const auto &c : g.clauses())
        for (Lit l : c)
            EXPECT_NE(l.var(), 1u);
}

struct PreprocessSweepParam
{
    uint32_t vars;
    uint32_t clauses;
    uint32_t k;
    uint64_t seed;
    bool planted;
};

class PreprocessSweep
    : public ::testing::TestWithParam<PreprocessSweepParam>
{
};

TEST_P(PreprocessSweep, EquisatisfiableAndModelReconstructs)
{
    auto p = GetParam();
    Rng rng(p.seed);
    CnfFormula f = p.planted ? plantedKSat(rng, p.vars, p.clauses, p.k)
                             : randomKSat(rng, p.vars, p.clauses, p.k);
    Preprocessor pre(f);
    pre.run();

    bool original_sat = f.bruteForceSat();
    if (pre.knownUnsat()) {
        EXPECT_FALSE(original_sat);
        return;
    }
    CnfFormula g = pre.simplified();
    std::vector<bool> model;
    SolveResult r = solveCnf(g, &model);
    EXPECT_EQ(r == SolveResult::Sat, original_sat);
    if (r == SolveResult::Sat) {
        auto full = pre.reconstructModel(model);
        EXPECT_TRUE(f.evaluate(full));
    }
}

TEST_P(PreprocessSweep, ClauseCountNeverGrows)
{
    // With bveGrowthLimit = 0, every pass removes clauses or keeps the
    // count (resolvents may be *wider*, so literal count can grow, but
    // the clause count cannot).
    auto p = GetParam();
    Rng rng(p.seed + 500);
    CnfFormula f = p.planted ? plantedKSat(rng, p.vars, p.clauses, p.k)
                             : randomKSat(rng, p.vars, p.clauses, p.k);
    PreprocessStats stats;
    PreprocessConfig cfg;
    cfg.bveGrowthLimit = 0; // never grow
    preprocessCnf(f, &stats, cfg);
    EXPECT_LE(stats.clausesAfter, stats.clausesBefore);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PreprocessSweep,
    ::testing::Values(PreprocessSweepParam{8, 24, 3, 1, false},
                      PreprocessSweepParam{10, 35, 3, 2, false},
                      PreprocessSweepParam{10, 44, 3, 3, false},
                      PreprocessSweepParam{12, 50, 3, 4, false},
                      PreprocessSweepParam{12, 30, 2, 5, false},
                      PreprocessSweepParam{14, 56, 4, 6, false},
                      PreprocessSweepParam{16, 64, 3, 7, false},
                      PreprocessSweepParam{12, 48, 3, 8, true},
                      PreprocessSweepParam{16, 70, 3, 9, true},
                      PreprocessSweepParam{18, 60, 3, 10, true},
                      PreprocessSweepParam{20, 85, 3, 11, true},
                      PreprocessSweepParam{10, 55, 2, 12, false}));

TEST(Preprocess, PigeonholeStaysUnsat)
{
    CnfFormula f = pigeonhole(4);
    Preprocessor pre(f);
    pre.run();
    if (!pre.knownUnsat()) {
        EXPECT_EQ(solveCnf(pre.simplified()), SolveResult::Unsat);
    }
}

TEST(Preprocess, OneShotHelperReportsStats)
{
    Rng rng(7);
    CnfFormula f = randomKSat(rng, 12, 40, 3);
    PreprocessStats stats;
    CnfFormula g = preprocessCnf(f, &stats);
    EXPECT_EQ(stats.clausesBefore, f.numClauses());
    EXPECT_EQ(stats.clausesAfter, g.numClauses());
    EXPECT_GE(stats.rounds, 1u);
}

TEST(Preprocess, EmptyFormulaIsNoOp)
{
    CnfFormula f(5);
    Preprocessor pre(f);
    pre.run();
    EXPECT_FALSE(pre.knownUnsat());
    EXPECT_EQ(pre.simplified().numClauses(), 0u);
    auto model = pre.reconstructModel({});
    EXPECT_EQ(model.size(), 5u);
}
