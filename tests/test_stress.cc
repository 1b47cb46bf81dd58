/**
 * @file
 * Stress and failure-injection tests: tiny FIFOs, starved SRAM, slow
 * DMA, degenerate hardware shapes, determinism across repeated runs,
 * and large-input robustness.  Functional results must survive every
 * resource squeeze — only timing may degrade.
 */

#include <gtest/gtest.h>

#include "arch/accelerator.h"
#include "arch/symbolic.h"
#include "compiler/compile.h"
#include "core/builders.h"
#include "dag_test_util.h"
#include "logic/solver.h"
#include "util/numeric.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::arch;

TEST(Stress, TinyFifoPreservesBcpCorrectness)
{
    Rng rng(1);
    logic::CnfFormula f = logic::randomKSat(rng, 30, 100, 3);
    ArchConfig normal;
    ArchConfig squeezed = normal;
    squeezed.bcpFifoDepth = 1; // every burst of implications overflows

    BcpPipeline p1(f, normal);
    BcpPipeline p2(f, squeezed);
    for (uint32_t v = 0; v < 8; ++v) {
        logic::Lit d = logic::Lit::make(v, false);
        if (p1.value(v) != logic::LBool::Undef)
            continue;
        BcpResult r1 = p1.decide(d);
        BcpResult r2 = p2.decide(d);
        ASSERT_EQ(r1.conflict, r2.conflict);
        if (r1.conflict)
            break;
        for (uint32_t w = 0; w < f.numVars(); ++w)
            EXPECT_EQ(p1.value(w), p2.value(w));
    }
    // The squeeze must be visible in the stall counters, not results.
    EXPECT_GE(p2.events().get("fifo_overflow_stalls"), 0u);
}

TEST(Stress, StarvedSramOnlyCostsTime)
{
    Rng rng(2);
    logic::CnfFormula f = logic::randomKSat(rng, 40, 170, 3);
    ArchConfig normal;
    ArchConfig starved = normal;
    starved.sramBytes = 128;
    starved.dmaLatencyCycles = 200;

    BcpPipeline fast(f, normal);
    BcpPipeline slow(f, starved);
    BcpResult r1 = fast.decide(logic::Lit::make(0, false));
    BcpResult r2 = slow.decide(logic::Lit::make(0, false));
    EXPECT_EQ(r1.conflict, r2.conflict);
    EXPECT_EQ(r1.implications.size(), r2.implications.size());
    if (!r1.implications.empty()) {
        EXPECT_GT(r2.cycles, r1.cycles)
            << "misses with slow DMA must cost cycles";
    }
}

TEST(Stress, MinimalHardwareShapeStillCorrect)
{
    Rng rng(3);
    core::Dag dag = testutil::randomDag(rng, 6, 60, 4);
    auto inputs = testutil::randomInputs(rng, 6);
    double want = dag.evaluateRoot(inputs);

    compiler::TargetConfig t;
    t.treeDepth = 1; // two leaves, one node per PE
    t.numPes = 1;
    t.numBanks = 2;
    t.regsPerBank = 4; // forces heavy spilling
    ArchConfig cfg;
    cfg.treeDepth = 1;
    cfg.numPes = 1;
    cfg.numBanks = 2;
    cfg.regsPerBank = 4;
    compiler::Program prog = compiler::compile(dag, t);
    Accelerator accel(cfg);
    ExecutionResult r = accel.run(prog, inputs);
    EXPECT_TRUE(nearlyEqual(want, r.rootValue, 1e-9, 1e-12));
    EXPECT_GT(r.events.get("spill_writes"), 0u);
}

TEST(Stress, SingleBankPortSerializesButComputes)
{
    Rng rng(4);
    core::Dag dag = testutil::randomDag(rng, 10, 80, 4);
    auto inputs = testutil::randomInputs(rng, 10);
    ArchConfig wide;
    ArchConfig narrow = wide;
    narrow.bankReadPorts = 1;
    compiler::Program prog =
        compiler::compile(dag, wide.compilerTarget());
    ExecutionResult r_wide = Accelerator(wide).run(prog, inputs, true);
    ExecutionResult r_narrow =
        Accelerator(narrow).run(prog, inputs, true);
    EXPECT_DOUBLE_EQ(r_wide.rootValue, r_narrow.rootValue);
    EXPECT_GE(r_narrow.cycles, r_wide.cycles);
}

TEST(Stress, RepeatedRunsAreDeterministic)
{
    Rng rng(5);
    core::Dag dag = testutil::randomDag(rng, 8, 120, 5);
    auto inputs = testutil::randomInputs(rng, 8);
    ArchConfig cfg;
    compiler::Program prog =
        compiler::compile(dag, cfg.compilerTarget());
    Accelerator accel(cfg);
    ExecutionResult first = accel.run(prog, inputs);
    for (int i = 0; i < 3; ++i) {
        ExecutionResult again = accel.run(prog, inputs);
        EXPECT_DOUBLE_EQ(again.rootValue, first.rootValue);
        EXPECT_EQ(again.cycles, first.cycles);
        EXPECT_EQ(again.events.get("regfile_reads"),
                  first.events.get("regfile_reads"));
    }
}

TEST(Stress, SolverDeterministicAcrossRuns)
{
    Rng rng(6);
    logic::CnfFormula f = logic::randomKSat(rng, 60, 255, 3);
    logic::SolverStats s1, s2;
    logic::SolveResult r1 = logic::solveCnf(f, nullptr, &s1);
    logic::SolveResult r2 = logic::solveCnf(f, nullptr, &s2);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(s1.conflicts, s2.conflicts);
    EXPECT_EQ(s1.propagations, s2.propagations);
}

TEST(Stress, LargeDagCompilesAndMatches)
{
    Rng rng(7);
    core::Dag dag = testutil::randomDag(rng, 16, 1500, 5);
    auto inputs = testutil::randomInputs(rng, 16, 0.5, 1.1);
    double want = dag.evaluateRoot(inputs);
    ArchConfig cfg;
    compiler::Program prog =
        compiler::compile(dag, cfg.compilerTarget());
    EXPECT_GT(prog.blocks.size(), 100u);
    ExecutionResult r = Accelerator(cfg).run(prog, inputs);
    EXPECT_TRUE(nearlyEqual(want, r.rootValue, 1e-8, 1e-9))
        << want << " vs " << r.rootValue;
    EXPECT_GT(r.peUtilization, 0.05);
}

TEST(Stress, DeepUnbalancedChain)
{
    // A 200-deep alternating chain exercises block splitting and
    // pipeline spacing on the critical path.
    core::Dag dag;
    core::NodeId acc = dag.addInput();
    core::NodeId one = dag.addConst(1.0001);
    for (int i = 0; i < 200; ++i) {
        acc = (i % 2 == 0)
                  ? dag.addOp(core::DagOp::Product, {acc, one})
                  : dag.addOp(core::DagOp::Sum, {acc, one});
    }
    dag.markRoot(acc);
    double want = dag.evaluateRoot({0.5});
    ArchConfig cfg;
    compiler::Program prog =
        compiler::compile(dag, cfg.compilerTarget());
    ExecutionResult r = Accelerator(cfg).run(prog, {0.5});
    EXPECT_TRUE(nearlyEqual(want, r.rootValue, 1e-9, 1e-12));
    // Chains cannot use more than one PE effectively.
    EXPECT_LT(r.peUtilization, 0.5);
}

TEST(Stress, ConflictBudgetExhaustionIsUnknownNotWrong)
{
    logic::SolverConfig cfg;
    cfg.conflictBudget = 3;
    logic::CdclSolver solver(logic::pigeonhole(7), cfg);
    EXPECT_EQ(solver.solve(), logic::SolveResult::Unknown);
}

TEST(Stress, AcceleratorSolveAgreesUnderTinyMemory)
{
    Rng rng(8);
    logic::CnfFormula f = logic::randomKSat(rng, 24, 100, 3);
    logic::SolveResult expect = logic::solveCnf(f);
    ArchConfig cfg;
    cfg.sramBytes = 256;
    cfg.bcpFifoDepth = 2;
    SymbolicTiming t = solveOnAccelerator(f, cfg, 3);
    EXPECT_EQ(t.result, expect);
}
