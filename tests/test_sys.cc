/**
 * @file
 * System-layer tests: the Listing-1 programming interface state machine
 * (which runs on the caller's thread), the two-level pipeline
 * composition math (Sec. VI-C), and the cross-platform symbolic-cost
 * ordering behind Fig. 11.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <system_error>

#include "compiler/compile.h"
#include "dag_test_util.h"
#include "sys/reason_api.h"
#include "sys/system.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::sys;

namespace {

/** Live threads of this process (0 where /proc is unavailable). */
size_t
threadCount()
{
    std::error_code ec;
    size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
         !ec && it != end; it.increment(ec))
        ++n;
    return n;
}

workloads::SymbolicOps
sampleOps()
{
    workloads::SymbolicOps ops;
    ops.sat.decisions = 5000;
    ops.sat.propagations = 400000;
    ops.sat.literalVisits = 2500000;
    ops.sat.conflicts = 3000;
    ops.sat.learnedLiterals = 45000;
    ops.clauseDbBytes = 512 * 1024;
    ops.pcDagNodes = 3000000;
    ops.hmmDagNodes = 1500000;
    ops.probBytes = 5.0e7;
    return ops;
}

} // namespace

TEST(ReasonApi, ExecuteAndStatusRoundTrip)
{
    Rng rng(12);
    core::Dag dag = testutil::randomDag(rng, 4, 20, 3);
    arch::ArchConfig cfg;
    compiler::Program prog =
        compiler::compile(dag, cfg.compilerTarget());
    ReasonRuntime rt(cfg, prog);

    std::vector<double> neural = testutil::randomInputs(rng, 4);
    std::vector<double> symbolic(1, 0.0);
    int mode = REASON_MODE_PROBABILISTIC;
    int rc = rt.REASON_execute(7, 1, neural.data(), &mode,
                               symbolic.data());
    EXPECT_EQ(rc, 0);
    EXPECT_DOUBLE_EQ(symbolic[0], dag.evaluateRoot(neural));
    EXPECT_EQ(rt.REASON_check_status(7, false), REASON_IDLE);
    EXPECT_TRUE(rt.sharedMemory().symbolicReady);
    EXPECT_GT(rt.totalCycles(), 0u);
}

TEST(ReasonApi, BatchProcessing)
{
    Rng rng(13);
    core::Dag dag = testutil::randomDag(rng, 3, 15, 3);
    arch::ArchConfig cfg;
    compiler::Program prog =
        compiler::compile(dag, cfg.compilerTarget());
    ReasonRuntime rt(cfg, prog);

    const int batch = 4;
    std::vector<double> neural;
    std::vector<std::vector<double>> per_item;
    for (int b = 0; b < batch; ++b) {
        auto x = testutil::randomInputs(rng, 3);
        per_item.push_back(x);
        neural.insert(neural.end(), x.begin(), x.end());
    }
    std::vector<double> symbolic(batch, 0.0);
    EXPECT_EQ(rt.REASON_execute(1, batch, neural.data(), nullptr,
                                symbolic.data()),
              0);
    for (int b = 0; b < batch; ++b)
        EXPECT_DOUBLE_EQ(symbolic[b], dag.evaluateRoot(per_item[b]));
}

TEST(ReasonApi, RejectsBadArguments)
{
    Rng rng(14);
    core::Dag dag = testutil::randomDag(rng, 3, 10, 3);
    arch::ArchConfig cfg;
    ReasonRuntime rt(cfg, compiler::compile(dag, cfg.compilerTarget()));
    std::vector<double> buf(3, 0.0);
    EXPECT_LT(rt.REASON_execute(0, 0, buf.data(), nullptr, buf.data()),
              0);
    EXPECT_LT(rt.REASON_execute(0, 1, nullptr, nullptr, buf.data()), 0);
    // Status of an unknown batch is IDLE.
    EXPECT_EQ(rt.REASON_check_status(99, false), REASON_IDLE);
}

TEST(ReasonApi, RuntimeStartsNoThreads)
{
    const size_t before = threadCount();
    ASSERT_GT(before, 0u) << "/proc/self/task is unreadable";
    Rng rng(15);
    core::Dag dag = testutil::randomDag(rng, 3, 10, 3);
    arch::ArchConfig cfg;
    ReasonRuntime rt(cfg, compiler::compile(dag, cfg.compilerTarget()));
    std::vector<double> neural = testutil::randomInputs(rng, 3);
    std::vector<double> symbolic(1, 0.0);
    ASSERT_EQ(rt.REASON_execute(0, 1, neural.data(), nullptr,
                                symbolic.data()),
              REASON_OK);
    // Listing 1 runs on the caller's thread.
    EXPECT_EQ(threadCount(), before);
}

TEST(Pipeline, OverlapHidesShorterStage)
{
    StageCost neural{0.010, 1.0};
    StageCost symbolic{0.002, 0.1};
    EndToEnd e = pipelinedComposition(neural, symbolic, 10);
    // Steady state is dominated by the 10 ms neural stage.
    EXPECT_NEAR(e.totalSeconds, 0.010 + 9 * 0.010 + 0.002, 1e-12);
    EXPECT_DOUBLE_EQ(e.handoffSeconds, 0.0);
}

TEST(Pipeline, SerialCompositionAddsHandoff)
{
    StageCost neural{0.010, 1.0};
    StageCost symbolic{0.020, 0.5};
    EndToEnd serial = serialComposition(neural, symbolic, 10, 0.15);
    EndToEnd overlap = pipelinedComposition(neural, symbolic, 10);
    EXPECT_GT(serial.totalSeconds, overlap.totalSeconds);
    EXPECT_NEAR(serial.handoffSeconds, 0.030 * 0.15 * 10, 1e-12);
}

TEST(Pipeline, SingleBatchDegenerates)
{
    StageCost neural{0.010, 0.0};
    StageCost symbolic{0.004, 0.0};
    EndToEnd e = pipelinedComposition(neural, symbolic, 1);
    EXPECT_NEAR(e.totalSeconds, 0.014, 1e-12);
}

TEST(SymbolicCost, ReasonBeatsAllBaselines)
{
    workloads::SymbolicOps ops = sampleOps();
    StageCost reason = symbolicCost(Platform::ReasonAccel, ops);
    for (Platform p : {Platform::RtxA6000, Platform::OrinNx,
                       Platform::XeonCpu, Platform::TpuLike,
                       Platform::DpuLike}) {
        StageCost c = symbolicCost(p, ops);
        EXPECT_GT(c.seconds, reason.seconds) << platformName(p);
        EXPECT_GT(c.joules, reason.joules) << platformName(p);
    }
}

TEST(SymbolicCost, PaperOrderingAcrossGpusAndCpu)
{
    workloads::SymbolicOps ops = sampleOps();
    double rtx = symbolicCost(Platform::RtxA6000, ops).seconds;
    double orin = symbolicCost(Platform::OrinNx, ops).seconds;
    double xeon = symbolicCost(Platform::XeonCpu, ops).seconds;
    EXPECT_LT(rtx, orin);
    EXPECT_LT(orin, xeon);
}

TEST(SymbolicCost, SpeedupBandsMatchFig11)
{
    workloads::SymbolicOps ops = sampleOps();
    double reason = symbolicCost(Platform::ReasonAccel, ops).seconds;
    double rtx = symbolicCost(Platform::RtxA6000, ops).seconds;
    double orin = symbolicCost(Platform::OrinNx, ops).seconds;
    double xeon = symbolicCost(Platform::XeonCpu, ops).seconds;
    // Paper: ~12x vs desktop GPU, ~50x vs edge GPU, ~98x vs CPU.
    EXPECT_GT(rtx / reason, 6.0);
    EXPECT_LT(rtx / reason, 25.0);
    EXPECT_GT(orin / reason, 30.0);
    EXPECT_LT(orin / reason, 80.0);
    EXPECT_GT(xeon / reason, 60.0);
    EXPECT_LT(xeon / reason, 160.0);
}

TEST(NeuralCost, FlopsDeriveFromPaperSplit)
{
    workloads::TaskBundle b =
        workloads::generate(workloads::DatasetId::IMO,
                            workloads::TaskScale::Small, 5);
    workloads::SymbolicOps ops = workloads::measureSymbolicOps(b);
    double flops = neuralFlops(b, ops);
    EXPECT_GT(flops, 0.0);
    // Check the split reproduces on the A6000 model.
    StageCost sym = symbolicCost(Platform::RtxA6000, ops);
    StageCost neu = neuralCost(Platform::RtxA6000, flops);
    double frac = neu.seconds / (neu.seconds + sym.seconds);
    EXPECT_NEAR(frac, b.neuralFractionA6000, 0.08);
}

TEST(AccelNeural, Fig13Ordering)
{
    arch::ArchConfig cfg;
    double reason = accelNeuralMacsPerSec(Platform::ReasonAccel, cfg);
    double tpu = accelNeuralMacsPerSec(Platform::TpuLike, cfg);
    double dpu = accelNeuralMacsPerSec(Platform::DpuLike, cfg);
    EXPECT_GT(tpu, reason);
    EXPECT_LT(dpu, reason);
    // Shape: TPU ~1.45x faster, DPU ~4.3x slower.
    EXPECT_NEAR(tpu / reason, 1.45, 0.1);
    EXPECT_NEAR(reason / dpu, 4.3, 0.5);
}
