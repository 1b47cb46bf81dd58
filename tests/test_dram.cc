/**
 * @file
 * DRAM timing-model tests (arch/dram): address-map bit slicing,
 * per-bank state-machine timing (tRCD/tRP/tCAS/tRAS), FR-FCFS
 * scheduling, bounded request queues, timing invariants over a random
 * corpus, determinism, DMA session row coalescing, and the DmaEngine /
 * BcpPipeline / Accelerator integration points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/accelerator.h"
#include "arch/dram.h"
#include "arch/memory.h"
#include "arch/symbolic.h"
#include "compiler/compile.h"
#include "dag_test_util.h"
#include "logic/cnf.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::arch;

namespace {

ArchConfig
defaultCfg()
{
    return ArchConfig{};
}

/** Single-channel config: bank/row behavior without channel striping. */
ArchConfig
oneChannelCfg()
{
    ArchConfig cfg;
    cfg.dramChannels = 1;
    return cfg;
}

} // namespace

TEST(DramAddressMap, DecodeEncodeRoundTrip)
{
    ArchConfig cfg = defaultCfg();
    DramAddressMap map(cfg.dramChannels, cfg.dramRanksPerChannel,
                       cfg.dramBanksPerRank, cfg.dramRowBytes,
                       cfg.dramBurstBytes);
    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        uint64_t addr = uint64_t(rng.uniformInt(0, (1 << 28) - 1));
        DramCoord c = map.decode(addr);
        EXPECT_LT(c.channel, map.channels());
        EXPECT_LT(c.rank, map.ranks());
        EXPECT_LT(c.bank, map.banksPerRank());
        EXPECT_LT(c.col, map.burstsPerRow());
        // encode returns the burst-aligned address.
        EXPECT_EQ(map.encode(c), addr - addr % map.burstBytes());
    }
}

TEST(DramAddressMap, SequentialBurstsStripeChannels)
{
    ArchConfig cfg = defaultCfg();
    DramAddressMap map(cfg.dramChannels, cfg.dramRanksPerChannel,
                       cfg.dramBanksPerRank, cfg.dramRowBytes,
                       cfg.dramBurstBytes);
    for (uint32_t i = 0; i < 4 * map.channels(); ++i) {
        DramCoord c = map.decode(uint64_t(i) * map.burstBytes());
        EXPECT_EQ(c.channel, i % map.channels())
            << "sequential bursts must rotate channels";
    }
}

TEST(DramAddressMap, RowSpanWindowSharesRow)
{
    ArchConfig cfg = defaultCfg();
    DramAddressMap map(cfg.dramChannels, cfg.dramRanksPerChannel,
                       cfg.dramBanksPerRank, cfg.dramRowBytes,
                       cfg.dramBurstBytes);
    const uint64_t span = map.rowSpanBytes();
    // Every burst inside one row-stripe window lands in row 0, bank 0.
    for (uint64_t a = 0; a < span; a += map.burstBytes()) {
        DramCoord c = map.decode(a);
        EXPECT_EQ(c.row, 0u);
        EXPECT_EQ(c.bank, 0u);
    }
    // The next window moves on (next bank at default geometry).
    DramCoord next = map.decode(span);
    EXPECT_TRUE(next.row != 0 || next.bank != 0);
}

TEST(DramAddressMap, RejectsGeometryTheBitSlicingCannotMap)
{
    // Checked in every build type: a 3-channel mask would never select
    // channel 1, and a row smaller than a burst has no column bits.
    EXPECT_DEATH(DramAddressMap(3, 1, 8, 2048, 32), "powers of two");
    EXPECT_DEATH(DramAddressMap(8, 1, 8, 16, 32), "at least one burst");
}

TEST(DramTiming, ClosedBankPaysActivate)
{
    DramModel dram(defaultCfg());
    uint64_t done = dram.read(0, 0, 1);
    EXPECT_EQ(done, dram.minClosedRowLatencyCycles());
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowHits(), 0u);
}

TEST(DramTiming, OpenRowHitIsMinimumLatency)
{
    ArchConfig cfg = defaultCfg();
    DramModel dram(cfg);
    uint64_t t1 = dram.read(0, 0, 1);
    // Next column of the same open row, same channel 0 / bank 0.
    uint64_t same_row = uint64_t(cfg.dramBurstBytes) * cfg.dramChannels;
    uint64_t t2 = dram.read(t1, same_row, 1);
    EXPECT_EQ(t2 - t1, dram.minLatencyCycles());
    EXPECT_EQ(dram.rowHits(), 1u);
}

TEST(DramTiming, ConflictPaysTRasTRpAndActivate)
{
    ArchConfig cfg = defaultCfg();
    DramModel dram(cfg);
    uint64_t t1 = dram.read(0, 0, 1); // activates row 0 at cycle 0
    EXPECT_EQ(t1, 19u);               // tRCD 9 + tCAS 9 + burst 1
    // Same channel/bank, different row: burst index with row bit set
    // (ch 3 bits, col 6 bits, bank 3 bits -> row at bit 12).
    uint64_t conflicting = (uint64_t(1) << 12) * cfg.dramBurstBytes;
    ASSERT_EQ(dram.map().decode(conflicting).channel, 0u);
    ASSERT_EQ(dram.map().decode(conflicting).bank, 0u);
    ASSERT_EQ(dram.map().decode(conflicting).row, 1u);
    uint64_t t2 = dram.read(t1, conflicting, 1);
    // Precharge waits for tRAS (activate at 0 -> earliest PRE at 21),
    // then tRP + tRCD + tCAS + burst: 21 + 9 + 9 + 9 + 1 = 49.
    EXPECT_EQ(t2, 49u);
    EXPECT_EQ(dram.rowConflicts(), 1u);
}

TEST(DramTiming, FrFcfsServicesOpenRowFirst)
{
    DramModel dram(oneChannelCfg());
    // Batch: row 0 burst, row 1 burst (same bank), row 0 burst again.
    // FCFS order would pay two row switches; FR-FCFS reorders the
    // second row-0 burst ahead of the row-1 burst, leaving exactly one
    // conflict and one hit.
    const uint32_t bb = 32;
    std::vector<DramRequest> reqs = {
        {0, 1},                        // row 0, col 0: miss (activate)
        {(uint64_t(1) << 9) * bb, 1},  // row 1, col 0: conflict
        {bb, 1},                       // row 0, col 1: hit if reordered
    };
    ASSERT_EQ(dram.map().decode(reqs[1].addr).row, 1u);
    ASSERT_EQ(dram.map().decode(reqs[1].addr).bank, 0u);
    dram.readBatch(0, reqs);
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowHits(), 1u);
    EXPECT_EQ(dram.rowConflicts(), 1u);
}

TEST(DramTiming, QueueBoundRespected)
{
    ArchConfig cfg = defaultCfg();
    cfg.dramQueueDepth = 4;
    DramModel dram(cfg);
    // One large request floods a single channel's queue via many rows.
    std::vector<DramRequest> reqs;
    for (int i = 0; i < 200; ++i)
        reqs.push_back(
            {uint64_t(i) * cfg.dramChannels * cfg.dramBurstBytes, 1});
    dram.readBatch(0, reqs);
    EXPECT_LE(dram.maxQueueOccupancy(), 4u);
    EXPECT_EQ(dram.bursts(), 200u);
}

TEST(DramTiming, RandomCorpusRespectsInvariants)
{
    ArchConfig cfg = defaultCfg();
    DramModel dram(cfg);
    Rng rng(7);
    uint64_t now = 0;
    uint64_t last_done = 0;
    for (int i = 0; i < 5000; ++i) {
        now += uint64_t(rng.uniformInt(0, 6));
        uint64_t addr = uint64_t(rng.uniformInt(0, (8 << 20) - 1));
        size_t bytes = size_t(rng.uniformInt(1, 192));
        uint64_t done = dram.read(now, addr, bytes);
        // No response before the minimum (open-row) latency.
        ASSERT_GE(done, now + dram.minLatencyCycles());
        last_done = std::max(last_done, done);
    }
    // Sustained bandwidth at or below the structural peak.
    ASSERT_GT(last_done, 0u);
    double sustained = double(dram.bytesRead()) / double(last_done);
    EXPECT_LE(sustained, dram.peakBytesPerCycle() + 1e-9);
    // All bursts are classified exactly once.
    EXPECT_EQ(dram.rowHits() + dram.rowMisses() + dram.rowConflicts(),
              dram.bursts());
}

TEST(DramTiming, DeterministicAcrossRuns)
{
    auto run = [](uint64_t &checksum) {
        DramModel dram(defaultCfg());
        Rng rng(1234);
        uint64_t now = 0;
        checksum = 0;
        for (int i = 0; i < 1000; ++i) {
            now += uint64_t(rng.uniformInt(0, 4));
            uint64_t addr = uint64_t(rng.uniformInt(0, (4 << 20) - 1));
            checksum +=
                dram.read(now, addr, size_t(rng.uniformInt(1, 128)));
        }
        checksum = checksum * 31 + dram.rowHits();
        checksum = checksum * 31 + dram.rowConflicts();
        checksum = checksum * 31 + dram.lastCompletionCycle();
    };
    uint64_t a = 0, b = 0;
    run(a);
    run(b);
    EXPECT_EQ(a, b) << "model must be bit-identical across runs";
}

TEST(DramStats, ExportCoversAggregateAndPerBank)
{
    DramModel dram(defaultCfg());
    dram.read(0, 0, 4096); // touches several channels
    StatGroup g;
    dram.exportStats(g);
    EXPECT_EQ(g.get("dram_bursts"), dram.bursts());
    EXPECT_EQ(g.get("dram_bytes"), dram.bytesRead());
    EXPECT_EQ(g.get("dram_row_hits") + g.get("dram_row_misses") +
                  g.get("dram_row_conflicts"),
              dram.bursts());
    // Per-bank keys exist for touched banks (channel 0, bank 0 is hit
    // by address 0) and match the bank counters.
    const DramBankCounters &bc = dram.bankCounters(0, 0);
    EXPECT_EQ(g.get("dram_c0_b0_hits"), bc.hits);
    EXPECT_EQ(g.get("dram_c0_b0_misses"), bc.misses);
}

TEST(DmaSession, CoalescesAdjacentWordsIntoOneRun)
{
    DramModel dram(defaultCfg());
    DmaSession session(dram, 8);
    // 256 adjacent words = 2 KiB, inside one row-stripe window.
    for (uint64_t i = 0; i < 256; ++i)
        session.requestWord(i * 8);
    uint64_t done = session.complete(0);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(session.wordsRequested(), 256u);
    EXPECT_EQ(session.runsIssued(), 1u);
    EXPECT_EQ(dram.bursts(), 2048u / 32u);
}

TEST(DmaSession, DeduplicatesRepeatedWords)
{
    DramModel dram(defaultCfg());
    DmaSession session(dram, 8);
    session.requestWord(64);
    session.requestWord(64);
    session.requestWord(72);
    session.complete(0);
    EXPECT_EQ(session.duplicateWords(), 1u);
    EXPECT_EQ(dram.bursts(), 1u) << "both words share one burst";
}

TEST(DmaSession, StreamingBeatsRandomLocality)
{
    // Footprint must exceed banks x one-row coverage so random order
    // actually provokes row conflicts (256 KiB = 2 rows per bank at
    // the default geometry).
    const uint64_t kWords = 32768;
    std::vector<uint64_t> order(kWords);
    for (uint64_t i = 0; i < kWords; ++i)
        order[i] = i;

    auto run = [&](const std::vector<uint64_t> &words, double &hit_rate) {
        DramModel dram(defaultCfg());
        DmaSession session(dram, 8);
        uint64_t now = 0;
        for (size_t i = 0; i < words.size(); ++i) {
            session.requestWord(words[i] * 8);
            if ((i + 1) % 256 == 0)
                now = session.complete(now);
        }
        now = session.complete(now);
        hit_rate = dram.rowHitRate();
        return now;
    };

    double stream_hits = 0.0, random_hits = 0.0;
    uint64_t stream_cycles = run(order, stream_hits);
    Rng rng(99);
    rng.shuffle(order);
    uint64_t random_cycles = run(order, random_hits);

    EXPECT_GT(stream_hits, random_hits);
    EXPECT_LT(stream_cycles, random_cycles);
}

TEST(DmaEngineLegacy, BandwidthTermChargesTransferTime)
{
    // bytes_per_cycle = 8: 64 bytes add ceil(64/8) = 8 cycles.
    DmaEngine dma(10, 2, 8);
    EXPECT_EQ(dma.issue(0, 64), 18u);
    EXPECT_EQ(dma.issue(0, 4), 11u); // partial cycle rounds up
    // Rate 0 disables the term (pure-latency legacy behavior).
    DmaEngine flat(10, 2, 0);
    EXPECT_EQ(flat.issue(0, 64), 10u);
}

TEST(DmaEngineDram, IssueAtRoutesThroughModel)
{
    ArchConfig cfg = defaultCfg();
    DramModel dram(cfg);
    DmaEngine dma(cfg.dmaLatencyCycles, 4);
    dma.attachDram(&dram);
    // Closed-row fetch: latency comes from the model, not the flat
    // constant (19 cycles at default timing vs dmaLatencyCycles = 24).
    EXPECT_EQ(dma.issueAt(0, 0, 32), dram.minClosedRowLatencyCycles());
    EXPECT_EQ(dram.bursts(), 1u);
    EXPECT_EQ(dma.requests(), 1u);
    // Detached, issueAt falls back to the legacy path.
    dma.attachDram(nullptr);
    uint64_t done = dma.issueAt(100, 0, 32);
    EXPECT_EQ(done, 100u + cfg.dmaLatencyCycles);
}

TEST(BcpPipeline, ClauseMissesGoThroughDram)
{
    logic::CnfFormula f(40);
    for (int i = 0; i + 2 < 40; ++i)
        f.addClause({-(i + 1), i + 2, i + 3});

    ArchConfig starved;
    starved.sramBytes = 64; // force misses
    BcpPipeline pipe(f, starved);
    ASSERT_NE(pipe.dram(), nullptr);
    BcpResult r = pipe.decide(logic::Lit::make(0, false));
    EXPECT_GT(pipe.events().get("dma_fetches"), 0u);
    EXPECT_GT(pipe.dram()->bursts(), 0u);

    // Legacy mode: no model, identical functional behavior.
    ArchConfig legacy = starved;
    legacy.dramModelEnabled = false;
    BcpPipeline pipe2(f, legacy);
    EXPECT_EQ(pipe2.dram(), nullptr);
    BcpResult r2 = pipe2.decide(logic::Lit::make(0, false));
    ASSERT_EQ(r2.implications.size(), r.implications.size());
    for (size_t i = 0; i < r.implications.size(); ++i)
        EXPECT_EQ(r2.implications[i], r.implications[i]);
    EXPECT_EQ(r2.conflict, r.conflict);
}

TEST(AcceleratorDram, PreloadGoesThroughSession)
{
    Rng rng(606);
    core::Dag dag = testutil::randomDag(rng, 8, 100, 4);
    ArchConfig cfg;
    compiler::Program p = compile(dag, cfg.compilerTarget());
    Accelerator accel(cfg);
    auto inputs = testutil::randomInputs(rng, 8);

    ExecutionResult r = accel.run(p, inputs);
    EXPECT_GT(r.events.get("dram_bursts"), 0u);
    EXPECT_GT(r.events.get("dma_session_words"), 0u);
    EXPECT_GT(r.dmaStallCycles, 0u);

    // Preloaded runs skip the DRAM preload entirely.
    ExecutionResult pre = accel.run(p, inputs, /*preloaded=*/true);
    EXPECT_EQ(pre.events.get("dram_bursts"), 0u);
    EXPECT_EQ(pre.dmaStallCycles, 0u);
    EXPECT_DOUBLE_EQ(pre.rootValue, r.rootValue);

    // Legacy mode reproduces the flat preload formula.
    ArchConfig legacy = cfg;
    legacy.dramModelEnabled = false;
    Accelerator laccel(legacy);
    ExecutionResult lr = laccel.run(p, inputs);
    uint64_t words = p.inputs.size();
    uint64_t expect = legacy.dmaLatencyCycles +
                      (words + legacy.numBanks - 1) / legacy.numBanks;
    EXPECT_EQ(lr.dmaStallCycles, expect);
    EXPECT_DOUBLE_EQ(lr.rootValue, r.rootValue);
}

TEST(AcceleratorDram, PreloadDeterministic)
{
    Rng rng(607);
    core::Dag dag = testutil::randomDag(rng, 8, 120, 4);
    ArchConfig cfg;
    compiler::Program p = compile(dag, cfg.compilerTarget());
    Accelerator accel(cfg);
    auto inputs = testutil::randomInputs(rng, 8);
    ExecutionResult a = accel.run(p, inputs);
    ExecutionResult b = accel.run(p, inputs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dmaStallCycles, b.dmaStallCycles);
    EXPECT_EQ(a.events.get("dram_row_hits"),
              b.events.get("dram_row_hits"));
}
