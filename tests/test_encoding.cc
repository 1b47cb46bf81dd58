/**
 * @file
 * Tests for VLIW instruction encoding: bit-exact round trips in both
 * address modes, accelerator equivalence of decoded programs, size
 * accounting consistency, the auto-write-address saving claim, and the
 * disassembly listing.
 */

#include <gtest/gtest.h>

#include "arch/accelerator.h"
#include "compiler/compile.h"
#include "compiler/encoding.h"
#include "dag_test_util.h"
#include "util/numeric.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::compiler;

namespace {

Program
compileRandom(uint64_t seed, uint32_t inputs = 10, uint32_t ops = 40)
{
    Rng rng(seed);
    core::Dag dag = testutil::randomDag(rng, inputs, ops);
    return compile(dag);
}

void
expectProgramsEqual(const Program &a, const Program &b)
{
    EXPECT_EQ(a.treeDepth, b.treeDepth);
    EXPECT_EQ(a.numPes, b.numPes);
    EXPECT_EQ(a.numBanks, b.numBanks);
    EXPECT_EQ(a.regsPerBank, b.regsPerBank);
    EXPECT_EQ(a.rootBlock, b.rootBlock);

    ASSERT_EQ(a.inputs.size(), b.inputs.size());
    for (size_t i = 0; i < a.inputs.size(); ++i) {
        EXPECT_EQ(a.inputs[i].inputTag, b.inputs[i].inputTag);
        EXPECT_EQ(a.inputs[i].bank, b.inputs[i].bank);
        EXPECT_EQ(a.inputs[i].reg, b.inputs[i].reg);
    }

    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (size_t i = 0; i < a.blocks.size(); ++i) {
        const Block &x = a.blocks[i];
        const Block &y = b.blocks[i];
        ASSERT_EQ(x.operands.size(), y.operands.size());
        for (size_t k = 0; k < x.operands.size(); ++k) {
            EXPECT_EQ(x.operands[k].valid, y.operands[k].valid);
            if (!x.operands[k].valid)
                continue;
            EXPECT_EQ(x.operands[k].fetch, y.operands[k].fetch);
            if (x.operands[k].fetch) {
                EXPECT_EQ(x.operands[k].bank, y.operands[k].bank);
                EXPECT_EQ(x.operands[k].reg, y.operands[k].reg);
            }
            EXPECT_EQ(x.operands[k].a, y.operands[k].a);
            EXPECT_EQ(x.operands[k].b, y.operands[k].b);
        }
        EXPECT_EQ(x.nodeOps, y.nodeOps);
        EXPECT_EQ(x.dest.bank, y.dest.bank);
        EXPECT_EQ(x.dest.reg, y.dest.reg);
        EXPECT_EQ(x.dagRoot, y.dagRoot);
        EXPECT_EQ(x.fusedNodes, y.fusedNodes);
        EXPECT_EQ(x.depends, y.depends);
    }

    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (size_t i = 0; i < a.schedule.size(); ++i) {
        EXPECT_EQ(a.schedule[i].cycle, b.schedule[i].cycle);
        EXPECT_EQ(a.schedule[i].pe, b.schedule[i].pe);
        EXPECT_EQ(a.schedule[i].block, b.schedule[i].block);
    }
}

} // namespace

class EncodingSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(EncodingSweep, ExplicitRoundTrip)
{
    Program p = compileRandom(GetParam());
    EncodedProgram enc = encodeProgram(p, AddressMode::Explicit);
    Program q = decodeProgram(enc);
    expectProgramsEqual(p, q);
}

TEST_P(EncodingSweep, AutoRoundTrip)
{
    Program p = compileRandom(GetParam() + 100);
    EncodedProgram enc = encodeProgram(p, AddressMode::Auto);
    Program q = decodeProgram(enc);
    expectProgramsEqual(p, q);
}

TEST_P(EncodingSweep, DecodedProgramExecutesIdentically)
{
    Rng rng(GetParam() + 200);
    core::Dag dag = testutil::randomDag(rng, 8, 30);
    Program p = compile(dag);
    Program q = decodeProgram(encodeProgram(p, AddressMode::Auto));

    arch::Accelerator accel((arch::ArchConfig()));
    auto inputs = testutil::randomInputs(rng, 8);
    auto r1 = accel.run(p, inputs);
    auto r2 = accel.run(q, inputs);
    EXPECT_DOUBLE_EQ(r1.rootValue, r2.rootValue);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_DOUBLE_EQ(r1.rootValue, dag.evaluateRoot(inputs));
}

TEST_P(EncodingSweep, SizeReportMatchesEncodedBits)
{
    Program p = compileRandom(GetParam() + 300);
    for (AddressMode mode :
         {AddressMode::Explicit, AddressMode::Auto}) {
        EncodedProgram enc = encodeProgram(p, mode);
        EncodingSizeReport rep = sizeReport(p, mode);
        EXPECT_EQ(rep.totalBits, enc.bits);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EncodingSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Encoding, AutoAddressSavesDestRegisterBits)
{
    Program p = compileRandom(77, 12, 60);
    auto expl = sizeReport(p, AddressMode::Explicit);
    auto autom = sizeReport(p, AddressMode::Auto);
    // Exactly log2(regsPerBank) bits per block disappear.
    uint64_t per_block = ceilLog2(p.regsPerBank);
    EXPECT_EQ(expl.destBits - autom.destBits,
              per_block * p.blocks.size());

    double saving = autoAddressSaving(p);
    EXPECT_GT(saving, 0.0);
    EXPECT_LT(saving, 0.5);
}

TEST(Encoding, AutoModeRejectsHandEditedDestinations)
{
    Program p = compileRandom(88);
    ASSERT_FALSE(p.blocks.empty());
    p.blocks.back().dest.reg += 7; // violate the fill-counter policy
    EXPECT_DEATH(encodeProgram(p, AddressMode::Auto), "fill-counter");
}

TEST(Encoding, DecodeRejectsGarbage)
{
    EncodedProgram enc;
    enc.bytes.assign(64, 0xAB);
    enc.bits = 512;
    EXPECT_DEATH(decodeProgram(enc), "magic");
}

TEST(Encoding, ConstantPoolDeduplicates)
{
    // A DAG of identical weighted sums: many operands share (a, b).
    core::Dag dag;
    auto i0 = dag.addInput();
    auto i1 = dag.addInput();
    std::vector<core::NodeId> sums;
    for (int k = 0; k < 10; ++k)
        sums.push_back(
            dag.addOp(core::DagOp::Sum, {i0, i1}, {0.25, 0.75}));
    dag.markRoot(dag.addOp(core::DagOp::Max, std::move(sums)));
    Program p = compile(dag);
    EncodingSizeReport rep = sizeReport(p, AddressMode::Explicit);
    // Far fewer pool entries than valid operands.
    size_t valid = 0;
    for (const Block &b : p.blocks)
        for (const OperandRef &op : b.operands)
            valid += op.valid;
    EXPECT_LT(rep.constPoolEntries, valid / 2 + 2);
}

TEST(Encoding, DisassemblyMentionsEveryBlock)
{
    Program p = compileRandom(99, 6, 20);
    std::string listing = disassemble(p);
    for (size_t b = 0; b < p.blocks.size(); ++b)
        EXPECT_NE(listing.find(
                      std::string("B").append(std::to_string(b)).append(":")),
                  std::string::npos);
    EXPECT_NE(listing.find("dest:"), std::string::npos);
    EXPECT_NE(listing.find("root = B"), std::string::npos);
}

TEST(Encoding, EncodedSizeScalesWithProgram)
{
    Program small = compileRandom(111, 6, 15);
    Program large = compileRandom(111, 24, 150);
    EXPECT_GT(encodeProgram(large).bits, encodeProgram(small).bits);
}
