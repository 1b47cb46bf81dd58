/**
 * @file
 * Tests for the portable 8-lane SIMD layer (util/simd.h) and the
 * canonical-kernel contract it underwrites:
 *
 *  - pack ops and the expNonPositive/logPositive pair are bit-exact
 *    against their scalar-lane twins on every backend (including the
 *    REASON_FORCE_SCALAR fallback — the CI leg builds this file both
 *    ways);
 *  - the transcendentals meet their documented accuracy contracts
 *    against libm;
 *  - masked loads/stores, fixed-shape reductions and addInto behave
 *    exactly as specified;
 *  - batched circuit evaluation is bit-identical to the single-row
 *    walk for every batch size (tail/remainder lanes) and thread
 *    count, and stays within 1e-10 of the seed reference walker;
 *  - the exponent-tracked linear domain of the root-pass kernel holds
 *    at its edges: wide products, terms too far apart to align, tiny
 *    and subnormal masses, exact zeros, and log values below the
 *    double range;
 *  - the flow-pass block kernel adds, for every row, the bits a lone
 *    row adds, whatever its lane, block fill or kernel table, and its
 *    flows stay within 1e-10 of the seed walker at the domain's edges.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "logic/cnf.h"
#include "pc/flat_pc.h"
#include "pc/flows.h"
#include "pc/from_logic.h"
#include "pc/pc.h"
#include "random_circuit.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

using namespace reason;

namespace {

uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

/** Relative error in units in the last place of the reference. */
double
ulpError(double got, double want)
{
    if (got == want)
        return 0.0;
    const double ulp = std::ldexp(1.0, std::ilogb(want) - 52);
    return std::fabs(got - want) / ulp;
}

std::vector<pc::Assignment>
randomAssignments(Rng &rng, const pc::Circuit &c, size_t count,
                  double missing_prob)
{
    std::vector<pc::Assignment> xs(count);
    for (auto &x : xs) {
        x.resize(c.numVars());
        for (uint32_t v = 0; v < c.numVars(); ++v)
            x[v] = rng.bernoulli(missing_prob)
                       ? pc::kMissing
                       : uint32_t(rng.uniformInt(0, c.arity() - 1));
    }
    return xs;
}

/**
 * Run `flat`'s slot program over `xs` with kernel table `t`, one block
 * of 8 rows at a time (a tail block repeats its last row), and return
 * output 0 of every row.
 */
std::vector<double>
runTable(const simd::KernelTable &t, const pc::FlatCircuit &flat,
         const std::vector<pc::Assignment> &xs)
{
    const simd::SlotProgram view = flat.programView();
    std::vector<double> slots(
        std::max<size_t>(view.numSlots, 1) * simd::SlotProgram::kSlotDoubles);
    std::vector<double> vals(view.numOutputs * simd::kLanes);
    std::vector<double> got(xs.size());
    const uint32_t *rows[simd::kLanes];
    for (size_t base = 0; base < xs.size(); base += simd::kLanes) {
        const size_t n = std::min(simd::kLanes, xs.size() - base);
        for (size_t i = 0; i < simd::kLanes; ++i)
            rows[i] = xs[base + std::min(i, n - 1)].data();
        EXPECT_TRUE(t.runSlotProgram(view, rows, slots.data(), vals.data()));
        for (size_t i = 0; i < n; ++i)
            got[base + i] = vals[i];
    }
    return got;
}

/**
 * The root-pass contracts on one circuit: the single-row pass agrees
 * (given `seed`) with the seed walker to 1e-10, exact zeros are exactly
 * -inf, and every batch shape and kernel table reproduces the
 * single-row bits.  Returns the single-row values.
 */
std::vector<double>
expectRootPassContracts(const pc::FlatCircuit &flat,
                        const std::vector<pc::Assignment> &xs,
                        const pc::Circuit *seed)
{
    util::ThreadPool serial(1);
    pc::CircuitEvaluator eval(flat, &serial);
    std::vector<double> want(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
        want[i] = eval.logLikelihood(xs[i]);
        if (seed != nullptr) {
            const double ref = seed->logLikelihood(xs[i]);
            if (ref == kLogZero)
                EXPECT_EQ(want[i], kLogZero) << "row " << i;
            else
                EXPECT_NEAR(want[i], ref, 1e-10) << "row " << i;
        }
    }
    for (size_t n : {size_t(1), size_t(3), size_t(8), size_t(13),
                     xs.size()}) {
        n = std::min(n, xs.size());
        std::vector<pc::Assignment> rows(xs.begin(), xs.begin() + long(n));
        std::vector<double> got(n);
        eval.logLikelihoodBatch(rows, got);
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(bits(got[i]), bits(want[i]))
                << "batch=" << n << " row=" << i;
    }
    const simd::KernelTable *tables[8];
    const size_t count = simd::runnableKernelTables(tables, 8);
    for (size_t t = 0; t < count; ++t) {
        const std::vector<double> got = runTable(*tables[t], flat, xs);
        for (size_t i = 0; i < xs.size(); ++i)
            EXPECT_EQ(bits(got[i]), bits(want[i]))
                << tables[t]->isa << " row " << i;
    }
    return want;
}

} // namespace

TEST(SimdPack, LaneOpsMatchScalarBitwise)
{
    Rng rng(11);
    for (int iter = 0; iter < 2000; ++iter) {
        double a[simd::kLanes], b[simd::kLanes], out[simd::kLanes];
        for (size_t i = 0; i < simd::kLanes; ++i) {
            a[i] = rng.uniformReal(-1e3, 1e3);
            b[i] = rng.uniformReal(-1e3, 1e3);
            if (rng.bernoulli(0.1))
                a[i] = kLogZero;
        }
        const simd::Pack pa = simd::load(a);
        const simd::Pack pb = simd::load(b);

        simd::store(out, simd::add(pa, pb));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(bits(out[i]), bits(a[i] + b[i]));
        simd::store(out, simd::sub(pa, pb));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(bits(out[i]), bits(a[i] - b[i]));
        simd::store(out, simd::mul(pa, pb));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(bits(out[i]), bits(a[i] * b[i]));
        simd::store(out, simd::div(pa, pb));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(bits(out[i]), bits(a[i] / b[i]));
        simd::store(out, simd::max(pa, pb));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(out[i], a[i] > b[i] ? a[i] : b[i]);
        simd::store(out, simd::min(pa, pb));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(out[i], a[i] < b[i] ? a[i] : b[i]);
        simd::store(out, simd::select(simd::cmpGt(pa, pb), pa, pb));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(out[i], a[i] > b[i] ? a[i] : b[i]);
    }
}

TEST(SimdPack, ExpNonPositiveBitExactWithScalarTwin)
{
    Rng rng(13);
    for (int iter = 0; iter < 20000; ++iter) {
        double in[simd::kLanes], out[simd::kLanes];
        for (size_t i = 0; i < simd::kLanes; ++i) {
            in[i] = rng.uniformReal(-750.0, 0.3);
            if (rng.bernoulli(0.05))
                in[i] = kLogZero; // clamp region
            if (rng.bernoulli(0.05))
                in[i] = 0.0;
        }
        simd::store(out, simd::expNonPositive(simd::load(in)));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(bits(out[i]), bits(fastExpNonPositive(in[i])))
                << "x=" << in[i];
    }
    // Exactness anchors of the accuracy contract.
    double x[simd::kLanes] = {0.0, -1.0, -0.5, -708.0,
                              kLogZero, -1e-300, -20.0, -100.0};
    double out[simd::kLanes];
    simd::store(out, simd::expNonPositive(simd::load(x)));
    EXPECT_EQ(out[0], 1.0); // exp(0) must be exactly 1
    EXPECT_GT(out[4], 0.0); // clamped, never flushed to zero
}

TEST(SimdPack, LogPositiveBitExactWithScalarTwinAndAccurate)
{
    Rng rng(17);
    double max_ulp = 0.0;
    for (int iter = 0; iter < 20000; ++iter) {
        double in[simd::kLanes], out[simd::kLanes];
        for (size_t i = 0; i < simd::kLanes; ++i) {
            switch (iter % 3) {
              case 0: // the logsumexp accumulator regime: [1, fan-in]
                in[i] = 1.0 + rng.uniformReal(0.0, 4000.0);
                break;
              case 1: // tiny positives from clamped exp sums
                in[i] = 5e-308 * (1.0 + rng.uniformReal(0.0, 1.0));
                break;
              default: // broad normal range
                in[i] = std::ldexp(1.0 + rng.uniformReal(0.0, 1.0),
                                   int(rng.uniformInt(-900, 900)));
                break;
            }
        }
        simd::store(out, simd::logPositive(simd::load(in)));
        for (size_t i = 0; i < simd::kLanes; ++i) {
            EXPECT_EQ(bits(out[i]), bits(simd::fastLogPositive(in[i])))
                << "x=" << in[i];
            const double want = std::log(in[i]);
            if (std::fabs(want) > 1e-12)
                max_ulp = std::max(max_ulp, ulpError(out[i], want));
        }
    }
    // Documented contract: < 2 ulp over positive finite normals.
    EXPECT_LT(max_ulp, 2.0);
    // log(1) must be exactly +0 (the single-term logsumexp identity).
    EXPECT_EQ(bits(simd::fastLogPositive(1.0)), bits(0.0));
}

TEST(SimdPack, ReductionsUseTheFixedTreeShape)
{
    double v[simd::kLanes] = {1e16, 1.0, -1e16, 1.0, 0.5, 0.25, -0.5,
                              2.0};
    const simd::Pack p = simd::load(v);
    const double want = ((v[0] + v[1]) + (v[2] + v[3])) +
                        ((v[4] + v[5]) + (v[6] + v[7]));
    EXPECT_EQ(bits(simd::reduceAdd(p)), bits(want));
    EXPECT_EQ(simd::reduceMax(p), 1e16);
    EXPECT_EQ(simd::reduceMin(p), -1e16);
}

TEST(SimdPack, MaskedLoadStoreTouchOnlyLiveLanes)
{
    double src[simd::kLanes] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (size_t n = 0; n <= simd::kLanes; ++n) {
        double out[simd::kLanes];
        simd::store(out, simd::loadN(src, n, -9.0));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(out[i], i < n ? src[i] : -9.0) << "n=" << n;
        double sink[simd::kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
        simd::storeN(sink, n, simd::load(src));
        for (size_t i = 0; i < simd::kLanes; ++i)
            EXPECT_EQ(sink[i], i < n ? src[i] : 0.0) << "n=" << n;
    }
}

TEST(SimdKernels, AddIntoMatchesScalarLoop)
{
    Rng rng(27);
    for (size_t n : {size_t(0), size_t(3), size_t(8), size_t(29)}) {
        std::vector<double> dst(n), src(n), want(n);
        for (size_t i = 0; i < n; ++i) {
            dst[i] = rng.uniformReal(-5.0, 5.0);
            src[i] = rng.uniformReal(-5.0, 5.0);
            want[i] = dst[i] + src[i];
        }
        simd::addInto(dst.data(), src.data(), n);
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(bits(dst[i]), bits(want[i]));
    }
}

// ---------------------------------------------------------------------------
// Runtime ISA dispatch (util/simd_dispatch.h): every kernel table the
// host can run — the compile-time baseline plus any CPUID-gated
// wide-ISA tables the binary carries — must agree bit for bit on the
// same inputs, and the active table must be one of them.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, AllRunnableKernelTablesAgreeBitwise)
{
    const simd::KernelTable *tables[8];
    const size_t count = simd::runnableKernelTables(tables, 8);
    ASSERT_GE(count, 1u);
    // Baseline first, and it is the compile-time backend.
    EXPECT_STREQ(tables[0]->isa, simd::isaName());

    // The slot-program kernel on a real circuit's program, with
    // partial rows.
    Rng crng(43);
    const pc::Circuit circuit = pc::randomCircuit(crng, 24, 3, 3, 6);
    const pc::FlatCircuit flat(circuit);
    const std::vector<pc::Assignment> rows =
        randomAssignments(crng, circuit, 40, 0.3);
    const std::vector<double> slot0 = runTable(*tables[0], flat, rows);
    for (size_t t = 1; t < count; ++t) {
        const std::vector<double> slot = runTable(*tables[t], flat, rows);
        for (size_t i = 0; i < rows.size(); ++i)
            EXPECT_EQ(bits(slot[i]), bits(slot0[i]))
                << tables[t]->isa << " row " << i;
    }

    Rng rng(41);
    for (int iter = 0; iter < 500; ++iter) {
        const size_t n = size_t(rng.uniformInt(0, 40));
        std::vector<double> xs(std::max<size_t>(n, 1));
        std::vector<double> scale(xs.size());
        for (size_t i = 0; i < n; ++i) {
            xs[i] = rng.bernoulli(0.25) ? kLogZero
                                        : rng.uniformReal(-80.0, 0.0);
            scale[i] = rng.uniformReal(0.0, 2.0);
        }

        std::vector<double> add0(xs.begin(), xs.end());
        tables[0]->addInto(add0.data(), scale.data(), n);

        for (size_t t = 1; t < count; ++t) {
            std::vector<double> add(xs.begin(), xs.end());
            tables[t]->addInto(add.data(), scale.data(), n);
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(bits(add[i]), bits(add0[i]))
                    << tables[t]->isa << " lane " << i;
        }
    }
}

TEST(SimdDispatch, ActiveTableIsARunnableTable)
{
    const simd::KernelTable *tables[8];
    const size_t count = simd::runnableKernelTables(tables, 8);
    const simd::KernelTable &active = simd::activeKernels();
    EXPECT_STREQ(active.isa, simd::activeIsaName());
    bool found = false;
    for (size_t i = 0; i < count; ++i)
        found = found || tables[i] == &active;
    EXPECT_TRUE(found);
#if defined(REASON_FORCE_SCALAR)
    // The scalar CI leg carries no wide tables by design.
    EXPECT_EQ(count, 1u);
    EXPECT_STREQ(active.isa, "scalar");
#endif
}

TEST(SimdProvenance, IsaNameAndFeaturesAreReported)
{
    const char *isa = simd::isaName();
    ASSERT_NE(isa, nullptr);
    EXPECT_GT(simd::nativeLanes(), 0u);
#if defined(REASON_FORCE_SCALAR)
    EXPECT_STREQ(isa, "scalar");
    EXPECT_EQ(simd::nativeLanes(), 1u);
#endif
    ASSERT_NE(simd::cpuFeatures(), nullptr);
    EXPECT_GT(std::string(simd::cpuFeatures()).size(), 0u);
}

// ---------------------------------------------------------------------------
// The canonical-kernel contract on a real circuit: every batch shape
// (tails included) and thread count must reproduce the single-row
// walk bit for bit, and the whole family must stay within 1e-10 of
// the seed reference walker.
// ---------------------------------------------------------------------------

TEST(SimdCircuit, EveryBatchShapeBitIdenticalToSingleRowWalk)
{
    Rng rng(31);
    pc::Circuit c = pc::randomCircuit(rng, 48, 3, 4, 8);
    pc::FlatCircuit flat(c);
    auto xs = randomAssignments(rng, c, 21, 0.25);

    util::ThreadPool serial(1);
    pc::CircuitEvaluator row_eval(flat, &serial);
    std::vector<double> want(xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        want[i] = row_eval.logLikelihood(xs[i]);

    for (unsigned threads : {1u, 2u, 4u}) {
        util::ThreadPool pool(threads);
        pc::CircuitEvaluator eval(flat, &pool);
        // Every batch size from a lone row through full blocks plus
        // every tail remainder.
        for (size_t n = 1; n <= xs.size(); ++n) {
            std::vector<pc::Assignment> rows(xs.begin(),
                                             xs.begin() + n);
            std::vector<double> got(n);
            eval.logLikelihoodBatch(rows, got);
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(bits(got[i]), bits(want[i]))
                    << "batch=" << n << " row=" << i
                    << " threads=" << threads;
        }
    }
}

TEST(SimdCircuit, BatchStaysWithinDifferentialContractOfSeedWalker)
{
    Rng rng(37);
    pc::Circuit c = pc::randomCircuit(rng, 40, 2, 4, 8);
    pc::FlatCircuit flat(c);
    auto xs = randomAssignments(rng, c, 33, 0.2);

    util::ThreadPool serial(1);
    pc::CircuitEvaluator eval(flat, &serial);
    std::vector<double> got(xs.size());
    eval.logLikelihoodBatch(xs, got);
    for (size_t i = 0; i < xs.size(); ++i) {
        const double want = c.logLikelihood(xs[i]);
        if (want == kLogZero)
            EXPECT_EQ(got[i], kLogZero);
        else
            EXPECT_NEAR(got[i], want, 1e-10) << "row " << i;
    }
}

// ---------------------------------------------------------------------------
// The exponent-tracked linear domain at its edges (simd::runSlotProgram):
// each case checks the full root-pass contract set of
// expectRootPassContracts — seed walker, batch shapes and every kernel
// table.
// ---------------------------------------------------------------------------

TEST(LinearRootPass, WideProductRenormalizesItsMantissas)
{
    // 1,200 leaves at probability 0.999: each mantissa is 1.998, so
    // their product overflows 2^1024 unless it is renormalized on the
    // way.  The product is the root, and also sits under a sum.
    constexpr uint32_t kVars = 1200;
    pc::Circuit c(kVars, 2);
    std::vector<pc::NodeId> hot, cold;
    for (uint32_t v = 0; v < kVars; ++v) {
        hot.push_back(c.addLeaf(v, {0.999, 0.001}));
        cold.push_back(c.addLeaf(v, {0.75, 0.25}));
    }
    const pc::NodeId wide = c.addProduct(hot);
    const pc::NodeId other = c.addProduct(cold);
    c.addSum({wide, other}, {0.5, 0.5});
    pc::Circuit product_root(kVars, 2);
    std::vector<pc::NodeId> leaves;
    for (uint32_t v = 0; v < kVars; ++v)
        leaves.push_back(product_root.addLeaf(v, {0.999, 0.001}));
    product_root.addProduct(leaves);

    Rng rng(5);
    std::vector<pc::Assignment> xs =
        randomAssignments(rng, c, 11, 0.1);
    xs.push_back(pc::Assignment(kVars, 0));
    xs.push_back(pc::Assignment(kVars, pc::kMissing));
    for (const pc::Circuit *circuit : {&c, &product_root}) {
        const pc::FlatCircuit flat(*circuit);
        const std::vector<double> got =
            expectRootPassContracts(flat, xs, circuit);
        // All-zero rows: 1,200 * log(0.999), far from any overflow.
        EXPECT_NEAR(got[11], (circuit == &c ? std::log(0.5) : 0.0) +
                                 kVars * std::log(0.999),
                    circuit == &c ? 1e-3 : 1e-9);
    }
}

TEST(LinearRootPass, TermsTooFarApartFlushToExactZero)
{
    // Five leaves at 1e-300 make a product near 2^-4983; summed with a
    // leaf near 1, the aligned term sits ~2^4982 below the other and
    // must flush to exactly 0 — in either edge order — while the
    // product alone stays exact.
    pc::Circuit c(8, 2);
    std::vector<pc::NodeId> tiny;
    for (uint32_t v = 0; v < 5; ++v)
        tiny.push_back(c.addLeaf(v, {1e-300, 1.0}));
    const pc::NodeId p = c.addProduct(tiny);
    const pc::NodeId l = c.addLeaf(5, {0.5, 0.5});
    const pc::NodeId near_one = c.addLeaf(6, {1.0 - 1e-9, 1e-9});
    const pc::NodeId s1 = c.addSum({p, l}, {0.5, 0.5});
    const pc::NodeId s2 = c.addSum({l, p}, {0.25, 0.75});
    // A sum whose terms are both tiny but close: alignment, no flush.
    const pc::NodeId s3 = c.addSum({p, c.addProduct({p, near_one})},
                                   {0.5, 0.5});
    c.addProduct({s1, s2, s3, c.addLeaf(7, {0.3, 0.7})});

    Rng rng(9);
    std::vector<pc::Assignment> xs = randomAssignments(rng, c, 14, 0.2);
    xs.push_back(pc::Assignment(8, 0));
    xs.push_back(pc::Assignment(8, pc::kMissing));
    const pc::FlatCircuit flat(c);
    const std::vector<double> got = expectRootPassContracts(flat, xs, &c);
    EXPECT_LT(got[14], -3400.0); // s3 keeps its ~2^-4983 scale
}

TEST(LinearRootPass, SubnormalAndTinyMassesKeepTheirValue)
{
    // Weights and leaf probabilities near and below the smallest
    // normal double, as in a mixture's decaying tail.
    pc::Circuit c(4, 2);
    const pc::NodeId a = c.addLeaf(0, {1e-310, 1.0});
    const pc::NodeId b = c.addLeaf(1, {4.9e-324, 1.0});
    const pc::NodeId d = c.addLeaf(2, {1e-300, 1.0});
    const pc::NodeId e = c.addLeaf(3, {0.5, 0.5});
    const pc::NodeId s = c.addSum({a, b, d, e},
                                  {5e-324, 1e-300, 1e-310, 1.0});
    const pc::NodeId t = c.addSum({c.addProduct({a, b}), e},
                                  {1.0, 2.2250738585072014e-308});
    c.addProduct({s, t});

    Rng rng(13);
    std::vector<pc::Assignment> xs = randomAssignments(rng, c, 20, 0.2);
    xs.push_back(pc::Assignment(4, 0));
    const pc::FlatCircuit flat(c);
    expectRootPassContracts(flat, xs, &c);
}

TEST(LinearRootPass, ZeroMassIsExactlyMinusInfinity)
{
    pc::Circuit c(3, 2);
    const pc::NodeId a = c.addLeaf(0, {1.0, 0.0});
    const pc::NodeId b = c.addLeaf(1, {1.0, 0.0});
    const pc::NodeId all_zero = c.addSum({a, b}, {0.3, 0.7});
    const pc::NodeId zero_child = c.addProduct({a, c.addLeaf(2, {0.5, 0.5})});
    // A zero-weight edge carries no mass: dropped from the program.
    const pc::NodeId zero_weight = c.addSum({all_zero, zero_child, b},
                                            {0.0, 0.5, 0.5});
    c.addSum({all_zero, zero_weight}, {0.5, 0.5});
    const pc::FlatCircuit flat(c);
    std::vector<pc::Assignment> xs = {
        {1, 1, 0}, {1, 1, pc::kMissing}, {0, 0, 1}, {1, 0, 0},
        {pc::kMissing, 1, 1}, {0, 1, 0}, {1, 1, 1}, {0, 0, 0}, {1, 0, 1}};
    const std::vector<double> got = expectRootPassContracts(flat, xs, &c);
    EXPECT_EQ(got[0], kLogZero);
    EXPECT_EQ(got[1], kLogZero);
    EXPECT_NE(got[2], kLogZero);

    // A sum whose every edge weight is zero, built directly.
    pc::FlatCircuit direct;
    direct.numVars = 1;
    direct.arity = 2;
    direct.types = {pc::FlatCircuit::kLeaf, pc::FlatCircuit::kSum};
    direct.leafSlot = {0, pc::kInvalidNode};
    direct.leafVar = {0};
    direct.leafLogDist = {std::log(0.5), std::log(0.5)};
    direct.edgeOffset = {0, 0, 1};
    direct.edgeTarget = {0};
    direct.edgeLogWeight = {kLogZero};
    direct.root = 1;
    direct.finalizeTopology();
    for (double v :
         expectRootPassContracts(direct, {{0}, {1}, {pc::kMissing}}, nullptr))
        EXPECT_EQ(v, kLogZero);

    // An UNSAT formula's WMC circuit is constant false.
    logic::CnfFormula unsat(2);
    unsat.addClause({1});
    unsat.addClause({-1, 2});
    unsat.addClause({-2});
    EXPECT_EQ(pc::flatLogWmc(pc::compileCnfFlat(unsat)), kLogZero);
    logic::CnfFormula sat(2);
    sat.addClause({1, 2});
    EXPECT_NEAR(pc::flatLogWmc(pc::compileCnfFlat(sat)), std::log(0.75),
                1e-12);
}

TEST(LinearRootPass, LogProbabilitiesBelowTheDoubleRange)
{
    // The serving workload's shape: 1,500 variables, |log p| ~ 1,000,
    // so p itself is far below the smallest double.
    Rng rng(2024);
    const pc::Circuit c = pc::randomCircuit(rng, 1500, 2, 8, 16);
    const pc::FlatCircuit flat(c);
    std::vector<pc::Assignment> xs = pc::sampleDataset(rng, c, 13);
    const std::vector<double> got = expectRootPassContracts(flat, xs, &c);
    for (double v : got)
        EXPECT_LT(v, -745.0);
}

// ---------------------------------------------------------------------------
// The flow-pass block kernel (simd::runFlowBlock): one row adds the same
// bits alone, at any lane of a full or tail block, in any batch shape,
// and on every kernel table; flows match the seed walker (computeFlows)
// within 1e-10 where the linear domain is stretched.
// ---------------------------------------------------------------------------

namespace {

/** Flow totals and per-row root log values of one accumulation. */
struct Flows
{
    std::vector<double> edge, node, leaf, rowLog;

    explicit Flows(const pc::FlatCircuit &flat)
        : edge(flat.numEdges(), 0.0), node(flat.numNodes(), 0.0),
          leaf(flat.numLeaves() * flat.arity, 0.0)
    {
    }
};

/** A block scratch for `flat`: nodes without flow read 0 (product) or
 *  -inf (sum). */
std::vector<double>
flowScratch(const pc::FlatCircuit &flat)
{
    const size_t slots =
        flat.program.numSlots * simd::SlotProgram::kSlotDoubles;
    std::vector<double> scratch(slots + flat.numNodes() * simd::kLanes, 0.0);
    for (size_t i = 0; i < flat.numNodes(); ++i)
        if (flat.types[i] == pc::FlatCircuit::kSum)
            std::fill_n(scratch.begin() + long(slots + i * simd::kLanes),
                        simd::kLanes, kLogZero);
    return scratch;
}

/** One block through table `t`: lane i reads block[i], and the first
 *  `live` lanes add into `f`. */
void
runFlowBlock(const simd::KernelTable &t, const pc::FlatCircuit &flat,
             const std::vector<const pc::Assignment *> &block, size_t live,
             std::vector<double> &scratch, Flows &f)
{
    const simd::FlowProgram view = flat.flowView();
    const simd::FlowTotals totals{f.edge.data(), f.node.data(),
                                  f.leaf.data()};
    const uint32_t *rows[simd::kLanes];
    for (size_t i = 0; i < simd::kLanes; ++i)
        rows[i] = block[i]->data();
    double root[simd::kLanes];
    EXPECT_TRUE(t.runFlowBlock(view, rows, live, scratch.data(), root,
                               totals));
    f.rowLog.insert(f.rowLog.end(), root, root + live);
}

/** Rows through table `t` in blocks of 8; a tail block repeats its last
 *  row in the spare lanes. */
Flows
runFlowTable(const simd::KernelTable &t, const pc::FlatCircuit &flat,
             const std::vector<pc::Assignment> &xs)
{
    Flows f(flat);
    std::vector<double> scratch = flowScratch(flat);
    std::vector<const pc::Assignment *> block(simd::kLanes);
    for (size_t base = 0; base < xs.size(); base += simd::kLanes) {
        const size_t n = std::min(simd::kLanes, xs.size() - base);
        for (size_t i = 0; i < simd::kLanes; ++i)
            block[i] = &xs[base + std::min(i, n - 1)];
        runFlowBlock(t, flat, block, n, scratch, f);
    }
    return f;
}

::testing::AssertionResult
sameBits(const std::vector<double> &got, const std::vector<double> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << "size " << got.size() << " vs " << want.size();
    for (size_t i = 0; i < got.size(); ++i)
        if (bits(got[i]) != bits(want[i]))
            return ::testing::AssertionFailure()
                   << "index " << i << ": " << got[i] << " vs " << want[i];
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameFlows(const Flows &got, const pc::FlowAccumulator &want)
{
    ::testing::AssertionResult r = sameBits(got.edge, want.edgeFlow());
    if (r)
        r = sameBits(got.node, want.nodeFlow());
    if (r)
        r = sameBits(got.leaf, want.leafValueFlow());
    return r;
}

/**
 * A random test circuit (random_circuit.h: zero leaves, zero-weight
 * edges, shared and non-decomposable sub-DAGs) gated by a leaf on
 * variable 0 with mass only on value 0, so any row with x[0] == 1 has
 * probability zero and adds exactly nothing.
 */
pc::Circuit
gatedTestCircuit(Rng &rng)
{
    pc::Circuit c = testutil::randomTestCircuit(rng);
    std::vector<double> gate(c.arity(), 0.0);
    gate[0] = 1.0;
    c.markRoot(c.addProduct({c.root(), c.addLeaf(0, gate)}));
    return c;
}

/**
 * Flows of `xs` through every runnable kernel table, and through
 * FlowAccumulator, against the seed walker: every node and edge within
 * 1e-10, and every reference flow below `tiny` stays below it.
 */
void
expectFlowsMatchSeedWalker(const pc::Circuit &c,
                           const std::vector<pc::Assignment> &xs,
                           double tiny)
{
    const pc::FlatCircuit flat(c);
    std::vector<double> node_ref(c.numNodes(), 0.0);
    std::vector<double> edge_ref(flat.numEdges(), 0.0);
    for (const pc::Assignment &x : xs) {
        const pc::EdgeFlows one = pc::computeFlows(c, x);
        for (size_t i = 0; i < c.numNodes(); ++i) {
            node_ref[i] += one.nodeFlows[i];
            for (size_t k = 0; k < one.flows[i].size(); ++k)
                edge_ref[flat.edgeOffset[i] + k] += one.flows[i][k];
        }
    }
    const auto expectNear = [&](double got, double want, const char *what,
                                size_t i, const char *isa) {
        EXPECT_NEAR(got, want, 1e-10) << isa << " " << what << " " << i;
        if (want < tiny) {
            EXPECT_LT(got, tiny) << isa << " " << what << " " << i;
        }
    };
    pc::FlowAccumulator acc(flat);
    for (const pc::Assignment &x : xs)
        acc.add(x);
    const simd::KernelTable *tables[8];
    const size_t count = simd::runnableKernelTables(tables, 8);
    for (size_t t = 0; t < count; ++t) {
        const Flows f = runFlowTable(*tables[t], flat, xs);
        EXPECT_TRUE(sameFlows(f, acc)) << tables[t]->isa;
        for (size_t i = 0; i < c.numNodes(); ++i)
            expectNear(f.node[i], node_ref[i], "node", i, tables[t]->isa);
        for (size_t e = 0; e < flat.numEdges(); ++e)
            expectNear(f.edge[e], edge_ref[e], "edge", e, tables[t]->isa);
    }
}

} // namespace

TEST(FlowBlock, EveryLaneFillAndTableAddsTheBitsOfALoneRow)
{
    Rng rng(61);
    const simd::KernelTable *tables[8];
    const size_t count = simd::runnableKernelTables(tables, 8);
    util::ThreadPool serial(1);
    size_t possible_rows = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const pc::Circuit c = gatedTestCircuit(rng);
        const pc::FlatCircuit flat(c);
        pc::CircuitEvaluator eval(flat, &serial);
        std::vector<pc::Assignment> xs =
            testutil::randomPartialAssignments(rng, c, 4, 0.25);
        pc::Assignment filler(c.numVars(), pc::kMissing);
        filler[0] = 1; // probability zero: adds exactly 0
        std::vector<double> scratch = flowScratch(flat);
        for (pc::Assignment &x : xs) {
            x[0] = rng.bernoulli(0.5) ? 0 : pc::kMissing;
            pc::FlowAccumulator alone(flat);
            alone.add(x);
            const double ll = eval.logLikelihood(x);
            possible_rows += ll != kLogZero;
            for (size_t t = 0; t < count; ++t)
                for (size_t lane = 0; lane < simd::kLanes; ++lane)
                    for (size_t live : {lane + 1, simd::kLanes}) {
                        std::vector<const pc::Assignment *> block(
                            simd::kLanes, &filler);
                        block[lane] = &x;
                        Flows f(flat);
                        runFlowBlock(*tables[t], flat, block, live, scratch,
                                     f);
                        EXPECT_TRUE(sameFlows(f, alone))
                            << tables[t]->isa << " trial " << trial
                            << " lane " << lane << " live " << live;
                        EXPECT_EQ(bits(f.rowLog[lane]), bits(ll))
                            << tables[t]->isa << " lane " << lane;
                    }
        }
    }
    EXPECT_GT(possible_rows, 80u); // most rows carry flow
}

TEST(FlowBlock, EveryBatchShapeIsTheLeftFoldOfSingleRows)
{
    Rng rng(67);
    const simd::KernelTable *tables[8];
    const size_t count = simd::runnableKernelTables(tables, 8);
    util::ThreadPool serial(1);
    for (int trial = 0; trial < 12; ++trial) {
        const pc::Circuit c = trial % 3 == 0
                                  ? pc::randomCircuit(rng, 24, 3, 3, 6)
                                  : gatedTestCircuit(rng);
        const pc::FlatCircuit flat(c);
        const std::vector<pc::Assignment> xs =
            testutil::randomPartialAssignments(rng, c, 17, 0.25);
        pc::CircuitEvaluator eval(flat, &serial);
        std::vector<double> want_ll(xs.size());
        eval.logLikelihoodBatch(xs, want_ll);
        for (size_t n = 1; n <= xs.size(); ++n) {
            // Rotating the rows puts each of them at every lane.
            for (size_t shift : {size_t(0), n / 2}) {
                std::vector<pc::Assignment> rows;
                std::vector<double> rows_ll;
                for (size_t i = 0; i < n; ++i) {
                    rows.push_back(xs[(i + shift) % n]);
                    rows_ll.push_back(want_ll[(i + shift) % n]);
                }
                pc::FlowAccumulator fold(flat);
                for (const pc::Assignment &x : rows)
                    fold.add(x);
                const pc::DatasetFlows got =
                    pc::accumulateDatasetFlows(flat, rows, {1, true},
                                               &serial);
                EXPECT_TRUE(sameBits(got.edgeFlow, fold.edgeFlow()))
                    << "batch " << n << " shift " << shift;
                EXPECT_TRUE(sameBits(got.nodeFlow, fold.nodeFlow()));
                EXPECT_TRUE(sameBits(got.leafValueFlow, fold.leafValueFlow()));
                EXPECT_TRUE(sameBits(got.logLikelihood, rows_ll))
                    << "batch " << n << " shift " << shift;
                for (size_t t = 0; t < count; ++t) {
                    const Flows f = runFlowTable(*tables[t], flat, rows);
                    EXPECT_TRUE(sameFlows(f, fold))
                        << tables[t]->isa << " batch " << n;
                    EXPECT_TRUE(sameBits(f.rowLog, rows_ll))
                        << tables[t]->isa << " batch " << n;
                }
            }
        }
    }
}

TEST(FlowBlock, FlowsMatchSeedWalkerBelowTheDoubleRange)
{
    // LinearRootPass.LogProbabilitiesBelowTheDoubleRange's circuit:
    // every root and most node values are far below the smallest double.
    // Six rows: one tail block.
    Rng rng(2024);
    const pc::Circuit c = pc::randomCircuit(rng, 1500, 2, 8, 16);
    const std::vector<pc::Assignment> xs = pc::sampleDataset(rng, c, 6);
    expectFlowsMatchSeedWalker(c, xs, 0.0);
}

TEST(FlowBlock, ZeroMassLeavesAndZeroWeightEdgesCarryNoFlow)
{
    pc::Circuit c(3, 3);
    const pc::NodeId a = c.addLeaf(0, {0.5, 0.0, 0.5});
    const pc::NodeId b = c.addLeaf(1, {0.0, 1.0, 0.0});
    const pc::NodeId d = c.addLeaf(2, {0.2, 0.3, 0.5});
    const pc::NodeId e = c.addLeaf(0, {0.0, 0.0, 1.0});
    const pc::NodeId p = c.addProduct({a, b});
    const pc::NodeId q = c.addProduct({e, d});
    // A zero-weight edge (set past addSum's normalization) into a node
    // only it reaches, and a sum whose every weight is zero.
    const pc::NodeId only_zero = c.addProduct({e, b});
    const pc::NodeId s = c.addSum({p, only_zero, q}, {0.5, 0.25, 0.25});
    c.mutableNode(s).weights = {0.5, 0.0, 0.5};
    const pc::NodeId dead = c.addSum({p, q}, {0.5, 0.5});
    c.mutableNode(dead).weights = {0.0, 0.0};
    c.markRoot(c.addSum({s, dead, d}, {0.5, 0.25, 0.25}));
    std::vector<pc::Assignment> xs;
    for (uint32_t v0 : {0u, 1u, 2u, pc::kMissing})
        for (uint32_t v1 : {0u, 1u, pc::kMissing})
            for (uint32_t v2 : {1u, pc::kMissing})
                xs.push_back({v0, v1, v2});
    expectFlowsMatchSeedWalker(c, xs, 0.0);
    pc::FlatCircuit flat(c);
    pc::FlowAccumulator acc(flat);
    for (const pc::Assignment &x : xs)
        acc.add(x);
    EXPECT_EQ(acc.nodeFlow()[only_zero], 0.0);
    EXPECT_EQ(acc.nodeFlow()[dead], 0.0);
    EXPECT_EQ(acc.edgeFlow()[flat.edgeOffset[s] + 1], 0.0);
}

TEST(FlowBlock, SubnormalSumFlowDoesNotInflateItsChildren)
{
    // The root gives a sum weight 1e-310, so that sum's flow, and its
    // children's, are subnormal in the seed walker; they must stay that
    // small here (logPositive is out of contract there).
    pc::Circuit c(3, 2);
    const pc::NodeId a = c.addLeaf(0, {0.25, 0.75});
    const pc::NodeId b = c.addLeaf(1, {0.5, 0.5});
    const pc::NodeId tiny_sum =
        c.addSum({c.addProduct({a, b}), c.addLeaf(1, {0.9, 0.1})},
                 {0.5, 0.5});
    const pc::NodeId big = c.addProduct({a, c.addLeaf(2, {0.3, 0.7})});
    c.markRoot(c.addSum({big, tiny_sum}, {1.0, 1e-310}));
    std::vector<pc::Assignment> xs;
    for (uint32_t v0 : {0u, 1u})
        for (uint32_t v1 : {0u, 1u, pc::kMissing})
            xs.push_back({v0, v1, 1});
    expectFlowsMatchSeedWalker(c, xs, 1e-300);
}
