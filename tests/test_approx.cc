/**
 * @file
 * Differential harness for the approximate/anytime tier
 * (pc::ApproxEvaluator, pc::staticUpperBounds) over the adversarial
 * 200-circuit corpus (tests/random_circuit.h: shared sub-DAGs, zero
 * weights and all-zero-weight sums, non-smooth/non-decomposable
 * structure):
 *
 *  - containment: the certified interval [lo, hi] contains the exact
 *    answer of *both* reference engines (seed walker and flat CSR) on
 *    every circuit x budget x query — zero violations tolerated;
 *  - monotonicity: growing the budget only prunes more, so lo weakly
 *    decreases and hi weakly increases along a budget sweep;
 *  - exact-mode identity: budget 0 is bit-identical to the exact
 *    engine, with lo == hi == value;
 *  - determinism: rebuilding the evaluator and re-running the query
 *    reproduces every result bit;
 *  - batching: queryBatch is bit-identical to query() for every batch
 *    shape (per-row, tail, full, split blocks) and worker count.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "pc/approx.h"
#include "pc/flat_pc.h"
#include "pc/pc.h"
#include "random_circuit.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace reason;

namespace {

constexpr int kNumCircuits = 200;

/** Budget sweep, ascending: index 0 is the exact tier. */
constexpr double kBudgets[] = {0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0};

bool
bitsEqual(double x, double y)
{
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

/**
 * Containment with log-zero awareness: a -inf exact answer must be
 * covered too (lo must be -inf, hi anything >=).
 */
::testing::AssertionResult
contains(const pc::ApproxResult &r, double exact)
{
    if (r.lo <= exact && exact <= r.hi)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "exact " << exact << " outside [" << r.lo << ", "
           << r.hi << "]";
}

/** Slack tolerance for cross-budget comparisons: the interval padding
 *  is ~1e-9 relative, so monotonicity holds up to that noise. */
double
monotoneTol(double x, double y)
{
    const double mag =
        std::max(std::isinf(x) ? 0.0 : std::fabs(x),
                 std::isinf(y) ? 0.0 : std::fabs(y));
    return 1e-7 * (1.0 + mag);
}

} // namespace

TEST(ApproxDifferential, BoundsContainExactOnCorpus)
{
    Rng rng(20260801);
    util::ThreadPool serial(1);
    size_t violations = 0;
    size_t checks = 0;
    for (int trial = 0; trial < kNumCircuits; ++trial) {
        pc::Circuit c = testutil::randomTestCircuit(rng);
        pc::FlatCircuit flat(c);
        pc::CircuitEvaluator eval(flat, &serial);
        const std::vector<pc::Assignment> rows =
            testutil::randomPartialAssignments(rng, c, 6, 0.3);
        for (double budget : kBudgets) {
            pc::ApproxOptions opts;
            opts.budget = budget;
            pc::ApproxEvaluator approx(flat, opts);
            for (const pc::Assignment &x : rows) {
                const double exact_flat = eval.logLikelihood(x);
                const double exact_seed = c.logLikelihood(x);
                const pc::ApproxResult r = approx.query(x);
                ++checks;
                if (!(r.lo <= exact_flat && exact_flat <= r.hi) ||
                    !(r.lo <= r.value && r.value <= r.hi))
                    ++violations;
                EXPECT_TRUE(contains(r, exact_flat))
                    << "trial " << trial << " budget " << budget;
                // The seed walker computes in a different order;
                // containment must still hold up to its agreement
                // tolerance with the flat engine (<= 1e-10 per
                // test_flat_random).
                if (exact_seed != kLogZero) {
                    EXPECT_TRUE(r.lo - 1e-9 <= exact_seed &&
                                exact_seed <= r.hi + 1e-9)
                        << "seed walker " << exact_seed
                        << " outside [" << r.lo << ", " << r.hi
                        << "], trial " << trial;
                }
            }
        }
    }
    EXPECT_EQ(violations, 0u);
    // 200 circuits x 6 budgets x 6 rows.
    EXPECT_EQ(checks, size_t(kNumCircuits) * 6 * 6);
}

TEST(ApproxDifferential, IntervalsWidenMonotonicallyWithBudget)
{
    Rng rng(20260802);
    util::ThreadPool serial(1);
    for (int trial = 0; trial < kNumCircuits; ++trial) {
        pc::Circuit c = testutil::randomTestCircuit(rng);
        pc::FlatCircuit flat(c);
        const std::vector<pc::Assignment> rows =
            testutil::randomPartialAssignments(rng, c, 4, 0.3);
        std::vector<pc::ApproxEvaluator> evals;
        for (double budget : kBudgets) {
            pc::ApproxOptions opts;
            opts.budget = budget;
            evals.emplace_back(flat, opts);
        }
        for (const pc::Assignment &x : rows) {
            pc::ApproxResult prev = evals[0].query(x);
            for (size_t b = 1; b < evals.size(); ++b) {
                const pc::ApproxResult r = evals[b].query(x);
                // Larger budget prunes a superset of edges: the kept
                // mass shrinks (lo down) and the certified remainder
                // grows (hi up).
                EXPECT_LE(r.lo, prev.lo + monotoneTol(r.lo, prev.lo))
                    << "trial " << trial << " budget " << kBudgets[b];
                EXPECT_GE(r.hi, prev.hi - monotoneTol(r.hi, prev.hi))
                    << "trial " << trial << " budget " << kBudgets[b];
                prev = r;
            }
        }
    }
}

TEST(ApproxDifferential, BudgetZeroIsBitIdenticalToExact)
{
    Rng rng(20260803);
    util::ThreadPool serial(1);
    for (int trial = 0; trial < kNumCircuits; ++trial) {
        pc::Circuit c = testutil::randomTestCircuit(rng);
        pc::FlatCircuit flat(c);
        pc::CircuitEvaluator eval(flat, &serial);
        pc::ApproxEvaluator approx(flat); // default budget 0
        EXPECT_TRUE(approx.isExact());
        const std::vector<pc::Assignment> rows =
            testutil::randomPartialAssignments(rng, c, 6, 0.3);
        for (const pc::Assignment &x : rows) {
            const double exact = eval.logLikelihood(x);
            const pc::ApproxResult r = approx.query(x);
            EXPECT_TRUE(bitsEqual(r.value, exact)) << "trial " << trial;
            EXPECT_TRUE(bitsEqual(r.lo, exact)) << "trial " << trial;
            EXPECT_TRUE(bitsEqual(r.hi, exact)) << "trial " << trial;
        }
    }
}

TEST(ApproxDifferential, RebuildAndRequeryAreDeterministic)
{
    Rng rng(20260804);
    for (int trial = 0; trial < 50; ++trial) {
        pc::Circuit c = testutil::randomTestCircuit(rng);
        pc::FlatCircuit flat(c);
        const std::vector<pc::Assignment> rows =
            testutil::randomPartialAssignments(rng, c, 4, 0.3);
        for (double budget : {1e-2, 0.5}) {
            pc::ApproxOptions opts;
            opts.budget = budget;
            pc::ApproxEvaluator a(flat, opts);
            pc::ApproxEvaluator b(flat, opts);
            EXPECT_EQ(a.keptNodes(), b.keptNodes());
            EXPECT_EQ(a.keptEdges(), b.keptEdges());
            for (const pc::Assignment &x : rows) {
                const pc::ApproxResult ra1 = a.query(x);
                const pc::ApproxResult ra2 = a.query(x);
                const pc::ApproxResult rb = b.query(x);
                EXPECT_TRUE(bitsEqual(ra1.value, ra2.value));
                EXPECT_TRUE(bitsEqual(ra1.lo, ra2.lo));
                EXPECT_TRUE(bitsEqual(ra1.hi, ra2.hi));
                EXPECT_TRUE(bitsEqual(ra1.value, rb.value));
                EXPECT_TRUE(bitsEqual(ra1.lo, rb.lo));
                EXPECT_TRUE(bitsEqual(ra1.hi, rb.hi));
            }
        }
    }
}

TEST(ApproxDifferential, QueryBatchMatchesSingleQueries)
{
    // A partial block (1, 7); one full block (8), full blocks plus a
    // tail (9, 17), and enough blocks to split across workers (64).
    constexpr size_t kBatchSizes[] = {1, 7, 8, 9, 17, 64};
    const auto same = [](const pc::ApproxResult &a,
                         const pc::ApproxResult &b) {
        return bitsEqual(a.value, b.value) && bitsEqual(a.lo, b.lo) &&
               bitsEqual(a.hi, b.hi);
    };
    Rng rng(20260805);
    util::ThreadPool serial(1);
    util::ThreadPool quad(4);
    for (int trial = 0; trial < 50; ++trial) {
        pc::Circuit c = testutil::randomTestCircuit(rng);
        pc::FlatCircuit flat(c);
        pc::ApproxOptions opts;
        opts.budget = 0.1;
        const std::vector<pc::Assignment> rows =
            testutil::randomPartialAssignments(rng, c, 64, 0.3);
        // Reference: 1-worker single-row queries.
        pc::ApproxEvaluator reference(flat, opts, &serial);
        std::vector<pc::ApproxResult> single;
        for (const pc::Assignment &x : rows)
            single.push_back(reference.query(x));
        for (util::ThreadPool *pool : {&serial, &quad}) {
            pc::ApproxEvaluator approx(flat, opts, pool);
            for (size_t i = 0; i < rows.size(); ++i)
                EXPECT_TRUE(same(approx.query(rows[i]), single[i]))
                    << "trial " << trial << " row " << i << " workers "
                    << pool->numThreads();
            for (size_t size : kBatchSizes) {
                const std::vector<pc::Assignment> xs(
                    rows.begin(), rows.begin() + long(size));
                std::vector<pc::ApproxResult> batch;
                approx.queryBatch(xs, batch);
                ASSERT_EQ(batch.size(), size);
                for (size_t i = 0; i < size; ++i)
                    EXPECT_TRUE(same(batch[i], single[i]))
                        << "trial " << trial << " batch " << size
                        << " row " << i << " workers "
                        << pool->numThreads();
            }
        }
    }
}

TEST(ApproxDifferential, StaticUpperBoundsDominateQueries)
{
    Rng rng(20260807);
    util::ThreadPool serial(1);
    for (int trial = 0; trial < 100; ++trial) {
        pc::Circuit c = testutil::randomTestCircuit(rng);
        pc::FlatCircuit flat(c);
        pc::CircuitEvaluator eval(flat, &serial);
        const std::vector<double> ub = pc::staticUpperBounds(flat);
        ASSERT_EQ(ub.size(), flat.numNodes());
        const std::vector<pc::Assignment> rows =
            testutil::randomPartialAssignments(rng, c, 6, 0.4);
        for (const pc::Assignment &x : rows) {
            const double exact = eval.logLikelihood(x);
            // The static bound is assignment-free: it must dominate
            // every query, including fully marginalized ones.
            EXPECT_GE(ub[flat.root] + 1e-12, exact)
                << "trial " << trial;
        }
    }
}
