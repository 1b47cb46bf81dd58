/**
 * @file
 * Tests for constrained and k-best HMM decoding, validated against
 * brute-force path enumeration on small models: constrained Viterbi,
 * constrained likelihood, constraint satisfaction probability, k-best
 * list Viterbi, and posterior decoding.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "hmm/constrained.h"
#include "hmm/hmm.h"
#include "util/numeric.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::hmm;

namespace {

/** All state paths of the given length. */
std::vector<std::vector<uint32_t>>
allPaths(uint32_t num_states, size_t len)
{
    std::vector<std::vector<uint32_t>> paths;
    uint64_t combos = 1;
    for (size_t t = 0; t < len; ++t)
        combos *= num_states;
    for (uint64_t n = 0; n < combos; ++n) {
        std::vector<uint32_t> path(len);
        uint64_t rem = n;
        for (size_t t = 0; t < len; ++t) {
            path[t] = uint32_t(rem % num_states);
            rem /= num_states;
        }
        paths.push_back(std::move(path));
    }
    return paths;
}

/** log P(path, obs). */
double
pathLogProb(const Hmm &h, const std::vector<uint32_t> &path,
            const Sequence &obs)
{
    auto lp = [](double p) { return p > 0.0 ? std::log(p) : kLogZero; };
    double acc = lp(h.initial(path[0])) + lp(h.emission(path[0], obs[0]));
    for (size_t t = 1; t < path.size(); ++t) {
        acc += lp(h.transition(path[t - 1], path[t]));
        acc += lp(h.emission(path[t], obs[t]));
    }
    return acc;
}

bool
satisfies(const std::vector<uint32_t> &path, const DecodeConstraints &dc)
{
    for (size_t t = 0; t < path.size(); ++t)
        if (!dc.admits(uint32_t(t), path[t]))
            return false;
    return true;
}

} // namespace

struct ConstrainedParam
{
    uint32_t states;
    uint32_t symbols;
    size_t length;
    uint64_t seed;
    bool banded;
};

class ConstrainedSweep : public ::testing::TestWithParam<ConstrainedParam>
{
  protected:
    Hmm
    make() const
    {
        Rng rng(GetParam().seed);
        auto p = GetParam();
        return p.banded ? Hmm::banded(rng, p.states, p.symbols, 1, 0.5)
                        : Hmm::random(rng, p.states, p.symbols);
    }

    Sequence
    observe(const Hmm &h) const
    {
        Rng rng(GetParam().seed + 1);
        Sequence obs;
        h.sample(rng, GetParam().length, &obs);
        return obs;
    }

    DecodeConstraints
    constraints() const
    {
        auto p = GetParam();
        DecodeConstraints dc;
        dc.required.push_back({uint32_t(p.length / 2), p.states / 2});
        dc.forbidden.push_back({0, p.states - 1});
        if (p.length >= 4)
            dc.forbidden.push_back({uint32_t(p.length - 1), 0});
        return dc;
    }
};

TEST_P(ConstrainedSweep, ViterbiMatchesBruteForce)
{
    Hmm h = make();
    Sequence obs = observe(h);
    DecodeConstraints dc = constraints();

    ViterbiResult got = constrainedViterbi(h, obs, dc);

    double best = kLogZero;
    for (const auto &path : allPaths(h.numStates(), obs.size())) {
        if (!satisfies(path, dc))
            continue;
        best = std::max(best, pathLogProb(h, path, obs));
    }
    if (best == kLogZero) {
        EXPECT_EQ(got.logProb, kLogZero);
        EXPECT_TRUE(got.path.empty());
        return;
    }
    EXPECT_NEAR(got.logProb, best, 1e-9);
    EXPECT_TRUE(satisfies(got.path, dc));
    EXPECT_NEAR(pathLogProb(h, got.path, obs), got.logProb, 1e-9);
}

TEST_P(ConstrainedSweep, LikelihoodMatchesPathSum)
{
    Hmm h = make();
    Sequence obs = observe(h);
    DecodeConstraints dc = constraints();

    double acc = kLogZero;
    for (const auto &path : allPaths(h.numStates(), obs.size())) {
        if (!satisfies(path, dc))
            continue;
        acc = logAdd(acc, pathLogProb(h, path, obs));
    }
    double got = constrainedLogLikelihood(h, obs, dc);
    if (acc == kLogZero)
        EXPECT_EQ(got, kLogZero);
    else
        EXPECT_NEAR(got, acc, 1e-9);
}

TEST_P(ConstrainedSweep, UnconstrainedReducesToStandard)
{
    Hmm h = make();
    Sequence obs = observe(h);
    DecodeConstraints none;

    ViterbiResult plain = viterbi(h, obs);
    ViterbiResult constrained = constrainedViterbi(h, obs, none);
    EXPECT_NEAR(constrained.logProb, plain.logProb, 1e-9);

    EXPECT_NEAR(constrainedLogLikelihood(h, obs, none),
                sequenceLogLikelihood(h, obs), 1e-9);
    EXPECT_NEAR(constraintSatisfactionProbability(h, obs, none), 1.0,
                1e-12);
}

TEST_P(ConstrainedSweep, SatisfactionProbabilityMatchesEnumeration)
{
    Hmm h = make();
    Sequence obs = observe(h);
    DecodeConstraints dc = constraints();

    double sat = kLogZero, all = kLogZero;
    for (const auto &path : allPaths(h.numStates(), obs.size())) {
        double lp = pathLogProb(h, path, obs);
        all = logAdd(all, lp);
        if (satisfies(path, dc))
            sat = logAdd(sat, lp);
    }
    double expected = sat == kLogZero ? 0.0 : std::exp(sat - all);
    EXPECT_NEAR(constraintSatisfactionProbability(h, obs, dc), expected,
                1e-9);
}

TEST_P(ConstrainedSweep, KBestMatchesBruteForceTopK)
{
    Hmm h = make();
    Sequence obs = observe(h);
    const uint32_t k = 5;

    std::vector<double> expected;
    for (const auto &path : allPaths(h.numStates(), obs.size())) {
        double lp = pathLogProb(h, path, obs);
        if (lp != kLogZero)
            expected.push_back(lp);
    }
    std::sort(expected.rbegin(), expected.rend());
    if (expected.size() > k)
        expected.resize(k);

    auto got = kBestPaths(h, obs, k);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].logProb, expected[i], 1e-9) << "rank " << i;
        EXPECT_NEAR(pathLogProb(h, got[i].path, obs), got[i].logProb,
                    1e-9);
    }
    // Paths must be pairwise distinct.
    for (size_t i = 0; i < got.size(); ++i)
        for (size_t j = i + 1; j < got.size(); ++j)
            EXPECT_NE(got[i].path, got[j].path);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConstrainedSweep,
    ::testing::Values(ConstrainedParam{2, 3, 5, 1, false},
                      ConstrainedParam{3, 3, 5, 2, false},
                      ConstrainedParam{3, 4, 6, 3, false},
                      ConstrainedParam{4, 3, 5, 4, false},
                      ConstrainedParam{4, 4, 6, 5, true},
                      ConstrainedParam{5, 4, 5, 6, true},
                      ConstrainedParam{3, 5, 7, 7, true},
                      ConstrainedParam{2, 2, 8, 8, false}));

TEST(Constrained, KBestFirstEqualsViterbi)
{
    Rng rng(11);
    Hmm h = Hmm::random(rng, 6, 5);
    Sequence obs;
    h.sample(rng, 12, &obs);
    auto best = kBestPaths(h, obs, 1);
    ASSERT_EQ(best.size(), 1u);
    ViterbiResult vit = viterbi(h, obs);
    EXPECT_NEAR(best[0].logProb, vit.logProb, 1e-9);
    EXPECT_EQ(best[0].path, vit.path);
}

TEST(Constrained, InfeasibleConstraintsDetected)
{
    Rng rng(12);
    Hmm h = Hmm::random(rng, 3, 3);
    Sequence obs;
    h.sample(rng, 4, &obs);
    DecodeConstraints dc;
    // Forbid every state at position 2.
    for (uint32_t s = 0; s < 3; ++s)
        dc.forbidden.push_back({2, s});
    ViterbiResult r = constrainedViterbi(h, obs, dc);
    EXPECT_EQ(r.logProb, kLogZero);
    EXPECT_EQ(constraintSatisfactionProbability(h, obs, dc), 0.0);
}

TEST(Constrained, RequiredStatePinsPath)
{
    Rng rng(13);
    Hmm h = Hmm::random(rng, 4, 4);
    Sequence obs;
    h.sample(rng, 6, &obs);
    for (uint32_t s = 0; s < 4; ++s) {
        DecodeConstraints dc;
        dc.required.push_back({3, s});
        ViterbiResult r = constrainedViterbi(h, obs, dc);
        if (r.logProb != kLogZero) {
            EXPECT_EQ(r.path[3], s);
        }
    }
}

TEST(Constrained, PosteriorDecodeMatchesEnumeration)
{
    Rng rng(14);
    Hmm h = Hmm::random(rng, 3, 3);
    Sequence obs;
    h.sample(rng, 5, &obs);

    // Brute-force per-position posterior.
    std::vector<std::vector<double>> post(
        obs.size(), std::vector<double>(3, kLogZero));
    for (const auto &path : allPaths(3, obs.size())) {
        double lp = pathLogProb(h, path, obs);
        if (lp == kLogZero)
            continue;
        for (size_t t = 0; t < path.size(); ++t)
            post[t][path[t]] = logAdd(post[t][path[t]], lp);
    }
    auto decoded = posteriorDecode(h, obs);
    ASSERT_EQ(decoded.size(), obs.size());
    for (size_t t = 0; t < obs.size(); ++t) {
        uint32_t expected = uint32_t(
            std::max_element(post[t].begin(), post[t].end()) -
            post[t].begin());
        EXPECT_EQ(decoded[t], expected) << "position " << t;
    }
}

TEST(Constrained, ValidateRejectsContradictions)
{
    DecodeConstraints dc;
    dc.required.push_back({1, 0});
    dc.required.push_back({1, 2});
    EXPECT_DEATH(dc.validate(3, 4), "contradictory");
}

TEST(Constrained, ValidateRejectsOutOfRange)
{
    DecodeConstraints dc;
    dc.required.push_back({9, 0});
    EXPECT_DEATH(dc.validate(3, 4), "beyond length");
}
