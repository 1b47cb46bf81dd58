/**
 * @file
 * Tests for the HMM substrate: forward/backward against brute-force
 * path enumeration, posterior normalization, Viterbi optimality,
 * Baum-Welch improvement, and posterior-based pruning.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "hmm/hmm.h"
#include "util/numeric.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::hmm;

namespace {

Hmm
weatherModel()
{
    // Classic 2-state (rainy/sunny), 3-symbol (walk/shop/clean) HMM.
    Hmm h(2, 3);
    h.setInitial({0.6, 0.4});
    h.setTransitionRow(0, {0.7, 0.3});
    h.setTransitionRow(1, {0.4, 0.6});
    h.setEmissionRow(0, {0.1, 0.4, 0.5});
    h.setEmissionRow(1, {0.6, 0.3, 0.1});
    return h;
}

} // namespace

TEST(Hmm, ForwardMatchesHandComputation)
{
    Hmm h = weatherModel();
    // P(obs = [walk]) = 0.6*0.1 + 0.4*0.6 = 0.30
    EXPECT_NEAR(std::exp(sequenceLogLikelihood(h, {0})), 0.30, 1e-12);
}

class HmmRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(HmmRandom, ForwardMatchesBruteForce)
{
    Rng rng(GetParam() * 7 + 100);
    uint32_t states = 2 + GetParam() % 3;
    Hmm h = Hmm::random(rng, states, 4);
    Sequence obs;
    h.sample(rng, 6, &obs);
    double fwd = sequenceLogLikelihood(h, obs);
    double brute = bruteForceLogLikelihood(h, obs);
    EXPECT_NEAR(fwd, brute, 1e-9);
}

TEST_P(HmmRandom, ForwardBackwardAgree)
{
    Rng rng(GetParam() * 13 + 5);
    Hmm h = Hmm::random(rng, 3, 5);
    Sequence obs;
    h.sample(rng, 8, &obs);
    ForwardBackward fb = forwardBackward(h, obs);
    EXPECT_NEAR(fb.logLikelihood, sequenceLogLikelihood(h, obs), 1e-9);
    // Posteriors normalize per step.
    for (const auto &row : fb.gamma) {
        double total = 0.0;
        for (double g : row)
            total += g;
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
    // Xi marginalizes to gamma.
    for (size_t t = 0; t + 1 < obs.size(); ++t) {
        for (uint32_t i = 0; i < h.numStates(); ++i) {
            double total = 0.0;
            for (uint32_t j = 0; j < h.numStates(); ++j)
                total += fb.xi[t][size_t(i) * h.numStates() + j];
            EXPECT_NEAR(total, fb.gamma[t][i], 1e-9);
        }
    }
}

TEST_P(HmmRandom, ViterbiIsOptimal)
{
    Rng rng(GetParam() * 37 + 11);
    uint32_t states = 2 + GetParam() % 2;
    Hmm h = Hmm::random(rng, states, 3);
    Sequence obs;
    h.sample(rng, 5, &obs);
    ViterbiResult v = viterbi(h, obs);

    // Enumerate all paths; none may beat the Viterbi score.
    uint64_t paths = 1;
    for (size_t t = 0; t < obs.size(); ++t)
        paths *= states;
    double best = kLogZero;
    for (uint64_t m = 0; m < paths; ++m) {
        uint64_t rest = m;
        std::vector<uint32_t> z(obs.size());
        for (size_t t = 0; t < obs.size(); ++t) {
            z[t] = rest % states;
            rest /= states;
        }
        double lp = std::log(h.initial(z[0])) +
                    std::log(h.emission(z[0], obs[0]));
        for (size_t t = 1; t < obs.size(); ++t)
            lp += std::log(h.transition(z[t - 1], z[t])) +
                  std::log(h.emission(z[t], obs[t]));
        best = std::max(best, lp);
    }
    EXPECT_NEAR(v.logProb, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HmmRandom, ::testing::Range(0, 12));

TEST(Hmm, BandedTransitionsRespectBand)
{
    Rng rng(3);
    uint32_t states = 12;
    uint32_t band = 2;
    Hmm h = Hmm::banded(rng, states, 6, band);
    for (uint32_t s = 0; s < states; ++s) {
        for (uint32_t t = 0; t < states; ++t) {
            uint32_t dist = std::min((s + states - t) % states,
                                     (t + states - s) % states);
            if (dist > band) {
                EXPECT_EQ(h.transition(s, t), 0.0);
            }
        }
    }
    // Rows remain distributions.
    for (uint32_t s = 0; s < states; ++s) {
        double total = 0.0;
        for (uint32_t t = 0; t < states; ++t)
            total += h.transition(s, t);
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST(Hmm, SampleShapes)
{
    Rng rng(4);
    Hmm h = Hmm::random(rng, 3, 5);
    Sequence obs;
    std::vector<uint32_t> states;
    h.sample(rng, 17, &obs, &states);
    EXPECT_EQ(obs.size(), 17u);
    EXPECT_EQ(states.size(), 17u);
    for (uint32_t o : obs)
        EXPECT_LT(o, 5u);
    for (uint32_t s : states)
        EXPECT_LT(s, 3u);
}

TEST(Hmm, ImpossibleObservationHasZeroLikelihood)
{
    Hmm h(2, 2);
    h.setInitial({1.0, 0.0});
    h.setTransitionRow(0, {1.0, 0.0});
    h.setTransitionRow(1, {0.0, 1.0});
    h.setEmissionRow(0, {1.0, 0.0}); // state 0 never emits symbol 1
    h.setEmissionRow(1, {0.5, 0.5});
    EXPECT_EQ(sequenceLogLikelihood(h, {1}), kLogZero);
}

TEST(BaumWelch, ImprovesLikelihood)
{
    Rng rng(6);
    Hmm truth = Hmm::random(rng, 3, 4, 0.3); // peaked rows
    std::vector<Sequence> data;
    for (int i = 0; i < 30; ++i) {
        Sequence s;
        truth.sample(rng, 20, &s);
        data.push_back(std::move(s));
    }
    Hmm model = Hmm::random(rng, 3, 4);
    BaumWelchTrace trace = baumWelch(model, data, 10);
    ASSERT_GE(trace.logLikelihood.size(), 2u);
    EXPECT_GT(trace.logLikelihood.back(), trace.logLikelihood.front());
}

TEST(PruneByPosterior, RemovesAndRenormalizes)
{
    Rng rng(8);
    Hmm h = Hmm::banded(rng, 8, 6, 2);
    std::vector<Sequence> data;
    for (int i = 0; i < 20; ++i) {
        Sequence s;
        h.sample(rng, 16, &s);
        data.push_back(std::move(s));
    }
    HmmPruneResult pr = pruneByPosterior(h, data, 0.05);
    EXPECT_GT(pr.transitionsRemoved + pr.emissionsRemoved, 0u);
    EXPECT_GT(pr.parameterReduction, 0.0);
    // Rows renormalized.
    for (uint32_t s = 0; s < pr.pruned.numStates(); ++s) {
        double total = 0.0;
        for (uint32_t t = 0; t < pr.pruned.numStates(); ++t)
            total += pr.pruned.transition(s, t);
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
    // Pruned model still explains the data reasonably (finite LL and
    // bounded degradation).
    for (const auto &seq : data) {
        double before = sequenceLogLikelihood(h, seq);
        double after = sequenceLogLikelihood(pr.pruned, seq);
        EXPECT_GT(after, kLogZero);
        EXPECT_GT(after, before - 5.0);
    }
}

TEST(PruneByPosterior, KeepsAtLeastOneTransitionPerState)
{
    Rng rng(9);
    Hmm h = Hmm::random(rng, 5, 4);
    std::vector<Sequence> data;
    for (int i = 0; i < 10; ++i) {
        Sequence s;
        h.sample(rng, 12, &s);
        data.push_back(std::move(s));
    }
    // Aggressive threshold.
    HmmPruneResult pr = pruneByPosterior(h, data, 0.5);
    for (uint32_t s = 0; s < pr.pruned.numStates(); ++s) {
        size_t nonzero = 0;
        for (uint32_t t = 0; t < pr.pruned.numStates(); ++t)
            nonzero += pr.pruned.transition(s, t) > 0.0 ? 1 : 0;
        EXPECT_GE(nonzero, 1u);
    }
}
