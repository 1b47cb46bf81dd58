#include "hmm/hmm.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace reason {
namespace hmm {

namespace {

// ---------------------------------------------------------------------------
// SIMD-width leaf batching (util/simd.h).
//
// The forward/backward inner loops are restructured so every lane's
// accumulation order matches the seed scalar loops exactly — the
// vectorized passes are **bit-identical** to the reference recurrences
// (asserted by bench_eval's hmm_leaf_batch variant):
//
//  - leaf (emission) scoring reads one contiguous "emission column"
//    per observed symbol from the transposed table emitT[sym*N + s]
//    instead of a stride-numSymbols gather;
//  - the forward matvec runs i-outer/j-vector (a rank-1 update), so
//    each next[j] still accumulates prev[i]*trans(i,j) in ascending i
//    order;
//  - the backward matvec runs j-outer/i-vector over the transposed
//    transitions, so each bt[i] still accumulates
//    (trans(i,j)*emit)*beta in ascending j order with the reference
//    association;
//  - scaling sums stay scalar left folds; the divisions are
//    lane-parallel (identical per-lane rounding).
// ---------------------------------------------------------------------------

/** emitT[sym * N + s] = emission(s, sym). */
void
buildEmissionColumns(const Hmm &hmm, std::vector<double> &emit_t)
{
    const uint32_t N = hmm.numStates();
    const uint32_t M = hmm.numSymbols();
    emit_t.resize(size_t(M) * N);
    for (uint32_t s = 0; s < N; ++s) {
        const double *row = hmm.emissionRow(s);
        for (uint32_t m = 0; m < M; ++m)
            emit_t[size_t(m) * N + s] = row[m];
    }
}

/** transT[j * N + i] = transition(i, j). */
void
buildTransitionColumns(const Hmm &hmm, std::vector<double> &trans_t)
{
    const uint32_t N = hmm.numStates();
    trans_t.resize(size_t(N) * N);
    for (uint32_t i = 0; i < N; ++i) {
        const double *row = hmm.transitionRow(i);
        for (uint32_t j = 0; j < N; ++j)
            trans_t[size_t(j) * N + i] = row[j];
    }
}

/** Scalar left-fold sum in ascending index order (the scaling sums
 *  are order-sensitive and stay bit-identical to the seed loop). */
inline double
sumRow(const double *p, size_t n)
{
    double c = 0.0;
    for (size_t i = 0; i < n; ++i)
        c += p[i];
    return c;
}

/** p[i] /= c lane-parallel (per-lane rounding identical to scalar). */
inline void
divideRow(double *p, double c, size_t n)
{
    const simd::Pack d = simd::splat(c);
    size_t i = 0;
    for (; i + simd::kLanes <= n; i += simd::kLanes)
        simd::store(p + i, simd::div(simd::load(p + i), d));
    if (i < n)
        simd::storeN(p + i, n - i,
                     simd::div(simd::loadN(p + i, n - i, 1.0), d));
}

/**
 * next[j] = (sum_i prev[i] * trans(i, j)) * emitcol[j]: the scaled
 * forward step as an i-outer rank-1 update — each next[j] accumulates
 * in ascending i order, bit-identical to the scalar j-loop.
 */
inline void
forwardStep(const Hmm &hmm, const double *prev, const double *emitcol,
            double *next, uint32_t N)
{
    std::fill_n(next, N, 0.0);
    for (uint32_t i = 0; i < N; ++i) {
        const simd::Pack p = simd::splat(prev[i]);
        const double *row = hmm.transitionRow(i);
        size_t j = 0;
        for (; j + simd::kLanes <= N; j += simd::kLanes)
            simd::store(next + j,
                        simd::add(simd::load(next + j),
                                  simd::mul(p, simd::load(row + j))));
        if (j < N) {
            const size_t r = N - j;
            simd::storeN(
                next + j, r,
                simd::add(simd::loadN(next + j, r, 0.0),
                          simd::mul(p, simd::loadN(row + j, r, 0.0))));
        }
    }
    size_t j = 0;
    for (; j + simd::kLanes <= N; j += simd::kLanes)
        simd::store(next + j,
                    simd::mul(simd::load(next + j),
                              simd::load(emitcol + j)));
    if (j < N) {
        const size_t r = N - j;
        simd::storeN(next + j, r,
                     simd::mul(simd::loadN(next + j, r, 0.0),
                               simd::loadN(emitcol + j, r, 0.0)));
    }
}

/**
 * bt[i] = (sum_j trans(i, j) * emitcol[j] * bnext[j]) / scale: the
 * backward step as a j-outer rank-1 update over the transposed
 * transitions — each bt[i] accumulates in ascending j order with the
 * reference ((trans*emit)*beta) association.
 */
inline void
backwardStep(const double *trans_t, const double *emitcol,
             const double *bnext, double scale, double *bt, uint32_t N)
{
    std::fill_n(bt, N, 0.0);
    for (uint32_t j = 0; j < N; ++j) {
        const simd::Pack eb = simd::splat(emitcol[j]);
        const simd::Pack bn = simd::splat(bnext[j]);
        const double *col = trans_t + size_t(j) * N;
        size_t i = 0;
        for (; i + simd::kLanes <= N; i += simd::kLanes)
            simd::store(
                bt + i,
                simd::add(simd::load(bt + i),
                          simd::mul(simd::mul(simd::load(col + i), eb),
                                    bn)));
        if (i < N) {
            const size_t r = N - i;
            simd::storeN(
                bt + i, r,
                simd::add(
                    simd::loadN(bt + i, r, 0.0),
                    simd::mul(simd::mul(simd::loadN(col + i, r, 0.0),
                                        eb),
                              bn)));
        }
    }
    divideRow(bt, scale, N);
}

} // namespace

Hmm::Hmm(uint32_t num_states, uint32_t num_symbols)
    : numStates_(num_states), numSymbols_(num_symbols),
      initial_(num_states, 1.0 / num_states),
      trans_(size_t(num_states) * num_states, 1.0 / num_states),
      emit_(size_t(num_states) * num_symbols, 1.0 / num_symbols)
{
    reasonAssert(num_states > 0 && num_symbols > 0,
                 "HMM needs states and symbols");
}

void
Hmm::setInitial(std::vector<double> pi)
{
    reasonAssert(pi.size() == numStates_, "initial size mismatch");
    initial_ = std::move(pi);
}

void
Hmm::setTransitionRow(uint32_t from, std::vector<double> row)
{
    reasonAssert(row.size() == numStates_, "transition row size mismatch");
    std::copy(row.begin(), row.end(),
              trans_.begin() + size_t(from) * numStates_);
}

void
Hmm::setEmissionRow(uint32_t state, std::vector<double> row)
{
    reasonAssert(row.size() == numSymbols_, "emission row size mismatch");
    std::copy(row.begin(), row.end(),
              emit_.begin() + size_t(state) * numSymbols_);
}

size_t
Hmm::numActiveTransitions() const
{
    return static_cast<size_t>(
        std::count_if(trans_.begin(), trans_.end(),
                      [](double p) { return p > 0.0; }));
}

size_t
Hmm::numActiveEmissions() const
{
    return static_cast<size_t>(
        std::count_if(emit_.begin(), emit_.end(),
                      [](double p) { return p > 0.0; }));
}

void
Hmm::normalize()
{
    auto normalize_span = [](double *begin, size_t n, const char *what) {
        double total = 0.0;
        for (size_t i = 0; i < n; ++i)
            total += begin[i];
        if (total <= 0.0)
            fatal("%s row has no probability mass", what);
        for (size_t i = 0; i < n; ++i)
            begin[i] /= total;
    };
    normalize_span(initial_.data(), numStates_, "initial");
    for (uint32_t s = 0; s < numStates_; ++s)
        normalize_span(trans_.data() + size_t(s) * numStates_, numStates_,
                       "transition");
    for (uint32_t s = 0; s < numStates_; ++s)
        normalize_span(emit_.data() + size_t(s) * numSymbols_,
                       numSymbols_, "emission");
}

Hmm
Hmm::random(Rng &rng, uint32_t num_states, uint32_t num_symbols,
            double concentration)
{
    Hmm h(num_states, num_symbols);
    h.setInitial(rng.dirichlet(num_states, concentration));
    for (uint32_t s = 0; s < num_states; ++s) {
        h.setTransitionRow(s, rng.dirichlet(num_states, concentration));
        h.setEmissionRow(s, rng.dirichlet(num_symbols, concentration));
    }
    return h;
}

Hmm
Hmm::banded(Rng &rng, uint32_t num_states, uint32_t num_symbols,
            uint32_t band, double concentration)
{
    Hmm h(num_states, num_symbols);
    h.setInitial(rng.dirichlet(num_states, 1.0));
    for (uint32_t s = 0; s < num_states; ++s) {
        std::vector<double> row(num_states, 0.0);
        uint32_t width = 2 * band + 1;
        auto mass = rng.dirichlet(width, concentration);
        for (uint32_t k = 0; k < width; ++k) {
            uint32_t to =
                (s + num_states + k - band) % num_states;
            row[to] += mass[k];
        }
        h.setTransitionRow(s, std::move(row));
        h.setEmissionRow(s, rng.dirichlet(num_symbols, concentration));
    }
    return h;
}

void
Hmm::sample(Rng &rng, size_t length, Sequence *obs,
            std::vector<uint32_t> *states) const
{
    reasonAssert(obs != nullptr, "sample needs an output sequence");
    obs->clear();
    if (states)
        states->clear();
    if (length == 0)
        return;
    uint32_t state = static_cast<uint32_t>(rng.categorical(initial_));
    for (size_t t = 0; t < length; ++t) {
        std::vector<double> erow(
            emit_.begin() + size_t(state) * numSymbols_,
            emit_.begin() + size_t(state + 1) * numSymbols_);
        obs->push_back(static_cast<uint32_t>(rng.categorical(erow)));
        if (states)
            states->push_back(state);
        if (t + 1 < length) {
            std::vector<double> trow(
                trans_.begin() + size_t(state) * numStates_,
                trans_.begin() + size_t(state + 1) * numStates_);
            state = static_cast<uint32_t>(rng.categorical(trow));
        }
    }
}

void
forwardBackwardInto(const Hmm &hmm, const Sequence &obs, FbWorkspace &ws,
                    bool reuse_tables)
{
    const size_t T = obs.size();
    const uint32_t N = hmm.numStates();
    reasonAssert(T > 0, "empty sequence");
    ws.T = T;
    ws.N = N;
    ws.alpha.assign(T * N, 0.0);
    ws.beta.assign(T * N, 0.0);
    ws.gamma.assign(T * N, 0.0);
    ws.xi.assign(T > 1 ? (T - 1) * size_t(N) * N : 0, 0.0);
    ws.scale.assign(T, 0.0);
    // O(N*(N+M)) transpose pair, skipped inside a fixed-model sweep
    // (the caller vouches for unchanged parameters via reuse_tables).
    if (!reuse_tables || ws.emitT.size() !=
                             size_t(hmm.numSymbols()) * N) {
        buildEmissionColumns(hmm, ws.emitT);
        buildTransitionColumns(hmm, ws.transT);
    }
    const double *emit_t = ws.emitT.data();

    double *alpha = ws.alpha.data();
    double *beta = ws.beta.data();
    double *gamma = ws.gamma.data();
    double *xi = ws.xi.data();

    // Forward with per-step scaling.
    {
        const double *init = hmm.initialData();
        const double *e0 = emit_t + size_t(obs[0]) * N;
        for (uint32_t s = 0; s < N; ++s)
            alpha[s] = init[s] * e0[s];
    }
    for (size_t t = 0; t < T; ++t) {
        double *at = alpha + t * N;
        if (t > 0)
            forwardStep(hmm, alpha + (t - 1) * N,
                        emit_t + size_t(obs[t]) * N, at, N);
        const double c = sumRow(at, N);
        if (c <= 0.0) {
            // Observation impossible under the model.
            ws.logLikelihood = kLogZero;
            return;
        }
        ws.scale[t] = c;
        divideRow(at, c, N);
    }
    ws.logLikelihood = 0.0;
    for (double c : ws.scale)
        ws.logLikelihood += std::log(c);

    // Backward under the same scaling.
    for (uint32_t s = 0; s < N; ++s)
        beta[(T - 1) * N + s] = 1.0;
    for (size_t t = T - 1; t-- > 0;)
        backwardStep(ws.transT.data(), emit_t + size_t(obs[t + 1]) * N,
                     beta + (t + 1) * N, ws.scale[t + 1], beta + t * N,
                     N);

    // Posteriors.  gamma rows are lane-parallel products; the
    // normalizers stay scalar left folds over the stored rows, which
    // visit the same values in the same order as the seed loop.
    for (size_t t = 0; t < T; ++t) {
        double *gt = gamma + t * N;
        const double *at = alpha + t * N;
        const double *bt = beta + t * N;
        size_t s = 0;
        for (; s + simd::kLanes <= N; s += simd::kLanes)
            simd::store(gt + s, simd::mul(simd::load(at + s),
                                          simd::load(bt + s)));
        if (s < N) {
            const size_t r = N - s;
            simd::storeN(gt + s, r,
                         simd::mul(simd::loadN(at + s, r, 0.0),
                                   simd::loadN(bt + s, r, 0.0)));
        }
        const double norm = sumRow(gt, N);
        if (norm > 0.0)
            divideRow(gt, norm, N);
    }
    for (size_t t = 0; t + 1 < T; ++t) {
        double *xt = xi + t * size_t(N) * N;
        const double *emitcol = emit_t + size_t(obs[t + 1]) * N;
        const double *bnext = beta + (t + 1) * N;
        const simd::Pack sc = simd::splat(ws.scale[t + 1]);
        for (uint32_t i = 0; i < N; ++i) {
            const simd::Pack a = simd::splat(alpha[t * N + i]);
            const double *row = hmm.transitionRow(i);
            double *out = xt + size_t(i) * N;
            size_t j = 0;
            for (; j + simd::kLanes <= N; j += simd::kLanes)
                simd::store(
                    out + j,
                    simd::div(
                        simd::mul(
                            simd::mul(simd::mul(a, simd::load(row + j)),
                                      simd::load(emitcol + j)),
                            simd::load(bnext + j)),
                        sc));
            if (j < N) {
                const size_t r = N - j;
                simd::storeN(
                    out + j, r,
                    simd::div(
                        simd::mul(
                            simd::mul(
                                simd::mul(a,
                                          simd::loadN(row + j, r, 0.0)),
                                simd::loadN(emitcol + j, r, 0.0)),
                            simd::loadN(bnext + j, r, 0.0)),
                        sc));
            }
        }
        const double norm = sumRow(xt, size_t(N) * N);
        if (norm > 0.0)
            divideRow(xt, norm, size_t(N) * N);
    }
}

ForwardBackward
forwardBackward(const Hmm &hmm, const Sequence &obs)
{
    // Reference wrapper: run the flat pass, then re-shape into the
    // nested-vector view.  Hot loops should call forwardBackwardInto
    // with a reused workspace instead.
    FbWorkspace ws;
    forwardBackwardInto(hmm, obs, ws);
    const size_t T = ws.T;
    const uint32_t N = ws.N;
    ForwardBackward fb;
    fb.logLikelihood = ws.logLikelihood;
    fb.alpha.assign(T, std::vector<double>(N, 0.0));
    fb.beta.assign(T, std::vector<double>(N, 0.0));
    fb.gamma.assign(T, std::vector<double>(N, 0.0));
    fb.scale = ws.scale;
    if (T > 1)
        fb.xi.assign(T - 1, std::vector<double>(size_t(N) * N, 0.0));
    for (size_t t = 0; t < T; ++t) {
        std::copy_n(ws.alpha.begin() + t * N, N, fb.alpha[t].begin());
        std::copy_n(ws.beta.begin() + t * N, N, fb.beta[t].begin());
        std::copy_n(ws.gamma.begin() + t * N, N, fb.gamma[t].begin());
    }
    for (size_t t = 0; t + 1 < T; ++t)
        std::copy_n(ws.xi.begin() + t * size_t(N) * N, size_t(N) * N,
                    fb.xi[t].begin());
    return fb;
}

namespace {

/** Forward pass against a prebuilt emission-column table. */
double
sequenceLogLikelihoodWithColumns(const Hmm &hmm, const Sequence &obs,
                                 const double *emit_t,
                                 std::vector<double> &alpha,
                                 std::vector<double> &next)
{
    const size_t T = obs.size();
    const uint32_t N = hmm.numStates();
    reasonAssert(T > 0, "empty sequence");
    alpha.resize(N);
    next.resize(N);
    {
        const double *init = hmm.initialData();
        const double *e0 = emit_t + size_t(obs[0]) * N;
        for (uint32_t s = 0; s < N; ++s)
            alpha[s] = init[s] * e0[s];
    }
    double ll = 0.0;
    for (size_t t = 0;; ++t) {
        const double c = sumRow(alpha.data(), N);
        if (c <= 0.0)
            return kLogZero;
        ll += std::log(c);
        divideRow(alpha.data(), c, N);
        if (t + 1 == T)
            break;
        forwardStep(hmm, alpha.data(), emit_t + size_t(obs[t + 1]) * N,
                    next.data(), N);
        alpha.swap(next);
    }
    return ll;
}

} // namespace

double
sequenceLogLikelihood(const Hmm &hmm, const Sequence &obs)
{
    std::vector<double> emit_t, alpha, next;
    buildEmissionColumns(hmm, emit_t);
    return sequenceLogLikelihoodWithColumns(hmm, obs, emit_t.data(),
                                            alpha, next);
}

void
sequenceLogLikelihoods(const Hmm &hmm, const std::vector<Sequence> &data,
                       std::vector<double> &out, util::ThreadPool *pool)
{
    out.resize(data.size());
    if (data.empty())
        return;
    if (pool == nullptr)
        pool = &util::globalThreadPool();
    // Each sequence is an independent forward pass with its own local
    // buffers; out[i] has one writer, so any partitioning yields the
    // same per-sequence values as serial calls.  The emission-column
    // table depends only on the (immutable during this call) model, so
    // it is transposed once and shared read-only by all workers.
    std::vector<double> emit_t;
    buildEmissionColumns(hmm, emit_t);
    pool->parallelFor(0, data.size(), 1,
                      [&](size_t b, size_t e, unsigned) {
                          std::vector<double> alpha, next;
                          for (size_t i = b; i < e; ++i)
                              out[i] = sequenceLogLikelihoodWithColumns(
                                  hmm, data[i], emit_t.data(), alpha,
                                  next);
                      });
}

ViterbiResult
viterbi(const Hmm &hmm, const Sequence &obs)
{
    const size_t T = obs.size();
    const uint32_t N = hmm.numStates();
    reasonAssert(T > 0, "empty sequence");
    std::vector<std::vector<double>> delta(T, std::vector<double>(N));
    std::vector<std::vector<uint32_t>> psi(T, std::vector<uint32_t>(N, 0));

    auto log_or_zero = [](double p) {
        return p > 0.0 ? std::log(p) : kLogZero;
    };

    for (uint32_t s = 0; s < N; ++s)
        delta[0][s] = log_or_zero(hmm.initial(s)) +
                      log_or_zero(hmm.emission(s, obs[0]));
    for (size_t t = 1; t < T; ++t) {
        for (uint32_t j = 0; j < N; ++j) {
            double best = kLogZero;
            uint32_t arg = 0;
            for (uint32_t i = 0; i < N; ++i) {
                double cand =
                    delta[t - 1][i] + log_or_zero(hmm.transition(i, j));
                if (cand > best) {
                    best = cand;
                    arg = i;
                }
            }
            delta[t][j] = best + log_or_zero(hmm.emission(j, obs[t]));
            psi[t][j] = arg;
        }
    }

    ViterbiResult res;
    uint32_t arg = 0;
    double best = kLogZero;
    for (uint32_t s = 0; s < N; ++s) {
        if (delta[T - 1][s] > best) {
            best = delta[T - 1][s];
            arg = s;
        }
    }
    res.logProb = best;
    res.path.assign(T, 0);
    res.path[T - 1] = arg;
    for (size_t t = T - 1; t-- > 0;)
        res.path[t] = psi[t + 1][res.path[t + 1]];
    return res;
}

double
bruteForceLogLikelihood(const Hmm &hmm, const Sequence &obs)
{
    const size_t T = obs.size();
    const uint32_t N = hmm.numStates();
    uint64_t limit = 0;
    reasonAssert(checkedIntPow(N, T, uint64_t(1) << 22, &limit),
                 "brute force path count too large");
    double acc = kLogZero;
    std::vector<uint32_t> z(T);
    for (uint64_t m = 0; m < limit; ++m) {
        uint64_t rest = m;
        for (size_t t = 0; t < T; ++t) {
            z[t] = static_cast<uint32_t>(rest % N);
            rest /= N;
        }
        double logp = std::log(hmm.initial(z[0])) +
                      std::log(hmm.emission(z[0], obs[0]));
        bool dead = hmm.initial(z[0]) <= 0.0 ||
                    hmm.emission(z[0], obs[0]) <= 0.0;
        for (size_t t = 1; t < T && !dead; ++t) {
            double pt = hmm.transition(z[t - 1], z[t]);
            double pe = hmm.emission(z[t], obs[t]);
            if (pt <= 0.0 || pe <= 0.0) {
                dead = true;
                break;
            }
            logp += std::log(pt) + std::log(pe);
        }
        if (!dead)
            acc = logAdd(acc, logp);
    }
    return acc;
}

namespace {

/** Per-shard Baum-Welch expected-count buffers. */
struct BwStats
{
    std::vector<double> pi;
    std::vector<double> transNum;
    std::vector<double> transDen;
    std::vector<double> emitNum;
    std::vector<double> emitDen;

    void
    reset(uint32_t N, uint32_t M)
    {
        pi.assign(N, 0.0);
        transNum.assign(size_t(N) * N, 0.0);
        transDen.assign(N, 0.0);
        emitNum.assign(size_t(N) * M, 0.0);
        emitDen.assign(N, 0.0);
    }

    void
    mergeFrom(const BwStats &other)
    {
        auto fold = [](std::vector<double> &a,
                       const std::vector<double> &b) {
            simd::addInto(a.data(), b.data(), a.size());
        };
        fold(pi, other.pi);
        fold(transNum, other.transNum);
        fold(transDen, other.transDen);
        fold(emitNum, other.emitNum);
        fold(emitDen, other.emitDen);
    }
};

} // namespace

BaumWelchTrace
baumWelch(Hmm &hmm, const std::vector<Sequence> &data,
          const BaumWelchOptions &options, util::ThreadPool *pool)
{
    reasonAssert(!data.empty(), "baumWelch needs data");
    const uint32_t N = hmm.numStates();
    const uint32_t M = hmm.numSymbols();
    const double smoothing = options.smoothing;
    BaumWelchTrace trace;

    if (pool == nullptr)
        pool = &util::globalThreadPool();
    const unsigned shards = util::resolveShardCount(
        options.shards, options.deterministic, data.size(),
        pool->numThreads());

    // Per-sequence likelihoods run thread-parallel; the reduction over
    // the materialized vector stays serial in dataset order, so the
    // trace is independent of the thread count.
    std::vector<double> lls;
    auto total_ll = [&]() {
        sequenceLogLikelihoods(hmm, data, lls, pool);
        double acc = 0.0;
        for (double ll : lls)
            acc += ll;
        return acc / static_cast<double>(data.size());
    };
    trace.logLikelihood.push_back(total_ll());
    // One workspace and statistic buffer per shard, reused across
    // iterations; shard boundaries depend only on (sequences, shards).
    std::vector<FbWorkspace> ws(shards);
    std::vector<BwStats> stats(shards);

    for (uint32_t it = 0; it < options.maxIterations; ++it) {
        // E-step: each shard left-folds its contiguous sequence slice
        // into private buffers (one writer per shard), then the shards
        // are merged by a fixed-shape tree reduction into stats[0].
        // With shards == 1 this is exactly the legacy serial fold.
        util::shardSlices(
            *pool, data.size(), shards,
            [&](size_t s, size_t lo, size_t hi, unsigned) {
                BwStats &st = stats[s];
                st.reset(N, M);
                for (size_t q = lo; q < hi; ++q) {
                    const Sequence &seq = data[q];
                    // The model is fixed for the whole E-step, so the
                    // shard's workspace tables are built once (q ==
                    // lo, every iteration) and reused for the rest of
                    // the slice.
                    forwardBackwardInto(hmm, seq, ws[s], q != lo);
                    if (ws[s].logLikelihood == kLogZero)
                        continue;
                    // Expected-count accumulation: every target entry
                    // folds its per-step contributions in ascending t
                    // order, so the lane-parallel adds are
                    // bit-identical to the scalar loops.
                    simd::addInto(st.pi.data(), ws[s].gamma.data(), N);
                    for (size_t t = 0; t + 1 < seq.size(); ++t) {
                        const double *gt = ws[s].gamma.data() + t * N;
                        const double *xt =
                            ws[s].xi.data() + t * size_t(N) * N;
                        simd::addInto(st.transDen.data(), gt, N);
                        simd::addInto(st.transNum.data(), xt,
                                      size_t(N) * N);
                    }
                    for (size_t t = 0; t < seq.size(); ++t) {
                        const double *gt = ws[s].gamma.data() + t * N;
                        simd::addInto(st.emitDen.data(), gt, N);
                        // Column scatter (stride M): stays scalar.
                        for (uint32_t z = 0; z < N; ++z)
                            st.emitNum[size_t(z) * M + seq[t]] += gt[z];
                    }
                }
            });
        util::treeReduce(shards, [&](size_t a, size_t b) {
            stats[a].mergeFrom(stats[b]);
        });
        const BwStats &total = stats[0];

        std::vector<double> new_pi(N);
        double pi_total = 0.0;
        for (uint32_t s = 0; s < N; ++s)
            pi_total += total.pi[s] + smoothing;
        for (uint32_t s = 0; s < N; ++s)
            new_pi[s] = (total.pi[s] + smoothing) / pi_total;
        hmm.setInitial(new_pi);

        for (uint32_t i = 0; i < N; ++i) {
            std::vector<double> row(N);
            double denom = total.transDen[i] + smoothing * N;
            for (uint32_t j = 0; j < N; ++j)
                row[j] =
                    (total.transNum[size_t(i) * N + j] + smoothing) /
                    denom;
            hmm.setTransitionRow(i, std::move(row));
        }
        for (uint32_t s = 0; s < N; ++s) {
            std::vector<double> row(M);
            double denom = total.emitDen[s] + smoothing * M;
            for (uint32_t m = 0; m < M; ++m)
                row[m] =
                    (total.emitNum[size_t(s) * M + m] + smoothing) /
                    denom;
            hmm.setEmissionRow(s, std::move(row));
        }
        hmm.normalize();

        double ll = total_ll();
        trace.logLikelihood.push_back(ll);
        ++trace.iterations;
        double prev = trace.logLikelihood[trace.logLikelihood.size() - 2];
        if (ll - prev < options.tolerance)
            break;
    }
    return trace;
}

BaumWelchTrace
baumWelch(Hmm &hmm, const std::vector<Sequence> &data,
          uint32_t max_iterations, double tolerance, double smoothing)
{
    BaumWelchOptions options;
    options.maxIterations = max_iterations;
    options.tolerance = tolerance;
    options.smoothing = smoothing;
    return baumWelch(hmm, data, options);
}

HmmPruneResult
pruneByPosterior(const Hmm &hmm, const std::vector<Sequence> &data,
                 double usage_threshold)
{
    reasonAssert(!data.empty(), "pruneByPosterior needs data");
    const uint32_t N = hmm.numStates();
    const uint32_t M = hmm.numSymbols();

    std::vector<double> trans_usage(size_t(N) * N, 0.0);
    std::vector<double> emit_usage(size_t(N) * M, 0.0);
    double total_trans = 0.0;
    double total_emit = 0.0;
    FbWorkspace ws; // reused across sequences (model fixed: reuse tables)
    for (size_t q = 0; q < data.size(); ++q) {
        const Sequence &seq = data[q];
        forwardBackwardInto(hmm, seq, ws, q != 0);
        if (ws.logLikelihood == kLogZero)
            continue;
        for (size_t t = 0; t + 1 < seq.size(); ++t) {
            const double *xt = ws.xi.data() + t * trans_usage.size();
            for (size_t k = 0; k < trans_usage.size(); ++k) {
                trans_usage[k] += xt[k];
                total_trans += xt[k];
            }
        }
        for (size_t t = 0; t < seq.size(); ++t) {
            const double *gt = ws.gamma.data() + t * N;
            for (uint32_t s = 0; s < N; ++s) {
                emit_usage[size_t(s) * M + seq[t]] += gt[s];
                total_emit += gt[s];
            }
        }
    }

    HmmPruneResult res;
    Hmm out = hmm;
    size_t active_trans = hmm.numActiveTransitions();
    size_t active_emit = hmm.numActiveEmissions();
    size_t params_before = active_trans + active_emit;

    // The threshold is a fraction of the *average* usage per active
    // entry of each type, so transition and emission pruning are
    // calibrated independently of their entry counts.
    double trans_cut =
        active_trans > 0
            ? usage_threshold * total_trans / double(active_trans)
            : 0.0;
    double emit_cut =
        active_emit > 0
            ? usage_threshold * total_emit / double(active_emit)
            : 0.0;

    for (uint32_t i = 0; i < N; ++i) {
        std::vector<double> row(N);
        uint32_t best = 0;
        for (uint32_t j = 0; j < N; ++j) {
            row[j] = hmm.transition(i, j);
            if (trans_usage[size_t(i) * N + j] >
                trans_usage[size_t(i) * N + best])
                best = j;
        }
        for (uint32_t j = 0; j < N; ++j) {
            if (j == best || row[j] == 0.0)
                continue;
            if (trans_usage[size_t(i) * N + j] < trans_cut) {
                row[j] = 0.0;
                ++res.transitionsRemoved;
            }
        }
        out.setTransitionRow(i, std::move(row));
    }
    for (uint32_t s = 0; s < N; ++s) {
        std::vector<double> row(M);
        uint32_t best = 0;
        for (uint32_t m = 0; m < M; ++m) {
            row[m] = hmm.emission(s, m);
            if (emit_usage[size_t(s) * M + m] >
                emit_usage[size_t(s) * M + best])
                best = m;
        }
        for (uint32_t m = 0; m < M; ++m) {
            if (m == best || row[m] == 0.0)
                continue;
            if (emit_usage[size_t(s) * M + m] < emit_cut) {
                row[m] = 0.0;
                ++res.emissionsRemoved;
            }
        }
        out.setEmissionRow(s, std::move(row));
    }
    out.normalize();

    size_t params_after =
        out.numActiveTransitions() + out.numActiveEmissions();
    res.parameterReduction =
        params_before == 0
            ? 0.0
            : 1.0 - static_cast<double>(params_after) /
                        static_cast<double>(params_before);
    res.pruned = std::move(out);
    return res;
}

} // namespace hmm
} // namespace reason
