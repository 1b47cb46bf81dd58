#include "sys/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "pc/flat_cache.h"
#include "pc/pc.h"
#include "sys/fault.h"
#include "util/logging.h"

namespace reason {
namespace sys {

/** Shared per-session state: the immutable lowering, which is also
 *  the session's coalescing key. */
struct SessionState
{
    std::shared_ptr<const pc::FlatCircuit> lowering;
};

namespace {

/** Distinct lowerings each dispatcher keeps warm evaluators for. */
constexpr size_t kMaxCachedEvaluators = 32;

QueueOptions
queueOptionsFrom(const ServeOptions &options)
{
    QueueOptions q;
    q.capacity = options.queueCapacity;
    q.policy = options.queuePolicy;
    return q;
}

} // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

RequestHandle
Session::finishRejected(std::shared_ptr<Request> request, int error) const
{
    request->error = error;
    request->state = RequestState::Done;
    if (request->onDone)
        std::exchange(request->onDone, nullptr)(*request);
    return RequestHandle(std::move(request));
}

RequestHandle
Session::submit(pc::Assignment row, double accuracyBudget,
                uint64_t deadlineNs)
{
    std::vector<pc::Assignment> rows;
    rows.push_back(std::move(row));
    return submitBatch(std::move(rows), accuracyBudget, deadlineNs);
}

RequestHandle
Session::submitBatch(std::vector<pc::Assignment> rows,
                     double accuracyBudget, uint64_t deadlineNs,
                     CompletionCallback onDone)
{
    auto request = std::make_shared<Request>();
    request->session = state_;
    request->onDone = std::move(onDone);
    if (engine_ == nullptr || state_ == nullptr)
        return finishRejected(std::move(request),
                              REASON_ERR_WRONG_SESSION);
    // NaN fails the >= comparison; infinities are explicit.  Budgets
    // are rejected, never clamped.
    if (!(accuracyBudget >= 0.0) || std::isinf(accuracyBudget))
        return finishRejected(std::move(request),
                              REASON_ERR_BAD_BUDGET);
    if (rows.empty())
        return finishRejected(std::move(request), REASON_ERR_BAD_BATCH);
    const pc::FlatCircuit &flat = *state_->lowering;
    for (const pc::Assignment &x : rows) {
        if (x.size() < flat.numVars)
            return finishRejected(std::move(request),
                                  REASON_ERR_BAD_ASSIGNMENT);
        for (uint32_t v = 0; v < flat.numVars; ++v)
            if (x[v] != pc::kMissing && x[v] >= flat.arity)
                return finishRejected(std::move(request),
                                      REASON_ERR_BAD_ASSIGNMENT);
    }
    // Tier selection: a positive budget routes to the approximate
    // tier; budget 0 (including -0.0) is the exact tier.
    if (accuracyBudget > 0.0) {
        request->mode = REASON_MODE_APPROX;
        request->accuracyBudget = accuracyBudget;
    } else {
        request->mode = REASON_MODE_PROBABILISTIC;
    }
    request->groupKey = state_->lowering.get();
    request->rows = std::move(rows);
    // Deadlines are relative at the API surface (clients think in
    // timeouts) and anchored to the steady clock here, so queue hops
    // never re-anchor them.
    if (deadlineNs != 0)
        request->deadlineNs = steadyNowNs() + deadlineNs;
    return engine_->enqueue(request);
}

bool
Session::poll(const RequestHandle &handle) const
{
    reasonAssert(handle.valid(), "poll on an invalid handle");
    if (engine_ == nullptr) {
        // An invalid session can only have produced rejected-at-submit
        // handles; those completed synchronously and were never shared
        // with a dispatcher, so the unsynchronized read is safe.
        reasonAssert(handle.request_->state == RequestState::Done,
                     "poll on an invalid session");
        return true;
    }
    return engine_->queue_.pollDone(*handle.request_);
}

std::shared_ptr<const Request>
Session::wait(const RequestHandle &handle) const
{
    reasonAssert(handle.valid(), "wait on an invalid handle");
    if (engine_ == nullptr) {
        // See poll(): only already-completed rejection handles exist.
        reasonAssert(handle.request_->state == RequestState::Done,
                     "wait on an invalid session");
        return handle.request_;
    }
    engine_->queue_.waitDone(*handle.request_);
    return handle.request_;
}

// ---------------------------------------------------------------------------
// ReasonEngine
// ---------------------------------------------------------------------------

ReasonEngine::ReasonEngine(const ServeOptions &options)
    : options_(options), queue_(queueOptionsFrom(options))
{
    if (options_.maxBatch == 0)
        options_.maxBatch = 1;
    if (options_.dispatchers == 0)
        options_.dispatchers = 1;
    if (options_.startPaused)
        queue_.pause();
    for (unsigned d = 0; d < options_.dispatchers; ++d) {
        auto disp = std::make_unique<Dispatcher>();
        disp->evalPool =
            std::make_unique<util::ThreadPool>(options_.serveThreads);
        dispatchers_.push_back(std::move(disp));
    }
    for (auto &disp : dispatchers_)
        disp->thread = std::thread(
            [this, d = disp.get()] { workerLoop(*d); });
}

ReasonEngine::~ReasonEngine()
{
    queue_.shutdown();
    for (auto &disp : dispatchers_)
        if (disp->thread.joinable())
            disp->thread.join();
}

Session
ReasonEngine::createSession(const pc::Circuit &circuit)
{
    auto state = std::make_shared<SessionState>();
    state->lowering = pc::cachedLowering(circuit);
    return Session(this, std::move(state));
}

Session
ReasonEngine::createSession(std::shared_ptr<const pc::FlatCircuit> lowering)
{
    reasonAssert(lowering != nullptr, "createSession: null lowering");
    auto state = std::make_shared<SessionState>();
    state->lowering = std::move(lowering);
    return Session(this, std::move(state));
}

void
ReasonEngine::pause()
{
    queue_.pause();
}

void
ReasonEngine::resume()
{
    queue_.resume();
}

bool
ReasonEngine::drain(uint64_t deadlineNs)
{
    queue_.beginDrain();
    return queue_.drainWait(steadyNowNs() + deadlineNs);
}

EngineStats
ReasonEngine::stats() const
{
    return queue_.stats();
}

RequestHandle
ReasonEngine::enqueue(const std::shared_ptr<Request> &request)
{
    request->id = nextId_.fetch_add(1, std::memory_order_relaxed);
    queue_.push(request);
    return RequestHandle(request);
}

void
ReasonEngine::workerLoop(Dispatcher &disp)
{
    for (;;) {
        std::vector<std::shared_ptr<Request>> group =
            queue_.popGroup(options_.maxBatch);
        if (group.empty())
            return; // shutdown
        // Fault-injection hook: a configured plan may stall this
        // dispatcher here, between pop and execution — the window in
        // which queued deadlines keep expiring.  Zero-cost when no
        // plan is installed (one relaxed atomic load).
        faultDispatchStall();
        executeGroup(disp, group);
        queue_.complete(group);
    }
}

void
ReasonEngine::executeGroup(
    Dispatcher &disp,
    const std::vector<std::shared_ptr<Request>> &group)
{
    if (group.front()->mode == REASON_MODE_APPROX) {
        executeApproxGroup(disp, group);
        return;
    }
    executeCircuitGroup(disp, group);
}

pc::CircuitEvaluator &
ReasonEngine::evaluatorFor(Dispatcher &disp,
                           const pc::FlatCircuit &flat,
                           std::shared_ptr<const pc::FlatCircuit>
                               keepAlive)
{
    auto it = disp.evaluators.find(&flat);
    if (it == disp.evaluators.end()) {
        // Bounded: in-flight requests pin their lowerings through the
        // session state, so dropping a warm evaluator is always safe.
        // Evict one victim, not the whole cache — the other warm
        // evaluators stay hot.
        if (disp.evaluators.size() >= kMaxCachedEvaluators)
            disp.evaluators.erase(disp.evaluators.begin());
        CachedEvaluator entry;
        entry.flat = std::move(keepAlive);
        entry.eval = std::make_unique<pc::CircuitEvaluator>(
            flat, disp.evalPool.get());
        it = disp.evaluators.emplace(&flat, std::move(entry)).first;
    }
    return *it->second.eval;
}

void
ReasonEngine::executeCircuitGroup(
    Dispatcher &disp,
    const std::vector<std::shared_ptr<Request>> &group)
{
    const pc::FlatCircuit &flat = *static_cast<const pc::FlatCircuit *>(
        group.front()->groupKey);
    pc::CircuitEvaluator &eval =
        evaluatorFor(disp, flat, group.front()->session->lowering);

    size_t total = 0;
    for (const auto &r : group)
        total += r->rows.size();

    // No padding needed: logLikelihoodBatch runs every row — tails
    // included — through the one canonical SIMD block kernel with
    // independent lanes, so each request's outputs are bit-identical
    // regardless of how it was coalesced.
    disp.groupRows.resize(total);
    size_t at = 0;
    for (const auto &r : group)
        for (const pc::Assignment &x : r->rows)
            disp.groupRows[at++].assign(x.begin(), x.end());

    disp.groupOut.resize(total);
    eval.logLikelihoodBatch(disp.groupRows,
                            {disp.groupOut.data(),
                             disp.groupOut.size()});

    at = 0;
    for (const auto &r : group) {
        r->outputs.assign(
            disp.groupOut.begin() + long(at),
            disp.groupOut.begin() + long(at + r->rows.size()));
        at += r->rows.size();
    }
}

pc::ApproxEvaluator &
ReasonEngine::approxEvaluatorFor(Dispatcher &disp,
                                 const pc::FlatCircuit &flat,
                                 double budget,
                                 std::shared_ptr<const pc::FlatCircuit>
                                     keepAlive)
{
    const ApproxKey key{&flat, std::bit_cast<uint64_t>(budget)};
    auto it = disp.approxEvaluators.find(key);
    if (it == disp.approxEvaluators.end()) {
        // Same bounded-cache discipline as the exact evaluators:
        // lowerings stay pinned by in-flight sessions, so evicting a
        // warm evaluator is always safe.
        if (disp.approxEvaluators.size() >= kMaxCachedEvaluators)
            disp.approxEvaluators.erase(disp.approxEvaluators.begin());
        CachedApprox entry;
        entry.flat = std::move(keepAlive);
        pc::ApproxOptions opts;
        opts.budget = budget;
        entry.eval = std::make_unique<pc::ApproxEvaluator>(
            flat, opts, disp.evalPool.get());
        it = disp.approxEvaluators.emplace(key, std::move(entry)).first;
    }
    return *it->second.eval;
}

void
ReasonEngine::executeApproxGroup(
    Dispatcher &disp,
    const std::vector<std::shared_ptr<Request>> &group)
{
    // An approx shard coalesces requests of one lowering but possibly
    // different budgets.  The requests of each budget are gathered into
    // one queryBatch against the evaluator built for exactly that
    // budget — the gather → one pass → scatter shape of
    // executeCircuitGroup.  Every row runs through CircuitEvaluator's
    // canonical kernel, per row or in independent block lanes, so
    // outputs and bounds are bit-identical no matter how the group was
    // coalesced or which requests shared a pass — the same contract as
    // the exact tier.
    const pc::FlatCircuit &flat = *static_cast<const pc::FlatCircuit *>(
        group.front()->groupKey);
    std::vector<Request *> &order = disp.approxOrder;
    order.clear();
    for (const auto &r : group)
        order.push_back(r.get());
    // Budgets are validated positive and finite: `<` is a strict weak
    // order and equal values are equal evaluator keys.
    std::sort(order.begin(), order.end(),
              [](const Request *a, const Request *b) {
                  return a->accuracyBudget < b->accuracyBudget;
              });
    for (size_t first = 0; first < order.size();) {
        const double budget = order[first]->accuracyBudget;
        size_t last = first;
        size_t total = 0;
        for (; last < order.size() && order[last]->accuracyBudget == budget;
             ++last)
            total += order[last]->rows.size();

        disp.groupRows.resize(total);
        size_t at = 0;
        for (size_t k = first; k < last; ++k)
            for (const pc::Assignment &x : order[k]->rows)
                disp.groupRows[at++].assign(x.begin(), x.end());
        pc::ApproxEvaluator &eval = approxEvaluatorFor(
            disp, flat, budget, order[first]->session->lowering);
        eval.queryBatch(disp.groupRows, disp.approxOut);

        at = 0;
        for (size_t k = first; k < last; ++k) {
            Request &r = *order[k];
            const size_t n = r.rows.size();
            r.outputs.resize(n);
            r.boundLo.resize(n);
            r.boundHi.resize(n);
            for (size_t i = 0; i < n; ++i, ++at) {
                r.outputs[i] = disp.approxOut[at].value;
                r.boundLo[i] = disp.approxOut[at].lo;
                r.boundHi[i] = disp.approxOut[at].hi;
            }
        }
        first = last;
    }
}

} // namespace sys
} // namespace reason
