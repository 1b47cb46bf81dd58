/**
 * @file
 * sys::ReasonEngine — the asynchronous batch-serving front door of the
 * runtime.  It serves probabilistic circuits on the flat engine
 * (pc/flat_pc.h); the Listing-1 interface runs on the simulator path
 * instead (sys/reason_api.h).
 *
 * An engine owns a sharded submission queue (sys::RequestQueue) and N
 * dispatcher threads, each with a private evaluator cache and
 * util::ThreadPool evaluation pool.  Clients open *sessions* and
 * submit requests; dispatchers drain per-fingerprint shards — sessions
 * are keyed by their structural lowering fingerprint
 * (pc::cachedLowering), so independent sessions over structurally
 * identical circuits share batches — and execute each coalesced group
 * as one blocked SoA evaluation on pc::CircuitEvaluator.  Dispatch is
 * greedy: a dispatcher takes whatever its shard's backlog holds, up to
 * maxBatch rows, and never waits for late arrivals.  The queue
 * provides bounded admission with overload shedding and per-session
 * fairness (see request_queue.h).
 *
 * **Determinism contract.**  Every row is evaluated through the one
 * canonical SIMD block kernel of
 * pc::CircuitEvaluator::logLikelihoodBatch (tails run the same masked
 * kernel; SoA lanes are independent), so a
 * request's outputs are bit-identical no matter how it was coalesced —
 * alone, with other requests, or split across engine instances — and
 * for any serveThreads or dispatcher count and any queue policy (the
 * pool contract of flat_pc.h; dispatchers share no evaluation state).
 *
 * **Thread-safety.**  Sessions and handles may be used from any
 * thread; submissions and waits from many client threads are the
 * intended pattern.  One Session object itself is safe for concurrent
 * submits (submission state is immutable; ids are atomic).  The engine
 * must outlive its sessions' *submissions* (wait/poll route through
 * the engine queue), but RequestHandle result accessors stay readable
 * after engine destruction because requests are shared-owned.  A
 * completion callback (submitBatch's `onDone`) runs on the thread that
 * completed its request, never under the queue mutex, so it may submit
 * or read stats.  What a callback captures must outlive it: engine
 * destruction still completes, and so calls back, every queued
 * request.
 */

#ifndef REASON_SYS_ENGINE_H
#define REASON_SYS_ENGINE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pc/approx.h"
#include "pc/flat_pc.h"
#include "sys/request_queue.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace reason {
namespace pc {
class Circuit;
}

namespace sys {

class ReasonEngine;

/**
 * Serving knobs of a ReasonEngine (mirrored on the reason_cli and
 * bench_eval flags).
 */
struct ServeOptions
{
    /**
     * Most rows one coalesced evaluation may carry.  Larger batches
     * amortize the circuit traversal across more SoA rows; 0 behaves
     * as 1 (no coalescing).  The cap bounds *coalescing*, not single
     * requests: one submitBatch larger than maxBatch still executes
     * as one evaluation (it just never gains co-riders), so clients
     * wanting bounded per-dispatch work must split bulk queries
     * themselves — results are bit-identical either way.
     */
    unsigned maxBatch = 64;
    /**
     * Worker count of the engine's evaluation pool (the blocked SoA
     * row-block parallelism of CircuitEvaluator).  0 selects hardware
     * concurrency.  Results are bit-identical for any value.
     */
    unsigned serveThreads = 1;
    /**
     * Start with dispatching held (ReasonEngine::resume() releases
     * it).  Lets tests and benchmarks build a backlog so coalescing is
     * deterministic rather than arrival-timing dependent.
     */
    bool startPaused = false;
    /**
     * Dispatcher threads draining the sharded queue.  Each dispatcher
     * owns a private evaluator cache and evaluation pool, so shards
     * can execute concurrently; 0 behaves as 1.  Results are
     * bit-identical for any count.
     */
    unsigned dispatchers = 1;
    /**
     * Max requests pending in the queue; 0 = unbounded.  At capacity
     * the engine sheds per `queuePolicy` with REASON_ERR_OVERLOAD
     * instead of letting latency grow without bound.
     */
    size_t queueCapacity = 0;
    /** What a full queue does with the overflow. */
    QueuePolicy queuePolicy = QueuePolicy::RejectNew;
};

/**
 * Completion token of one submission.  Cheap to copy; shares ownership
 * of the underlying request, so results remain readable for the
 * handle's lifetime.  Use Session::poll/wait to synchronize; call the
 * result accessors only after completion has been observed (poll()
 * returned true, wait() returned, or the engine was destroyed).
 */
class RequestHandle
{
  public:
    RequestHandle() = default;

    bool valid() const { return request_ != nullptr; }
    uint64_t id() const { return request_ ? request_->id : 0; }

    /**
     * Cancel the request if it is still queued, completing it with
     * REASON_ERR_CANCELLED.  Returns true on success; false when the
     * request already started executing (it will complete normally —
     * cancellation never yields a torn result), already finished, or
     * was rejected at submit.  Valid only while the engine is alive
     * (the same lifetime contract as poll/wait).
     */
    bool cancel()
    {
        return request_ != nullptr &&
               request_->ownerQueue != nullptr &&
               request_->ownerQueue->cancel(request_);
    }

    /** REASON_OK or the ReasonError the request failed with. */
    int error() const { return checked().error; }
    /** Per-row outputs (log-likelihoods / root values). */
    const std::vector<double> &outputs() const
    {
        return checked().outputs;
    }
    /**
     * Approximate tier: certified per-row interval endpoints,
     * boundsLo()[r] <= exact log-likelihood <= boundsHi()[r].
     * Empty for exact-tier requests.
     */
    const std::vector<double> &boundsLo() const
    {
        return checked().boundLo;
    }
    const std::vector<double> &boundsHi() const
    {
        return checked().boundHi;
    }
    /** Enqueue-to-completion latency in nanoseconds (0 until done). */
    uint64_t
    latencyNs() const
    {
        const Request &r = checked();
        return r.completedNs == 0 ? 0 : r.latencyNs();
    }

  private:
    const Request &checked() const
    {
        reasonAssert(request_ != nullptr,
                     "result access on an invalid handle");
        return *request_;
    }

    friend class Session;
    friend class ReasonEngine;
    explicit RequestHandle(std::shared_ptr<Request> request)
        : request_(std::move(request))
    {
    }

    std::shared_ptr<Request> request_;
};

/**
 * One client's view of the engine: it submits assignment rows over one
 * circuit and receives log-likelihoods.  Copyable (copies share the
 * underlying session state).
 */
class Session
{
  public:
    Session() = default;

    bool valid() const { return engine_ != nullptr; }

    /** Submit one assignment row: submitBatch with a single row. */
    RequestHandle submit(pc::Assignment row, double accuracyBudget = 0.0,
                         uint64_t deadlineNs = 0);

    /**
     * Submit many rows as one request.  Never blocks and never throws;
     * validation failures return an already-completed handle carrying
     * the ReasonError.  A request always executes as one evaluation,
     * even when it exceeds ServeOptions::maxBatch (the cap bounds
     * coalescing only); split bulk queries into several requests for
     * bounded dispatch units.
     *
     * The engine picks the tier from `accuracyBudget`.  Budget 0
     * routes to the exact tier; a positive budget routes to
     * REASON_MODE_APPROX, whose results carry certified per-row
     * bounds (RequestHandle::boundsLo/boundsHi) and are bit-identical
     * across threads, batch shapes, and dispatcher counts.  NaN,
     * infinite, or negative budgets fail with REASON_ERR_BAD_BUDGET.
     *
     * `deadlineNs` is *relative* to the submit call (anchored to the
     * steady clock here; 0 = no deadline).  A request whose deadline
     * passes while it is still queued completes with
     * REASON_ERR_DEADLINE_EXCEEDED; once a dispatcher picks it up it
     * always completes normally, so answered results stay
     * bit-identical to deadline-less runs.
     *
     * `onDone`, when set, is the request's completion callback: it runs
     * exactly once, after the request is Done, on every terminal path
     * (see CompletionCallback) — on this thread, before submitBatch
     * returns, when the request is rejected at submission.  wait/poll
     * keep working alongside it.
     */
    RequestHandle submitBatch(std::vector<pc::Assignment> rows,
                              double accuracyBudget = 0.0,
                              uint64_t deadlineNs = 0,
                              CompletionCallback onDone = {});

    /** True once the request completed (success or error). */
    bool poll(const RequestHandle &handle) const;

    /**
     * Block until the request completes; returns the completed request
     * as a shared owner, so the result stays readable even when the
     * handle was a temporary and the engine has moved on.  Waiting on
     * an invalid handle is an error.
     */
    std::shared_ptr<const Request> wait(const RequestHandle &handle) const;

  private:
    friend class ReasonEngine;
    Session(ReasonEngine *engine, std::shared_ptr<SessionState> state)
        : engine_(engine), state_(std::move(state))
    {
    }

    RequestHandle finishRejected(std::shared_ptr<Request> request,
                                 int error) const;

    ReasonEngine *engine_ = nullptr;
    std::shared_ptr<SessionState> state_;
};

/**
 * The asynchronous serving engine.  See the file comment for the
 * execution and determinism model.  Destroying the engine fails
 * still-queued requests with REASON_ERR_SHUTDOWN, finishes the groups
 * in flight, and joins every dispatcher.
 */
class ReasonEngine
{
  public:
    explicit ReasonEngine(const ServeOptions &options = {});
    ~ReasonEngine();

    ReasonEngine(const ReasonEngine &) = delete;
    ReasonEngine &operator=(const ReasonEngine &) = delete;

    /**
     * Open a serving session over a probabilistic circuit.  The
     * lowering is obtained through pc::cachedLowering, so sessions
     * over structurally identical circuits share one lowering — and
     * therefore one coalescing key.  The circuit itself is not
     * retained and may be destroyed after the call.
     */
    Session createSession(const pc::Circuit &circuit);

    /**
     * Open a serving session over an already-flat circuit (a direct
     * d-DNNF lowering or a streamed `.nnf` load — pc/from_logic).  No
     * heap Circuit ever exists on this path, so there is nothing to
     * cache-key by: sessions sharing one FlatCircuit object share one
     * coalescing key; distinct objects never coalesce even when
     * structurally equal.  The engine holds a reference for the
     * session's lifetime.
     */
    Session createSession(std::shared_ptr<const pc::FlatCircuit> lowering);

    /** Hold dispatching; queued submissions accumulate (and coalesce). */
    void pause();
    /** Release a pause() (or a startPaused construction). */
    void resume();

    /**
     * Graceful drain: close admission (subsequent submissions complete
     * immediately with REASON_ERR_SHUTTING_DOWN), release any pause,
     * finish queued work within `deadlineNs` (relative to the call;
     * 0 = expire everything still queued right away), then expire the
     * rest with REASON_ERR_DEADLINE_EXCEEDED.  In-flight groups are
     * always waited out — they complete normally.  Returns true when
     * every queued request finished without expiry.  The engine stays
     * alive (handles remain readable; destruction still does the final
     * shutdown); drain is one-way and idempotent.
     */
    bool drain(uint64_t deadlineNs);

    EngineStats stats() const;
    const ServeOptions &options() const { return options_; }

  private:
    friend class Session;

    struct CachedEvaluator
    {
        std::shared_ptr<const pc::FlatCircuit> flat;
        std::unique_ptr<pc::CircuitEvaluator> eval;
    };

    /**
     * Approximate-tier cache key: one evaluator per (lowering,
     * budget).  The budget participates as its IEEE-754 bit pattern
     * so distinct budgets never alias (and -0.0 != +0.0 never
     * matters: submission validation routes budget 0 to the exact
     * tier).
     */
    struct ApproxKey
    {
        const pc::FlatCircuit *flat = nullptr;
        uint64_t budgetBits = 0;
        bool operator==(const ApproxKey &o) const
        {
            return flat == o.flat && budgetBits == o.budgetBits;
        }
    };
    struct ApproxKeyHash
    {
        size_t operator()(const ApproxKey &k) const
        {
            return std::hash<const void *>()(k.flat) ^
                   (std::hash<uint64_t>()(k.budgetBits) *
                    0x9e3779b97f4a7c15ull);
        }
    };
    struct CachedApprox
    {
        std::shared_ptr<const pc::FlatCircuit> flat;
        std::unique_ptr<pc::ApproxEvaluator> eval;
    };

    /**
     * Per-dispatcher private state: evaluator cache, reused scratch,
     * and the evaluation pool.  Touched only by the owning dispatcher
     * thread, so dispatchers never share evaluation state — the basis
     * of the bit-identity-for-any-dispatcher-count contract.
     */
    struct Dispatcher
    {
        std::unordered_map<const pc::FlatCircuit *, CachedEvaluator>
            evaluators;
        /** Approximate-tier evaluators, keyed (lowering, budget). */
        std::unordered_map<ApproxKey, CachedApprox, ApproxKeyHash>
            approxEvaluators;
        /** Reused approx scratch: the group ordered by budget, and
         *  the results of one budget's gathered rows. */
        std::vector<Request *> approxOrder;
        std::vector<pc::ApproxResult> approxOut;
        /** Reused group scratch (rows, outputs) — no per-batch
         *  allocation once warm. */
        std::vector<pc::Assignment> groupRows;
        std::vector<double> groupOut;
        std::unique_ptr<util::ThreadPool> evalPool;
        std::thread thread;
    };

    void workerLoop(Dispatcher &disp);
    void executeGroup(Dispatcher &disp,
                      const std::vector<std::shared_ptr<Request>> &group);
    void executeCircuitGroup(
        Dispatcher &disp,
        const std::vector<std::shared_ptr<Request>> &group);
    void executeApproxGroup(
        Dispatcher &disp,
        const std::vector<std::shared_ptr<Request>> &group);
    pc::CircuitEvaluator &evaluatorFor(Dispatcher &disp,
                                       const pc::FlatCircuit &flat,
                                       std::shared_ptr<const pc::FlatCircuit>
                                           keepAlive);
    pc::ApproxEvaluator &approxEvaluatorFor(
        Dispatcher &disp, const pc::FlatCircuit &flat, double budget,
        std::shared_ptr<const pc::FlatCircuit> keepAlive);
    RequestHandle enqueue(const std::shared_ptr<Request> &request);

    ServeOptions options_;
    RequestQueue queue_;
    std::atomic<uint64_t> nextId_{1};
    std::vector<std::unique_ptr<Dispatcher>> dispatchers_;
};

} // namespace sys
} // namespace reason

#endif // REASON_SYS_ENGINE_H
