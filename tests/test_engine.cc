/**
 * @file
 * Serving-engine tests (sys::ReasonEngine, sys/engine.h):
 *
 *  - coalesced vs one-at-a-time determinism: a request's outputs are
 *    bit-identical no matter how the engine batched it (the canonical
 *    SIMD block-kernel contract of flat_pc.h), and independent of
 *    serveThreads;
 *  - concurrent multi-session submit/wait from several client threads
 *    (the TSan target for the queue/dispatcher synchronization);
 *  - poll-vs-wait equivalence;
 *  - the Listing-1 runtime: equality with the pre-redesign
 *    ReasonRuntime behavior (aliased buffers included) and the
 *    documented distinct error codes;
 *  - queue behavior: pause/resume occupancy, shutdown failure of
 *    still-queued requests, cross-circuit group separation;
 *  - completion callbacks: exactly once on every terminal path, on a
 *    readable request, never under the queue mutex.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "compiler/compile.h"
#include "dag_test_util.h"
#include "pc/flat_cache.h"
#include "random_circuit.h"
#include "sys/engine.h"
#include "sys/reason_api.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::sys;

namespace {

bool
bitEqual(double a, double b)
{
    uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof ba);
    std::memcpy(&bb, &b, sizeof bb);
    return ba == bb;
}

/** Complete-evidence dataset over a circuit's variables. */
std::vector<pc::Assignment>
sampleRows(Rng &rng, const pc::Circuit &circuit, size_t count)
{
    return pc::sampleDataset(rng, circuit, count);
}

/** One-at-a-time engine outputs: the coalescing-free reference. */
std::vector<double>
serveOneAtATime(const pc::Circuit &circuit,
                const std::vector<pc::Assignment> &rows,
                unsigned serve_threads = 1)
{
    ServeOptions options;
    options.maxBatch = 1;
    options.serveThreads = serve_threads;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    std::vector<double> out;
    for (const pc::Assignment &x : rows)
        out.push_back(session.wait(session.submit(x))->outputs[0]);
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Circuit sessions: determinism of coalesced vs one-at-a-time.
// ---------------------------------------------------------------------------

TEST(EngineCircuit, SubmitWaitMatchesReferenceWalker)
{
    Rng rng(101);
    pc::Circuit circuit = pc::randomCircuit(rng, 24, 2, 3, 6);
    std::vector<pc::Assignment> rows = sampleRows(rng, circuit, 20);

    ReasonEngine engine;
    Session session = engine.createSession(circuit);
    for (const pc::Assignment &x : rows) {
        std::shared_ptr<const Request> r =
            session.wait(session.submit(x));
        EXPECT_EQ(r->error, REASON_OK);
        ASSERT_EQ(r->outputs.size(), 1u);
        // The engine runs the SoA block path; the reference walker is
        // the correctness oracle within the flat-engine contract.
        EXPECT_NEAR(r->outputs[0], circuit.logLikelihood(x), 1e-10);
        EXPECT_GT(r->latencyNs(), 0u);
    }
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requests, rows.size());
    EXPECT_EQ(stats.completed, rows.size());
}

TEST(EngineCircuit, CoalescedBitIdenticalToOneAtATime)
{
    Rng rng(102);
    pc::Circuit circuit = pc::randomCircuit(rng, 32, 2, 4, 8);
    std::vector<pc::Assignment> rows = sampleRows(rng, circuit, 61);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    // Coalesce across two sessions with a held dispatcher, through
    // several maxBatch shapes (including ones that force masked
    // tail lanes).
    for (unsigned max_batch : {2u, 7u, 16u, 64u}) {
        ServeOptions options;
        options.maxBatch = max_batch;
        options.startPaused = true;
        ReasonEngine engine(options);
        Session a = engine.createSession(circuit);
        Session b = engine.createSession(circuit);
        std::vector<RequestHandle> handles;
        for (size_t i = 0; i < rows.size(); ++i)
            handles.push_back((i % 2 ? b : a).submit(rows[i]));
        engine.resume();
        for (size_t i = 0; i < rows.size(); ++i) {
            std::shared_ptr<const Request> r =
                (i % 2 ? b : a).wait(handles[i]);
            EXPECT_EQ(r->error, REASON_OK);
            EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
                << "maxBatch " << max_batch << " row " << i;
        }
        if (max_batch > 1) {
            EXPECT_GT(engine.stats().meanBatchOccupancy, 1.0);
        }
    }
}

TEST(EngineCircuit, ServeThreadsNeverChangeResults)
{
    Rng rng(103);
    pc::Circuit circuit = pc::randomCircuit(rng, 48, 2, 4, 8);
    std::vector<pc::Assignment> rows = sampleRows(rng, circuit, 33);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    for (unsigned threads : {2u, 4u}) {
        ServeOptions options;
        options.maxBatch = 16;
        options.serveThreads = threads;
        options.startPaused = true;
        ReasonEngine engine(options);
        Session session = engine.createSession(circuit);
        std::vector<RequestHandle> handles;
        for (const pc::Assignment &x : rows)
            handles.push_back(session.submit(x));
        engine.resume();
        for (size_t i = 0; i < rows.size(); ++i)
            EXPECT_TRUE(bitEqual(
                session.wait(handles[i])->outputs[0], reference[i]))
                << "threads " << threads << " row " << i;
    }
}

TEST(EngineCircuit, SubmitBatchMatchesSingleSubmits)
{
    Rng rng(104);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 3, 6);
    std::vector<pc::Assignment> rows = sampleRows(rng, circuit, 13);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ReasonEngine engine;
    Session session = engine.createSession(circuit);
    std::shared_ptr<const Request> r =
        session.wait(session.submitBatch(rows));
    EXPECT_EQ(r->error, REASON_OK);
    ASSERT_EQ(r->outputs.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_TRUE(bitEqual(r->outputs[i], reference[i])) << i;
}

TEST(EngineCircuit, MarginalQueriesAndDegenerateStructures)
{
    // Partial assignments (kMissing marginalization) over the
    // degenerate random structures of the differential harness.
    Rng rng(105);
    for (int round = 0; round < 10; ++round) {
        pc::Circuit circuit = testutil::randomTestCircuit(rng);
        std::vector<pc::Assignment> rows =
            testutil::randomPartialAssignments(rng, circuit, 9, 0.3);
        std::vector<double> reference = serveOneAtATime(circuit, rows);

        ServeOptions options;
        options.startPaused = true;
        ReasonEngine engine(options);
        Session session = engine.createSession(circuit);
        std::vector<RequestHandle> handles;
        for (const pc::Assignment &x : rows)
            handles.push_back(session.submit(x));
        engine.resume();
        for (size_t i = 0; i < rows.size(); ++i) {
            std::shared_ptr<const Request> r =
                session.wait(handles[i]);
            EXPECT_EQ(r->error, REASON_OK);
            EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
                << "round " << round << " row " << i;
            const double oracle = circuit.logLikelihood(rows[i]);
            if (std::isinf(oracle))
                EXPECT_EQ(r->outputs[0], oracle);
            else
                EXPECT_NEAR(r->outputs[0], oracle, 1e-10);
        }
    }
}

TEST(EngineCircuit, DistinctCircuitsNeverShareBatches)
{
    Rng rng(106);
    pc::Circuit c1 = pc::randomCircuit(rng, 12, 2, 3, 4);
    pc::Circuit c2 = pc::randomCircuit(rng, 20, 2, 3, 4);
    std::vector<pc::Assignment> r1 = sampleRows(rng, c1, 10);
    std::vector<pc::Assignment> r2 = sampleRows(rng, c2, 10);
    std::vector<double> ref1 = serveOneAtATime(c1, r1);
    std::vector<double> ref2 = serveOneAtATime(c2, r2);

    ServeOptions options;
    options.startPaused = true;
    ReasonEngine engine(options);
    Session s1 = engine.createSession(c1);
    Session s2 = engine.createSession(c2);
    std::vector<RequestHandle> h1, h2;
    for (size_t i = 0; i < r1.size(); ++i) {
        h1.push_back(s1.submit(r1[i]));
        h2.push_back(s2.submit(r2[i]));
    }
    engine.resume();
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_TRUE(bitEqual(s1.wait(h1[i])->outputs[0], ref1[i]));
        EXPECT_TRUE(bitEqual(s2.wait(h2[i])->outputs[0], ref2[i]));
    }
    // Interleaved submissions over two distinct lowerings: at least
    // two batches, and every batch carried one key only (implied by
    // the correct per-circuit results above).
    EXPECT_GE(engine.stats().batches, 2u);
}

// ---------------------------------------------------------------------------
// Poll vs wait.
// ---------------------------------------------------------------------------

TEST(EnginePoll, PollVsWaitEquivalence)
{
    Rng rng(107);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 3, 6);
    std::vector<pc::Assignment> rows = sampleRows(rng, circuit, 8);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ReasonEngine engine;
    Session session = engine.createSession(circuit);
    for (size_t i = 0; i < rows.size(); ++i) {
        RequestHandle h = session.submit(rows[i]);
        // Spin on poll: must converge without ever calling wait.
        while (!session.poll(h))
            std::this_thread::yield();
        // Results are readable through the handle once poll says done.
        EXPECT_EQ(h.error(), REASON_OK);
        EXPECT_TRUE(bitEqual(h.outputs()[0], reference[i]));
        // wait() after completion returns immediately, same result.
        EXPECT_TRUE(bitEqual(session.wait(h)->outputs[0],
                             reference[i]));
        EXPECT_TRUE(session.poll(h));
    }
}

// ---------------------------------------------------------------------------
// Concurrent multi-session serving (TSan target).
// ---------------------------------------------------------------------------

TEST(EngineConcurrent, MultiSessionSubmitWait)
{
    Rng rng(108);
    pc::Circuit circuit = pc::randomCircuit(rng, 32, 2, 4, 8);
    constexpr size_t kClients = 4;
    constexpr size_t kPerClient = 24;
    std::vector<pc::Assignment> rows =
        sampleRows(rng, circuit, kClients * kPerClient);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ServeOptions options;
    options.maxBatch = 16;
    ReasonEngine engine(options);
    std::vector<Session> sessions;
    for (size_t c = 0; c < kClients; ++c)
        sessions.push_back(engine.createSession(circuit));

    std::vector<std::vector<double>> got(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            // Mixed submit styles, async then wait — many client
            // threads against one queue and dispatcher.
            std::vector<RequestHandle> handles;
            for (size_t q = 0; q < kPerClient; ++q)
                handles.push_back(
                    sessions[c].submit(rows[c * kPerClient + q]));
            for (RequestHandle &h : handles) {
                std::shared_ptr<const Request> r = sessions[c].wait(h);
                ASSERT_EQ(r->error, REASON_OK);
                got[c].push_back(r->outputs[0]);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (size_t c = 0; c < kClients; ++c)
        for (size_t q = 0; q < kPerClient; ++q)
            EXPECT_TRUE(bitEqual(got[c][q],
                                 reference[c * kPerClient + q]))
                << "client " << c << " query " << q;
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requests, rows.size());
    EXPECT_EQ(stats.completed, rows.size());
}

// ---------------------------------------------------------------------------
// Submission validation and lifecycle errors.
// ---------------------------------------------------------------------------

TEST(EngineErrors, DistinctSubmissionErrorCodes)
{
    Rng rng(110);
    pc::Circuit circuit = pc::randomCircuit(rng, 8, 2, 3, 4);

    ReasonEngine engine;
    Session circuit_session = engine.createSession(circuit);

    // Empty batch.
    RequestHandle h = circuit_session.submitBatch({});
    EXPECT_TRUE(circuit_session.poll(h));
    EXPECT_EQ(h.error(), REASON_ERR_BAD_BATCH);

    // Assignment shape violations.
    EXPECT_EQ(circuit_session.submit(pc::Assignment{0, 1}).error(),
              REASON_ERR_BAD_ASSIGNMENT); // too short
    pc::Assignment bad(8, 0);
    bad[3] = 5; // arity is 2
    EXPECT_EQ(circuit_session.submit(bad).error(),
              REASON_ERR_BAD_ASSIGNMENT);

    // Submits through a default-constructed session.
    Session invalid;
    EXPECT_EQ(invalid.submit(pc::Assignment(8, 0)).error(),
              REASON_ERR_WRONG_SESSION);
    // Rejection handles from an invalid session are still observable
    // through that session (completed synchronously, no engine needed).
    RequestHandle rejected = invalid.submit(pc::Assignment(8, 0));
    EXPECT_TRUE(invalid.poll(rejected));
    EXPECT_EQ(invalid.wait(rejected)->error,
              REASON_ERR_WRONG_SESSION);

    // Rejected handles complete immediately; waiting is a no-op.
    EXPECT_EQ(circuit_session.wait(circuit_session.submitBatch({}))
                  ->error,
              REASON_ERR_BAD_BATCH);

    // Valid submissions still succeed afterwards.
    pc::Assignment ok(8, 0);
    EXPECT_EQ(circuit_session.wait(circuit_session.submit(ok))->error,
              REASON_OK);
}

TEST(EngineErrors, ShutdownFailsQueuedRequests)
{
    Rng rng(111);
    pc::Circuit circuit = pc::randomCircuit(rng, 8, 2, 3, 4);
    std::vector<pc::Assignment> rows = sampleRows(rng, circuit, 4);

    std::vector<RequestHandle> handles;
    {
        ServeOptions options;
        options.startPaused = true; // requests stay queued
        ReasonEngine engine(options);
        Session session = engine.createSession(circuit);
        for (const pc::Assignment &x : rows)
            handles.push_back(session.submit(x));
        // Engine destroyed with the queue still paused.
    }
    for (RequestHandle &h : handles) {
        // Handles outlive the engine; results are final.
        EXPECT_EQ(h.error(), REASON_ERR_SHUTDOWN);
        EXPECT_TRUE(h.outputs().empty());
    }
}

// ---------------------------------------------------------------------------
// Listing-1 runtime (sys/reason_api.h).
// ---------------------------------------------------------------------------

TEST(CompatShim, MatchesPreRedesignRuntimeOnSeedWorkload)
{
    Rng rng(112);
    core::Dag dag = testutil::randomDag(rng, 5, 30, 3);
    arch::ArchConfig cfg;
    compiler::Program prog =
        compiler::compile(dag, cfg.compilerTarget());

    constexpr int kBatchSize = 4;
    std::vector<double> neural;
    std::vector<std::vector<double>> per_item;
    for (int b = 0; b < kBatchSize; ++b) {
        auto x = testutil::randomInputs(rng, 5);
        per_item.push_back(x);
        neural.insert(neural.end(), x.begin(), x.end());
    }

    // Pre-redesign oracle: the exact per-row accelerator loop the old
    // ReasonRuntime::REASON_execute ran (preloaded from row 1 on).
    arch::Accelerator accel(cfg);
    std::vector<double> expected(kBatchSize, 0.0);
    uint64_t expected_cycles = 0;
    arch::ExecutionResult expected_last;
    for (int b = 0; b < kBatchSize; ++b) {
        std::vector<double> row(per_item[b]);
        arch::ExecutionResult r = accel.run(prog, row, b > 0);
        expected[b] = r.rootValue;
        expected_cycles += r.cycles;
        if (b == kBatchSize - 1)
            expected_last = r;
    }

    ReasonRuntime rt(cfg, prog);
    std::vector<double> symbolic(kBatchSize, 0.0);
    int mode = REASON_MODE_PROBABILISTIC;
    ASSERT_EQ(rt.REASON_execute(3, kBatchSize, neural.data(), &mode,
                                symbolic.data()),
              REASON_OK);
    for (int b = 0; b < kBatchSize; ++b) {
        EXPECT_TRUE(bitEqual(symbolic[b], expected[b])) << b;
        // The accelerator is bit-identical to Dag::evaluate by
        // contract; check the chain end to end too.
        EXPECT_DOUBLE_EQ(symbolic[b], dag.evaluateRoot(per_item[b]));
    }
    EXPECT_EQ(rt.totalCycles(), expected_cycles);
    ASSERT_EQ(rt.results().count(3), 1u);
    EXPECT_EQ(rt.results().at(3).cycles, expected_last.cycles);
    EXPECT_TRUE(
        bitEqual(rt.results().at(3).rootValue, expected_last.rootValue));

    // Listing-1 status machine and shared-memory flags.
    EXPECT_EQ(rt.REASON_check_status(3, false), REASON_IDLE);
    EXPECT_TRUE(rt.sharedMemory().symbolicReady);
    EXPECT_FALSE(rt.sharedMemory().neuralReady);
    EXPECT_EQ(rt.sharedMemory().symbolicBuffer.size(),
              size_t(kBatchSize));

    // One buffer as both the neural and the symbolic argument: every
    // row is read before its output lands in the buffer.
    ReasonRuntime aliased_rt(cfg, prog);
    std::vector<double> shared = neural;
    ASSERT_EQ(aliased_rt.REASON_execute(3, kBatchSize, shared.data(),
                                        &mode, shared.data()),
              REASON_OK);
    for (int b = 0; b < kBatchSize; ++b)
        EXPECT_TRUE(bitEqual(shared[b], symbolic[b])) << b;
}

TEST(CompatShim, DistinctErrorCodes)
{
    Rng rng(113);
    core::Dag dag = testutil::randomDag(rng, 3, 10, 3);
    arch::ArchConfig cfg;
    ReasonRuntime rt(cfg, compiler::compile(dag, cfg.compilerTarget()));
    std::vector<double> buf(8, 0.5);

    EXPECT_EQ(rt.REASON_execute(0, 0, buf.data(), nullptr, buf.data()),
              REASON_ERR_BAD_BATCH);
    EXPECT_EQ(rt.REASON_execute(0, -3, buf.data(), nullptr, buf.data()),
              REASON_ERR_BAD_BATCH);
    EXPECT_EQ(rt.REASON_execute(0, 1, nullptr, nullptr, buf.data()),
              REASON_ERR_NULL_BUFFER);
    EXPECT_EQ(rt.REASON_execute(0, 1, buf.data(), nullptr, nullptr),
              REASON_ERR_NULL_BUFFER);
    int bad_mode = 42;
    EXPECT_EQ(rt.REASON_execute(0, 1, buf.data(), &bad_mode,
                                buf.data()),
              REASON_ERR_BAD_MODE);

    // Errors leave no trace: the id is still available.
    EXPECT_EQ(rt.REASON_check_status(0, false), REASON_IDLE);
    EXPECT_EQ(rt.totalCycles(), 0u);

    // Duplicate batch ids are a documented error (previously a silent
    // last-write-wins overwrite).
    int mode = REASON_MODE_PROBABILISTIC;
    EXPECT_EQ(rt.REASON_execute(7, 1, buf.data(), &mode, buf.data()),
              REASON_OK);
    EXPECT_EQ(rt.REASON_execute(7, 1, buf.data(), &mode, buf.data()),
              REASON_ERR_DUPLICATE_BATCH);
    EXPECT_EQ(rt.results().size(), 1u);
}

// ---------------------------------------------------------------------------
// Completion callbacks.
// ---------------------------------------------------------------------------

namespace {

/**
 * Records completion callbacks by a test-chosen tag.  Every callback
 * checks that its request is readable on arrival and runs `probe`,
 * which takes a stats snapshot: that locks the queue mutex, so a
 * callback run under it would deadlock.
 */
struct CallbackLog
{
    struct Entry
    {
        int calls = 0;
        int error = REASON_OK;
        size_t outputs = 0;
    };

    std::function<void()> probe;
    std::mutex mutex;
    std::map<int, Entry> entries;

    CompletionCallback
    at(int tag)
    {
        return [this, tag](const Request &r) {
            EXPECT_EQ(r.state, RequestState::Done) << "tag " << tag;
            probe();
            std::lock_guard<std::mutex> lock(mutex);
            Entry &e = entries[tag];
            ++e.calls;
            e.error = r.error;
            e.outputs = r.outputs.size();
        };
    }

    Entry
    get(int tag)
    {
        std::lock_guard<std::mutex> lock(mutex);
        return entries[tag];
    }

    /** Tag `tag` fired exactly once, with `error` and `outputs`. */
    void
    expectOnce(int tag, int error, size_t outputs = 0)
    {
        const Entry e = get(tag);
        EXPECT_EQ(e.calls, 1) << "tag " << tag;
        EXPECT_EQ(e.error, error) << "tag " << tag;
        EXPECT_EQ(e.outputs, outputs) << "tag " << tag;
    }
};

std::shared_ptr<Request>
queuedRequest(CallbackLog &log, int tag, uint64_t deadlineNs = 0)
{
    auto r = std::make_shared<Request>();
    r->rows = {pc::Assignment{0}};
    r->deadlineNs = deadlineNs;
    r->onDone = log.at(tag);
    return r;
}

} // namespace

TEST(EngineCallbacks, QueueFiresOnceOnEveryTerminalPath)
{
    CallbackLog log;
    const auto fresh = [&](QueueOptions options = {}) {
        auto q = std::make_unique<RequestQueue>(options);
        log.probe = [q = q.get()] { (void)q->stats(); };
        return q;
    };

    {   // Dispatched and completed.
        auto q = fresh();
        q->push(queuedRequest(log, 1));
        auto group = q->popGroup(8);
        ASSERT_EQ(group.size(), 1u);
        EXPECT_EQ(log.get(1).calls, 0);
        group[0]->outputs = {-1.5};
        q->complete(group);
        log.expectOnce(1, REASON_OK, 1);
    }
    {   // Pushed after shutdown, and still queued at shutdown.
        auto q = fresh();
        q->push(queuedRequest(log, 2));
        q->shutdown();
        log.expectOnce(2, REASON_ERR_SHUTDOWN);
        q->push(queuedRequest(log, 3));
        log.expectOnce(3, REASON_ERR_SHUTDOWN);
    }
    {   // Pushed while draining; then drain expiry of queued work.
        auto q = fresh();
        q->push(queuedRequest(log, 4));
        q->beginDrain();
        q->push(queuedRequest(log, 5));
        log.expectOnce(5, REASON_ERR_SHUTTING_DOWN);
        EXPECT_FALSE(q->drainWait(steadyNowNs()));
        log.expectOnce(4, REASON_ERR_DEADLINE_EXCEEDED);
    }
    {   // RejectNew at capacity.
        auto q = fresh({1, QueuePolicy::RejectNew});
        q->push(queuedRequest(log, 6));
        q->push(queuedRequest(log, 7));
        log.expectOnce(7, REASON_ERR_OVERLOAD);
        EXPECT_EQ(log.get(6).calls, 0);
    }
    {   // ShedOldest victim, completed on the pushing thread.
        auto q = fresh({1, QueuePolicy::ShedOldest});
        q->push(queuedRequest(log, 8));
        q->push(queuedRequest(log, 9));
        log.expectOnce(8, REASON_ERR_OVERLOAD);
        EXPECT_EQ(log.get(9).calls, 0);
    }
    {   // Pop-time expiry: the gather meets an expired lane head.
        auto q = fresh();
        q->push(queuedRequest(log, 10));
        q->push(queuedRequest(log, 11, steadyNowNs() - 1));
        auto group = q->popGroup(8);
        ASSERT_EQ(group.size(), 1u);
        log.expectOnce(11, REASON_ERR_DEADLINE_EXCEEDED);
        q->complete(group);
        log.expectOnce(10, REASON_OK);
    }
    {   // Sweep expiry and cancellation.
        auto q = fresh();
        q->push(queuedRequest(log, 12, steadyNowNs() - 1));
        EXPECT_EQ(q->sweepExpired(), 1u);
        log.expectOnce(12, REASON_ERR_DEADLINE_EXCEEDED);
        auto r = queuedRequest(log, 13);
        q->push(r);
        EXPECT_TRUE(q->cancel(r));
        EXPECT_FALSE(q->cancel(r));
        log.expectOnce(13, REASON_ERR_CANCELLED);
    }
}

TEST(EngineCallbacks, SessionFiresOnceOnEveryTerminalPath)
{
    Rng rng(116);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 3, 6);
    std::vector<pc::Assignment> rows = sampleRows(rng, circuit, 4);
    std::vector<double> reference = serveOneAtATime(circuit, rows);
    const auto waitCalls = [](CallbackLog &log, int tag) {
        for (int i = 0; i < 5000 && log.get(tag).calls == 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };

    CallbackLog log;
    {
        ServeOptions options;
        options.startPaused = true;
        options.dispatchers = 2;
        ReasonEngine engine(options);
        log.probe = [&engine] { (void)engine.stats(); };
        Session session = engine.createSession(circuit);

        // Rejected at submission: run on this thread before returning.
        session.submitBatch({}, 0.0, 0, log.at(1));
        log.expectOnce(1, REASON_ERR_BAD_BATCH);
        session.submitBatch({rows[0]}, -1.0, 0, log.at(2));
        log.expectOnce(2, REASON_ERR_BAD_BUDGET);

        // Queued while paused: a deadline expires through the paused
        // dispatchers' sweep; the rest execute on resume.
        session.submitBatch({rows[0]}, 0.0, 1'000'000ull, log.at(3));
        RequestHandle batch =
            session.submitBatch(rows, 0.0, 0, log.at(4));
        waitCalls(log, 3);
        log.expectOnce(3, REASON_ERR_DEADLINE_EXCEEDED);
        EXPECT_EQ(log.get(4).calls, 0);
        engine.resume();
        std::shared_ptr<const Request> r = session.wait(batch);
        waitCalls(log, 4);
        log.expectOnce(4, REASON_OK, rows.size());
        for (size_t i = 0; i < rows.size(); ++i)
            EXPECT_TRUE(bitEqual(r->outputs[i], reference[i])) << i;

        // Admission closed by drain.
        EXPECT_TRUE(engine.drain(30'000'000'000ull));
        session.submitBatch({rows[1]}, 0.0, 0, log.at(5));
        log.expectOnce(5, REASON_ERR_SHUTTING_DOWN);

        // Still queued when the engine is destroyed.
        ReasonEngine paused(options);
        log.probe = [&paused] { (void)paused.stats(); };
        Session s2 = paused.createSession(circuit);
        s2.submitBatch({rows[2]}, 0.0, 0, log.at(6));
    }
    log.expectOnce(6, REASON_ERR_SHUTDOWN);
}
