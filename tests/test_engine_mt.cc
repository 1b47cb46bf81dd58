/**
 * @file
 * Scale-out serving tests (sys::ReasonEngine with multiple dispatcher
 * threads, bounded queues, and the socket wire protocol):
 *
 *  - bit-identity: outputs match one-at-a-time submission for every
 *    dispatcher count x queue policy combination (the determinism
 *    contract shedding and scale-out must not weaken);
 *  - backpressure: a full bounded queue rejects (RejectNew) or sheds
 *    (ShedOldest) with REASON_ERR_OVERLOAD, with exact deterministic
 *    accounting when the backlog is built under pause, and the queue
 *    depth never exceeds capacity;
 *  - fairness: a flooding session cannot starve a light session —
 *    per-session lanes are drained round-robin, so the light rows
 *    start well before the flood's tail;
 *  - wire protocol: encode/decode round-trips every frame type with
 *    bit-exact doubles, and malformed input (truncations, bad
 *    lengths, unknown types, random garbage) poisons the decoder
 *    instead of crashing — this file is part of the TSan/ASan CI
 *    matrix, so the concurrency paths run under the sanitizers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "random_circuit.h"
#include "sys/engine.h"
#include "sys/wire.h"
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

/** One-at-a-time engine outputs: the coalescing-free reference. */
std::vector<double>
serveOneAtATime(const pc::Circuit &circuit,
                const std::vector<pc::Assignment> &rows)
{
    ServeOptions options;
    options.maxBatch = 1;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    std::vector<double> out;
    for (const pc::Assignment &x : rows)
        out.push_back(session.wait(session.submit(x))->outputs[0]);
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Bit-identity across dispatcher counts and queue policies.
// ---------------------------------------------------------------------------

TEST(EngineMt, BitIdenticalAcrossDispatchersAndPolicies)
{
    Rng rng(901);
    pc::Circuit circuit = pc::randomCircuit(rng, 28, 2, 4, 7);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 53);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    constexpr size_t kSessions = 3;
    for (unsigned dispatchers : {1u, 2u, 4u}) {
        for (QueuePolicy policy :
             {QueuePolicy::RejectNew, QueuePolicy::ShedOldest}) {
            ServeOptions options;
            options.maxBatch = 8;
            options.dispatchers = dispatchers;
            options.queuePolicy = policy;
            options.startPaused = true;
            ReasonEngine engine(options);
            std::vector<Session> sessions;
            for (size_t s = 0; s < kSessions; ++s)
                sessions.push_back(engine.createSession(circuit));
            std::vector<RequestHandle> handles;
            for (size_t i = 0; i < rows.size(); ++i)
                handles.push_back(
                    sessions[i % kSessions].submit(rows[i]));
            engine.resume();
            for (size_t i = 0; i < rows.size(); ++i) {
                std::shared_ptr<const Request> r =
                    sessions[i % kSessions].wait(handles[i]);
                ASSERT_EQ(r->error, REASON_OK)
                    << dispatchers << " dispatchers, request " << i;
                EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
                    << dispatchers << " dispatchers, request " << i;
            }
            EngineStats stats = engine.stats();
            EXPECT_EQ(stats.completed, rows.size());
            EXPECT_EQ(stats.executed, rows.size());
            EXPECT_EQ(stats.shedRequests, 0u);
        }
    }
}

// ---------------------------------------------------------------------------
// Backpressure and load shedding on a bounded queue.
// ---------------------------------------------------------------------------

TEST(EngineMt, RejectNewFailsOverflowWithOverloadError)
{
    Rng rng(902);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 3, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 24);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    const size_t capacity = rows.size() / 2;
    ServeOptions options;
    options.maxBatch = 4;
    options.dispatchers = 2;
    options.queueCapacity = capacity;
    options.queuePolicy = QueuePolicy::RejectNew;
    options.startPaused = true;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (const pc::Assignment &x : rows)
        handles.push_back(session.submit(x));
    // RejectNew admits the first `capacity` submissions and fails the
    // rest immediately — before resume() even runs a batch.
    for (size_t i = capacity; i < rows.size(); ++i) {
        EXPECT_TRUE(session.poll(handles[i])) << "request " << i;
        EXPECT_EQ(session.wait(handles[i])->error,
                  REASON_ERR_OVERLOAD)
            << "request " << i;
    }
    engine.resume();
    for (size_t i = 0; i < capacity; ++i) {
        std::shared_ptr<const Request> r = session.wait(handles[i]);
        ASSERT_EQ(r->error, REASON_OK) << "request " << i;
        EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
            << "request " << i;
    }
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.shedRequests, rows.size() - capacity);
    EXPECT_LE(stats.maxQueueDepth, capacity);
    // Latency means count only the requests that actually executed;
    // instant rejections must not drag the means toward zero.
    EXPECT_EQ(stats.completed, rows.size());
    EXPECT_EQ(stats.executed, capacity);
}

TEST(EngineMt, ShedOldestKeepsNewestAndBoundsDepth)
{
    Rng rng(903);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 3, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 26);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    const size_t capacity = rows.size() / 2;
    ServeOptions options;
    options.maxBatch = 4;
    options.dispatchers = 2;
    options.queueCapacity = capacity;
    options.queuePolicy = QueuePolicy::ShedOldest;
    options.startPaused = true;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (const pc::Assignment &x : rows)
        handles.push_back(session.submit(x));
    engine.resume();
    // ShedOldest evicts the globally oldest queued request per
    // over-capacity admission, so under a paused backlog exactly the
    // first half is shed and the newest half executes.
    for (size_t i = 0; i < rows.size(); ++i) {
        std::shared_ptr<const Request> r = session.wait(handles[i]);
        if (i < rows.size() - capacity) {
            EXPECT_EQ(r->error, REASON_ERR_OVERLOAD)
                << "request " << i;
        } else {
            ASSERT_EQ(r->error, REASON_OK) << "request " << i;
            EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
                << "request " << i;
        }
    }
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.shedRequests, rows.size() - capacity);
    EXPECT_LE(stats.maxQueueDepth, capacity);
    EXPECT_EQ(stats.completed, rows.size());
    EXPECT_EQ(stats.executed, capacity);
}

// ---------------------------------------------------------------------------
// Per-session fairness under a flooding client.
// ---------------------------------------------------------------------------

TEST(EngineMt, LightSessionNotStarvedByFloodingSession)
{
    Rng rng(904);
    pc::Circuit circuit = pc::randomCircuit(rng, 24, 2, 3, 6);
    std::vector<pc::Assignment> flood_rows =
        pc::sampleDataset(rng, circuit, 64);
    std::vector<pc::Assignment> light_rows =
        pc::sampleDataset(rng, circuit, 4);

    ServeOptions options;
    options.maxBatch = 4;
    options.dispatchers = 2;
    options.startPaused = true;
    ReasonEngine engine(options);
    Session flooder = engine.createSession(circuit);
    Session light = engine.createSession(circuit);
    std::vector<RequestHandle> flood_handles;
    for (const pc::Assignment &x : flood_rows)
        flood_handles.push_back(flooder.submit(x));
    std::vector<RequestHandle> light_handles;
    for (const pc::Assignment &x : light_rows)
        light_handles.push_back(light.submit(x));
    engine.resume();

    uint64_t light_last_start = 0;
    for (const RequestHandle &h : light_handles) {
        std::shared_ptr<const Request> r = light.wait(h);
        ASSERT_EQ(r->error, REASON_OK);
        light_last_start = std::max(light_last_start, r->startedNs);
    }
    uint64_t flood_last_start = 0;
    for (const RequestHandle &h : flood_handles) {
        std::shared_ptr<const Request> r = flooder.wait(h);
        ASSERT_EQ(r->error, REASON_OK);
        flood_last_start = std::max(flood_last_start, r->startedNs);
    }
    // Session lanes are gathered round-robin, so the light session's
    // rows ride the earliest batches even though the flooder enqueued
    // its entire backlog first; the flood's tail starts strictly
    // later.
    EXPECT_LT(light_last_start, flood_last_start)
        << "light session waited behind the flood";
}

// ---------------------------------------------------------------------------
// Approximate tier through the serving stack: tier selection,
// bit-identical results and bounds across every scale-out shape,
// and budget validation.
// ---------------------------------------------------------------------------

namespace {

struct ApproxReference
{
    std::vector<double> value, lo, hi;
};

/** One-at-a-time budgeted submission: the scale-out ground truth. */
ApproxReference
serveApproxOneAtATime(const pc::Circuit &circuit,
                      const std::vector<pc::Assignment> &rows,
                      const std::vector<double> &budgets)
{
    ServeOptions options;
    options.maxBatch = 1;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    ApproxReference ref;
    for (size_t i = 0; i < rows.size(); ++i) {
        std::shared_ptr<const Request> r =
            session.wait(session.submit(rows[i], budgets[i]));
        EXPECT_EQ(r->error, REASON_OK);
        ref.value.push_back(r->outputs[0]);
        if (budgets[i] > 0.0) {
            ref.lo.push_back(r->boundLo[0]);
            ref.hi.push_back(r->boundHi[0]);
        } else {
            // Exact tier: the degenerate point interval.
            ref.lo.push_back(r->outputs[0]);
            ref.hi.push_back(r->outputs[0]);
        }
    }
    return ref;
}

} // namespace

TEST(EngineMt, ApproxBitIdenticalAcrossDispatchersThreadsAndBatches)
{
    Rng rng(907);
    pc::Circuit circuit = pc::randomCircuit(rng, 26, 2, 4, 7);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 48);
    // Mixed traffic: exact (0), and three distinct approx budgets, so
    // one run covers tier selection, per-budget evaluator caching,
    // and approx/exact shard separation at once.
    std::vector<double> budgets(rows.size());
    const double kTiers[] = {0.0, 1e-3, 0.1, 1.0};
    for (size_t i = 0; i < rows.size(); ++i)
        budgets[i] = kTiers[i % 4];
    const ApproxReference ref =
        serveApproxOneAtATime(circuit, rows, budgets);

    constexpr size_t kSessions = 3;
    for (unsigned dispatchers : {1u, 2u, 4u}) {
        for (unsigned serve_threads : {1u, 2u, 4u, 8u}) {
            for (unsigned max_batch : {1u, 8u, 64u}) {
                // Trim the sweep: vary one axis at a time around the
                // (2 dispatchers, 2 threads, 8 batch) center, keeping
                // the run TSan-friendly.
                if ((dispatchers != 2) + (serve_threads != 2) +
                        (max_batch != 8) >
                    1)
                    continue;
                ServeOptions options;
                options.maxBatch = max_batch;
                options.serveThreads = serve_threads;
                options.dispatchers = dispatchers;
                options.startPaused = true;
                ReasonEngine engine(options);
                std::vector<Session> sessions;
                for (size_t s = 0; s < kSessions; ++s)
                    sessions.push_back(engine.createSession(circuit));
                std::vector<RequestHandle> handles;
                for (size_t i = 0; i < rows.size(); ++i)
                    handles.push_back(sessions[i % kSessions].submit(
                        rows[i], budgets[i]));
                engine.resume();
                for (size_t i = 0; i < rows.size(); ++i) {
                    std::shared_ptr<const Request> r =
                        sessions[i % kSessions].wait(handles[i]);
                    ASSERT_EQ(r->error, REASON_OK)
                        << dispatchers << "d/" << serve_threads
                        << "t/" << max_batch << "b, request " << i;
                    EXPECT_TRUE(
                        bitEqual(r->outputs[0], ref.value[i]))
                        << "request " << i;
                    if (budgets[i] > 0.0) {
                        EXPECT_EQ(r->mode, REASON_MODE_APPROX);
                        ASSERT_EQ(r->boundLo.size(), 1u);
                        ASSERT_EQ(r->boundHi.size(), 1u);
                        EXPECT_TRUE(
                            bitEqual(r->boundLo[0], ref.lo[i]))
                            << "request " << i;
                        EXPECT_TRUE(
                            bitEqual(r->boundHi[0], ref.hi[i]))
                            << "request " << i;
                        // The certified interval always brackets the
                        // returned value.
                        EXPECT_LE(r->boundLo[0], r->outputs[0]);
                        EXPECT_GE(r->boundHi[0], r->outputs[0]);
                    } else {
                        EXPECT_EQ(r->mode, REASON_MODE_PROBABILISTIC);
                        EXPECT_TRUE(r->boundLo.empty());
                        EXPECT_TRUE(r->boundHi.empty());
                    }
                }
            }
        }
    }
}

TEST(EngineMt, ApproxBatchSubmissionMatchesPerRow)
{
    Rng rng(908);
    pc::Circuit circuit = pc::randomCircuit(rng, 24, 2, 3, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 9);
    const double budget = 0.05;
    std::vector<double> budgets(rows.size(), budget);
    const ApproxReference ref =
        serveApproxOneAtATime(circuit, rows, budgets);

    ReasonEngine engine;
    Session session = engine.createSession(circuit);
    std::shared_ptr<const Request> r =
        session.wait(session.submitBatch(rows, budget));
    ASSERT_EQ(r->error, REASON_OK);
    ASSERT_EQ(r->outputs.size(), rows.size());
    ASSERT_EQ(r->boundLo.size(), rows.size());
    ASSERT_EQ(r->boundHi.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(bitEqual(r->outputs[i], ref.value[i]));
        EXPECT_TRUE(bitEqual(r->boundLo[i], ref.lo[i]));
        EXPECT_TRUE(bitEqual(r->boundHi[i], ref.hi[i]));
    }
}

TEST(EngineMt, InvalidBudgetsRejectedAtSubmission)
{
    Rng rng(909);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 3, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 2);

    ReasonEngine engine;
    Session session = engine.createSession(circuit);
    const double bad[] = {-1.0, -1e-300,
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    for (double budget : bad) {
        std::shared_ptr<const Request> r =
            session.wait(session.submit(rows[0], budget));
        EXPECT_EQ(r->error, REASON_ERR_BAD_BUDGET)
            << "budget " << budget;
        EXPECT_TRUE(r->outputs.empty());
        EXPECT_TRUE(r->boundLo.empty());
    }
    // -0.0 is zero: the exact tier, not an error.
    std::shared_ptr<const Request> ok =
        session.wait(session.submit(rows[0], -0.0));
    EXPECT_EQ(ok->error, REASON_OK);
    EXPECT_EQ(ok->mode, REASON_MODE_PROBABILISTIC);
    // The session still serves normal traffic afterwards.
    std::shared_ptr<const Request> after =
        session.wait(session.submit(rows[1]));
    EXPECT_EQ(after->error, REASON_OK);
}

// ---------------------------------------------------------------------------
// Wire protocol: round-trip and malformed-input robustness.
// ---------------------------------------------------------------------------

TEST(WireProtocol, RoundTripsEveryFrameTypeBitExact)
{
    namespace wire = reason::sys::wire;

    wire::SubmitFrame submit;
    submit.id = 0x0123456789abcdefull;
    submit.deadlineNs = 0xfedcba9876543210ull;
    submit.numVars = 3;
    submit.rows = {{0u, 1u, 0xffffffffu}, {2u, 0u, 1u}};

    wire::ResultFrame result;
    result.id = 42;
    result.error = REASON_ERR_OVERLOAD;
    // Exercise bit-exact transport: negative zero, a subnormal, and a
    // quiet NaN all survive only if doubles travel as raw bits.
    result.values = {-0.0, 5e-324,
                     std::numeric_limits<double>::quiet_NaN(),
                     -123.456789};

    std::vector<uint8_t> bytes;
    wire::appendHello(bytes, wire::kProtocolVersion,
                      0xc11e471d00000007ull);
    wire::appendHelloAck(bytes);
    wire::appendSubmit(bytes, submit);
    wire::appendResult(bytes, result);
    wire::appendPing(bytes, 0xdeadbeefcafef00dull);
    wire::appendPong(bytes, 0xdeadbeefcafef00dull);

    // Feed in 3-byte chunks so every frame crosses feed() boundaries.
    wire::FrameDecoder decoder;
    std::vector<wire::Frame> frames;
    for (size_t at = 0; at < bytes.size(); at += 3) {
        decoder.feed(bytes.data() + at,
                     std::min<size_t>(3, bytes.size() - at));
        wire::Frame f;
        while (decoder.next(&f) == wire::FrameDecoder::Status::Ok)
            frames.push_back(f);
    }
    ASSERT_FALSE(decoder.poisoned());
    ASSERT_EQ(frames.size(), 6u);

    EXPECT_EQ(frames[0].type, wire::FrameType::Hello);
    EXPECT_EQ(frames[0].helloVersion, wire::kProtocolVersion);
    EXPECT_EQ(frames[0].helloClientId, 0xc11e471d00000007ull);
    EXPECT_EQ(frames[1].type, wire::FrameType::HelloAck);
    EXPECT_EQ(frames[1].helloVersion, wire::kProtocolVersion);

    EXPECT_EQ(frames[2].type, wire::FrameType::Submit);
    EXPECT_EQ(frames[2].submit.id, submit.id);
    EXPECT_EQ(frames[2].submit.deadlineNs, submit.deadlineNs);
    EXPECT_EQ(frames[2].submit.numVars, submit.numVars);
    EXPECT_EQ(frames[2].submit.rows, submit.rows);

    EXPECT_EQ(frames[4].type, wire::FrameType::Ping);
    EXPECT_EQ(frames[4].pingToken, 0xdeadbeefcafef00dull);
    EXPECT_EQ(frames[5].type, wire::FrameType::Pong);
    EXPECT_EQ(frames[5].pingToken, 0xdeadbeefcafef00dull);

    EXPECT_EQ(frames[3].type, wire::FrameType::Result);
    EXPECT_EQ(frames[3].result.id, result.id);
    EXPECT_EQ(frames[3].result.error, result.error);
    ASSERT_EQ(frames[3].result.values.size(), result.values.size());
    for (size_t i = 0; i < result.values.size(); ++i)
        EXPECT_TRUE(bitEqual(frames[3].result.values[i],
                             result.values[i]))
            << "value " << i;

    // The checksum helpers agree on the decoded values, so remote and
    // in-process runs can prove bitwise equality.
    EXPECT_EQ(wire::checksumValues(frames[3].result.values.data(),
                                   frames[3].result.values.size()),
              wire::checksumValues(result.values.data(),
                                   result.values.size()));
}

TEST(WireProtocol, MalformedFramesPoisonInsteadOfCrashing)
{
    namespace wire = reason::sys::wire;
    using Status = wire::FrameDecoder::Status;

    auto decode_all = [](const std::vector<uint8_t> &bytes) {
        wire::FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        wire::Frame f;
        Status status;
        size_t guard = 0;
        while ((status = decoder.next(&f)) == Status::Ok) {
            if (++guard >= 10000u) {
                ADD_FAILURE() << "decoder failed to consume";
                break;
            }
        }
        return status;
    };

    // Zero length: frames carry at least the type byte.
    EXPECT_EQ(decode_all({0, 0, 0, 0, 1}), Status::Malformed);
    // Length beyond kMaxFrameBytes: framing-error guard.
    EXPECT_EQ(decode_all({0xff, 0xff, 0xff, 0xff, 1}),
              Status::Malformed);
    // Unknown frame type.
    EXPECT_EQ(decode_all({1, 0, 0, 0, 99}), Status::Malformed);
    // Hello with a short payload.
    EXPECT_EQ(decode_all({3, 0, 0, 0, 1, 0, 0}), Status::Malformed);
    // Submit whose row payload disagrees with its declared shape.
    {
        std::vector<uint8_t> bytes;
        wire::SubmitFrame submit;
        submit.id = 7;
        submit.numVars = 2;
        submit.rows = {{1u, 0u}};
        wire::appendSubmit(bytes, submit);
        bytes.pop_back(); // truncate the last row value
        bytes[0] -= 1;    // keep the length prefix consistent
        EXPECT_EQ(decode_all(bytes), Status::Malformed);
    }
    // Shape attacks: a Submit header with no row payload (v3 body is
    // type + id(8) + mode(4) + budget(8) + deadlineNs(8) +
    // numRows(4) + numVars(4) = 37 bytes) must never turn its
    // declared shape into a huge allocation.
    auto shape_frame = [](uint32_t num_rows, uint32_t num_vars) {
        std::vector<uint8_t> bytes = {
            37, 0, 0, 0, uint8_t(wire::FrameType::Submit)};
        bytes.insert(bytes.end(), 8, 0);  // id
        bytes.insert(bytes.end(), 4, 0);  // mode
        bytes.insert(bytes.end(), 8, 0);  // budget bits
        bytes.insert(bytes.end(), 8, 0);  // deadlineNs
        for (int i = 0; i < 4; ++i)
            bytes.push_back(uint8_t(num_rows >> (8 * i)));
        for (int i = 0; i < 4; ++i)
            bytes.push_back(uint8_t(num_vars >> (8 * i)));
        return bytes;
    };
    // numVars == 0 must not validate an arbitrary declared row count
    // against the empty payload (a 21-byte frame would otherwise
    // resize ~4G rows and likely kill the server on bad_alloc).
    EXPECT_EQ(decode_all(shape_frame(0xffffffffu, 0)),
              Status::Malformed);
    // 2^31 rows x 2^31 vars x 4 bytes wraps 64-bit size_t to zero;
    // the division-based shape check still rejects it.
    EXPECT_EQ(decode_all(shape_frame(0x80000000u, 0x80000000u)),
              Status::Malformed);
    // An empty batch (numVars set, zero rows) stays decodable.
    {
        const std::vector<uint8_t> bytes = shape_frame(0, 4);
        wire::FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        wire::Frame f;
        EXPECT_EQ(decoder.next(&f), Status::Ok);
        EXPECT_EQ(f.submit.numVars, 4u);
        EXPECT_TRUE(f.submit.rows.empty());
    }
    // Submit frames cut at each v3 field boundary (after id, mid
    // mode, after mode, mid budget, after budget, mid deadline,
    // after deadline, mid numRows, after numRows, mid numVars) are
    // framing violations, not misparses of the shorter v2 layout.
    {
        std::vector<uint8_t> full;
        wire::SubmitFrame submit;
        submit.id = 9;
        submit.mode = 3;
        submit.budget = 0.25;
        submit.deadlineNs = 123456789;
        submit.numVars = 2;
        submit.rows = {{1u, 0u}};
        wire::appendSubmit(full, submit);
        for (size_t body :
             {8u, 10u, 12u, 16u, 20u, 24u, 28u, 30u, 32u, 34u}) {
            std::vector<uint8_t> cut(full.begin() + 4,
                                     full.begin() + 5 + long(body));
            std::vector<uint8_t> bytes = {uint8_t(body + 1), 0, 0, 0};
            bytes.insert(bytes.end(), cut.begin(), cut.end());
            EXPECT_EQ(decode_all(bytes), Status::Malformed)
                << "body " << body;
        }
    }
    // Result tier byte is framing: tier 2 is invalid outright, and a
    // tier that disagrees with the payload length (bounds missing on
    // tier 1, trailing bounds on tier 0) is Malformed too.
    {
        std::vector<uint8_t> full;
        wire::ResultFrame result;
        result.id = 5;
        result.tier = 1;
        result.values = {-1.5};
        result.boundLo = {-2.0};
        result.boundHi = {-1.0};
        wire::appendResult(full, result);
        std::vector<uint8_t> bad_tier = full;
        bad_tier[4 + 1 + 8 + 4] = 2; // tier byte after type+id+error
        EXPECT_EQ(decode_all(bad_tier), Status::Malformed);
        std::vector<uint8_t> tier0_with_bounds = full;
        tier0_with_bounds[4 + 1 + 8 + 4] = 0;
        EXPECT_EQ(decode_all(tier0_with_bounds), Status::Malformed);
        std::vector<uint8_t> no_bounds;
        wire::ResultFrame plain;
        plain.id = 5;
        plain.values = {-1.5};
        wire::appendResult(no_bounds, plain);
        std::vector<uint8_t> tier1_without_bounds = no_bounds;
        tier1_without_bounds[4 + 1 + 8 + 4] = 1;
        EXPECT_EQ(decode_all(tier1_without_bounds), Status::Malformed);
    }
    // A truncated valid frame is NeedMore, not Malformed.
    {
        std::vector<uint8_t> bytes;
        wire::appendHello(bytes);
        bytes.resize(bytes.size() - 2);
        EXPECT_EQ(decode_all(bytes), Status::NeedMore);
    }
    // Heartbeats are framed like everything else: a Ping cut inside
    // its token is truncation, and trailing bytes are a shape
    // violation, not silently ignored padding.
    {
        std::vector<uint8_t> ping;
        wire::appendPing(ping, 0x1122334455667788ull);
        std::vector<uint8_t> cut(ping.begin(), ping.end() - 3);
        cut[0] -= 3; // keep the length prefix consistent
        EXPECT_EQ(decode_all(cut), Status::Malformed);
        std::vector<uint8_t> padded = ping;
        padded.push_back(0);
        padded[0] += 1;
        EXPECT_EQ(decode_all(padded), Status::Malformed);
    }
    // Version negotiation never poisons framing.  A v2 Hello (no
    // clientId field) still decodes, so the server can answer the
    // mismatch explicitly; a future-version Hello with trailing
    // fields we do not know decodes too; but a v3 Hello with
    // trailing bytes is a shape violation of a layout we *do* know.
    {
        std::vector<uint8_t> v2;
        wire::appendHello(v2, 2);
        wire::FrameDecoder decoder;
        decoder.feed(v2.data(), v2.size());
        wire::Frame f;
        ASSERT_EQ(decoder.next(&f), Status::Ok);
        EXPECT_EQ(f.type, wire::FrameType::Hello);
        EXPECT_EQ(f.helloVersion, 2u);
        EXPECT_EQ(f.helloClientId, 0u);

        std::vector<uint8_t> v4;
        wire::appendHello(v4, 4, 77);
        v4.push_back(0xab); // hypothetical v4-only trailing field
        v4[0] += 1;
        wire::FrameDecoder decoder4;
        decoder4.feed(v4.data(), v4.size());
        ASSERT_EQ(decoder4.next(&f), Status::Ok);
        EXPECT_EQ(f.helloVersion, 4u);
        EXPECT_EQ(f.helloClientId, 77u);

        std::vector<uint8_t> v3;
        wire::appendHello(v3, 3, 77);
        v3.push_back(0xab);
        v3[0] += 1;
        EXPECT_EQ(decode_all(v3), Status::Malformed);
    }
    // The poison reason names the precise failure class, so the
    // server's diagnostics (and retry policy) can tell a framing bug
    // from a shape attack.
    {
        auto reason_of = [](const std::vector<uint8_t> &bytes) {
            wire::FrameDecoder decoder;
            decoder.feed(bytes.data(), bytes.size());
            wire::Frame f;
            while (decoder.next(&f) == Status::Ok) {
            }
            return decoder.poisonReason();
        };
        EXPECT_EQ(reason_of({0, 0, 0, 0, 1}), "length");
        EXPECT_EQ(reason_of({1, 0, 0, 0, 99}), "type");
        EXPECT_EQ(reason_of({3, 0, 0, 0, 1, 0, 0}), "truncation");
        EXPECT_EQ(reason_of(shape_frame(0xffffffffu, 0)), "shape");
        std::vector<uint8_t> bad_tier;
        wire::ResultFrame result;
        result.id = 5;
        result.values = {-1.5};
        wire::appendResult(bad_tier, result);
        bad_tier[4 + 1 + 8 + 4] = 2;
        EXPECT_EQ(reason_of(bad_tier), "tier");
        // A healthy decoder reports no reason at all.
        std::vector<uint8_t> good;
        wire::appendHello(good);
        EXPECT_EQ(reason_of(good), "");
    }
    // Once poisoned, the decoder stays poisoned even after good data.
    {
        wire::FrameDecoder decoder;
        const uint8_t bad[] = {0, 0, 0, 0, 1};
        decoder.feed(bad, sizeof bad);
        wire::Frame f;
        EXPECT_EQ(decoder.next(&f), Status::Malformed);
        std::vector<uint8_t> good;
        wire::appendHello(good);
        decoder.feed(good.data(), good.size());
        EXPECT_EQ(decoder.next(&f), Status::Malformed);
        EXPECT_TRUE(decoder.poisoned());
    }
}

TEST(WireProtocol, SubmitModeAndBudgetRoundTripBitExact)
{
    namespace wire = reason::sys::wire;

    // NaN payloads and -0.0 must survive the trip bit-exactly: the
    // server validates what the client actually sent, so the wire
    // layer may not canonicalize them.
    const double budgets[] = {
        0.0, -0.0, 0.25,
        std::bit_cast<double>(0x7ff8000000000badull), // NaN payload
        -std::numeric_limits<double>::infinity()};
    for (double budget : budgets) {
        for (uint32_t mode : {0u, 3u, 7u}) {
            wire::SubmitFrame submit;
            submit.id = 11;
            submit.mode = mode;
            submit.budget = budget;
            submit.numVars = 2;
            submit.rows = {{0u, 1u}};
            std::vector<uint8_t> bytes;
            wire::appendSubmit(bytes, submit);
            wire::FrameDecoder decoder;
            decoder.feed(bytes.data(), bytes.size());
            wire::Frame f;
            ASSERT_EQ(decoder.next(&f),
                      wire::FrameDecoder::Status::Ok)
                << "mode " << mode;
            EXPECT_EQ(f.submit.mode, mode);
            EXPECT_TRUE(bitEqual(f.submit.budget, budget))
                << "mode " << mode;
            EXPECT_EQ(f.submit.rows, submit.rows);
        }
    }
}

TEST(WireProtocol, ValidateSubmitMapsSemanticViolationsToErrors)
{
    namespace wire = reason::sys::wire;

    auto frame = [](uint32_t mode, double budget) {
        wire::SubmitFrame f;
        f.mode = mode;
        f.budget = budget;
        return f;
    };
    // The two real modes with their legal budgets.
    EXPECT_EQ(wire::validateSubmit(
                  frame(uint32_t(REASON_MODE_PROBABILISTIC), 0.0)),
              REASON_OK);
    EXPECT_EQ(wire::validateSubmit(
                  frame(uint32_t(REASON_MODE_APPROX), 0.0)),
              REASON_OK);
    EXPECT_EQ(wire::validateSubmit(
                  frame(uint32_t(REASON_MODE_APPROX), 0.5)),
              REASON_OK);
    // Unknown modes answer BAD_MODE instead of poisoning the decoder.
    for (uint32_t mode : {1u, 2u, 4u, 99u, 0xffffffffu})
        EXPECT_EQ(wire::validateSubmit(frame(mode, 0.0)),
                  REASON_ERR_BAD_MODE)
            << "mode " << mode;
    // Garbage budgets answer BAD_BUDGET: NaN (any payload), the
    // infinities, negatives, and a budget smuggled onto the exact
    // mode.
    EXPECT_EQ(wire::validateSubmit(frame(
                  uint32_t(REASON_MODE_APPROX),
                  std::numeric_limits<double>::quiet_NaN())),
              REASON_ERR_BAD_BUDGET);
    EXPECT_EQ(wire::validateSubmit(frame(
                  uint32_t(REASON_MODE_APPROX),
                  std::numeric_limits<double>::infinity())),
              REASON_ERR_BAD_BUDGET);
    EXPECT_EQ(wire::validateSubmit(
                  frame(uint32_t(REASON_MODE_APPROX), -1e-9)),
              REASON_ERR_BAD_BUDGET);
    EXPECT_EQ(wire::validateSubmit(
                  frame(uint32_t(REASON_MODE_PROBABILISTIC), 0.5)),
              REASON_ERR_BAD_BUDGET);
    // -0.0 passes the sign test bit-for-bit (it *is* zero).
    EXPECT_EQ(wire::validateSubmit(
                  frame(uint32_t(REASON_MODE_PROBABILISTIC), -0.0)),
              REASON_OK);
    // The answer must fit one frame: a Result is 18 bytes plus 8 per
    // row, or 24 per row with the approximate tier's bounds, and
    // kMaxFrameBytes is 16 MiB.  Only the row count matters, so the
    // rows stay empty.
    auto rows = [&](uint32_t mode, size_t n) {
        wire::SubmitFrame f = frame(mode, 0.0);
        f.rows.resize(n);
        return f;
    };
    const uint32_t exact = uint32_t(REASON_MODE_PROBABILISTIC);
    const uint32_t approx = uint32_t(REASON_MODE_APPROX);
    EXPECT_EQ(wire::validateSubmit(rows(exact, 2097149)), REASON_OK);
    EXPECT_EQ(wire::validateSubmit(rows(exact, 2097150)),
              REASON_ERR_BAD_BATCH);
    EXPECT_EQ(wire::validateSubmit(rows(approx, 699049)), REASON_OK);
    EXPECT_EQ(wire::validateSubmit(rows(approx, 699050)),
              REASON_ERR_BAD_BATCH);
}

TEST(WireProtocol, ResultBoundsRoundTripBitExact)
{
    namespace wire = reason::sys::wire;

    wire::ResultFrame result;
    result.id = 77;
    result.tier = 1;
    result.values = {-3.25, -0.0};
    result.boundLo = {std::bit_cast<double>(0x7ff8000000c0ffeeull),
                      -std::numeric_limits<double>::infinity()};
    result.boundHi = {-3.0, -0.0};

    std::vector<uint8_t> bytes;
    wire::appendResult(bytes, result);
    wire::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    wire::Frame f;
    ASSERT_EQ(decoder.next(&f), wire::FrameDecoder::Status::Ok);
    EXPECT_EQ(f.result.tier, 1);
    ASSERT_EQ(f.result.boundLo.size(), 2u);
    ASSERT_EQ(f.result.boundHi.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(bitEqual(f.result.values[i], result.values[i]));
        EXPECT_TRUE(bitEqual(f.result.boundLo[i], result.boundLo[i]));
        EXPECT_TRUE(bitEqual(f.result.boundHi[i], result.boundHi[i]));
    }

    // Tier 0 results never carry bounds, even if the encoder's frame
    // struct had stale vectors in it.
    wire::ResultFrame plain;
    plain.id = 78;
    plain.tier = 0;
    plain.values = {-1.0};
    plain.boundLo = {-9.0}; // ignored by the encoder on tier 0
    plain.boundHi = {-0.5};
    bytes.clear();
    wire::appendResult(bytes, plain);
    decoder.feed(bytes.data(), bytes.size());
    ASSERT_EQ(decoder.next(&f), wire::FrameDecoder::Status::Ok);
    EXPECT_EQ(f.result.tier, 0);
    EXPECT_TRUE(f.result.boundLo.empty());
    EXPECT_TRUE(f.result.boundHi.empty());
}

TEST(WireProtocol, RandomGarbageNeverCrashesTheDecoder)
{
    namespace wire = reason::sys::wire;
    using Status = wire::FrameDecoder::Status;

    Rng rng(906);
    for (int trial = 0; trial < 200; ++trial) {
        wire::FrameDecoder decoder;
        const size_t total = 1 + size_t(rng() % 512);
        std::vector<uint8_t> bytes(total);
        for (uint8_t &b : bytes)
            b = uint8_t(rng());
        size_t at = 0;
        while (at < bytes.size()) {
            const size_t chunk = std::min<size_t>(
                1 + size_t(rng() % 64), bytes.size() - at);
            decoder.feed(bytes.data() + at, chunk);
            at += chunk;
            wire::Frame f;
            Status status;
            size_t guard = 0;
            while ((status = decoder.next(&f)) == Status::Ok)
                ASSERT_LT(++guard, 10000u)
                    << "decoder failed to consume";
            if (status == Status::Malformed)
                break; // poisoned: framing is lost by contract
        }
    }
}
