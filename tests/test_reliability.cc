/**
 * @file
 * Reliability-layer tests for the serving stack: deadlines,
 * cancellation, graceful drain, deterministic fault injection, and
 * the resilient socket client against the socket server.
 *
 *  - deadlines: a request whose deadline passes while queued completes
 *    with REASON_ERR_DEADLINE_EXCEEDED; one a dispatcher picked up
 *    always completes normally, bit-identical to deadline-less runs;
 *  - cancellation: queued-only, never a torn result, exact stats;
 *  - drain: queued work finishes within the deadline (clean) or
 *    expires (dirty), admission closes with REASON_ERR_SHUTTING_DOWN,
 *    and drain is idempotent;
 *  - fault plans: spec parsing, canonical describe(), and the
 *    same-seed-same-schedule determinism contract;
 *  - sockets: client/server round trips stay bit-exact, injected
 *    faults are survived via reconnect + idempotent retry, version
 *    mismatches are answered explicitly, and a mute peer cannot hang
 *    the client;
 *  - the server's event loop: Submits pipeline into the engine,
 *    answers keep send order, a peer that stops reading stalls only
 *    itself, connection churn leaves nothing behind, and the duplicate
 *    cache and the connection count are bounded — this file runs in
 *    the TSan/ASan CI matrix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "pc/flat_cache.h"
#include "random_circuit.h"
#include "sys/engine.h"
#include "sys/fault.h"
#include "sys/net.h"
#include "sys/wire.h"
#include "util/rng.h"

#if REASON_HAS_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "sys/client.h"
#include "sys/server.h"
#endif

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

constexpr uint64_t kSecondNs = 1'000'000'000ull;

} // namespace

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

TEST(Deadlines, GenerousDeadlineStaysBitIdentical)
{
    Rng rng(1401);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 17);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ReasonEngine engine;
    Session session = engine.createSession(circuit);
    for (size_t i = 0; i < rows.size(); ++i) {
        std::shared_ptr<const Request> r = session.wait(
            session.submit(rows[i], 0.0, 30 * kSecondNs));
        ASSERT_EQ(r->error, REASON_OK) << "request " << i;
        EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
            << "request " << i;
    }
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.expired, 0u);
    EXPECT_EQ(stats.executed, rows.size());
}

TEST(Deadlines, QueuedExpiryCompletesWithTypedError)
{
    Rng rng(1402);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 9);

    ServeOptions options;
    options.startPaused = true;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (const pc::Assignment &x : rows)
        handles.push_back(session.submit(x, 0.0, 1'000'000ull));
    // The pause guarantees every deadline passes while still queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.resume();
    for (RequestHandle &h : handles)
        EXPECT_EQ(session.wait(h)->error,
                  REASON_ERR_DEADLINE_EXCEEDED);

    // Expired requests never execute, so the latency means stay
    // unbiased, and the accounting is exact.
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.expired, rows.size());
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.completed, rows.size());
    EXPECT_EQ(stats.completed,
              stats.executed + stats.shedRequests + stats.expired +
                  stats.cancelled);
}

TEST(Deadlines, MixedExpirySparesTheDeadlineless)
{
    Rng rng(1403);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 20);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ServeOptions options;
    options.startPaused = true;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (size_t i = 0; i < rows.size(); ++i)
        handles.push_back(
            i % 2 == 0 ? session.submit(rows[i])
                       : session.submit(rows[i], 0.0, 1'000'000ull));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.resume();

    size_t expired = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        std::shared_ptr<const Request> r = session.wait(handles[i]);
        if (i % 2 == 0) {
            // Survivors are bit-identical to a deadline-less run:
            // expiry of neighbors must not change their batches' math.
            ASSERT_EQ(r->error, REASON_OK) << "request " << i;
            EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
                << "request " << i;
        } else {
            EXPECT_EQ(r->error, REASON_ERR_DEADLINE_EXCEEDED);
            ++expired;
        }
    }
    EXPECT_EQ(engine.stats().expired, expired);
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(Cancellation, QueuedRequestCancelsWithTypedError)
{
    Rng rng(1404);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 4);

    ServeOptions options;
    options.startPaused = true;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    RequestHandle keep = session.submit(rows[0]);
    RequestHandle drop = session.submit(rows[1]);
    EXPECT_TRUE(drop.cancel());
    // Cancellation is immediate — the request is already complete
    // even while the engine is still paused — and idempotent-ly
    // unrepeatable: the second cancel finds it finished.
    EXPECT_TRUE(session.poll(drop));
    EXPECT_FALSE(drop.cancel());
    engine.resume();
    EXPECT_EQ(session.wait(drop)->error, REASON_ERR_CANCELLED);
    EXPECT_EQ(session.wait(keep)->error, REASON_OK);

    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(Cancellation, CompletedRequestCannotBeCancelled)
{
    Rng rng(1405);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 1);

    ReasonEngine engine;
    Session session = engine.createSession(circuit);
    RequestHandle h = session.submit(rows[0]);
    EXPECT_EQ(session.wait(h)->error, REASON_OK);
    // A finished request keeps its result; cancel() must refuse.
    EXPECT_FALSE(h.cancel());
    EXPECT_EQ(h.error(), REASON_OK);
    EXPECT_EQ(engine.stats().cancelled, 0u);
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

TEST(Drain, FinishesQueuedWorkThenClosesAdmission)
{
    Rng rng(1406);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 12);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ServeOptions options;
    options.startPaused = true;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (const pc::Assignment &x : rows)
        handles.push_back(session.submit(x));

    // Drain releases the pause, finishes the backlog, and reports a
    // clean drain because nothing expired.
    EXPECT_TRUE(engine.drain(30 * kSecondNs));
    for (size_t i = 0; i < rows.size(); ++i) {
        std::shared_ptr<const Request> r = session.wait(handles[i]);
        ASSERT_EQ(r->error, REASON_OK) << "request " << i;
        EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
            << "request " << i;
    }
    // Admission is closed: late submissions complete immediately with
    // the shutdown error instead of queueing forever.
    RequestHandle late = session.submit(rows[0]);
    EXPECT_EQ(session.wait(late)->error, REASON_ERR_SHUTTING_DOWN);
    // Drain is one-way and idempotent: an already-drained engine
    // drains cleanly again.
    EXPECT_TRUE(engine.drain(0));
}

TEST(Drain, ZeroDeadlineExpiresTheBacklog)
{
    Rng rng(1407);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 32);

    ServeOptions options;
    options.startPaused = true;
    options.maxBatch = 1;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (const pc::Assignment &x : rows)
        handles.push_back(session.submit(x));

    // A zero deadline expires everything still queued when the drain
    // begins; a dispatcher may legitimately pick off a prefix first,
    // so assert the dichotomy rather than an exact split.
    EXPECT_FALSE(engine.drain(0));
    size_t expired = 0;
    for (RequestHandle &h : handles) {
        const int error = session.wait(h)->error;
        EXPECT_TRUE(error == REASON_OK ||
                    error == REASON_ERR_DEADLINE_EXCEEDED)
            << "unexpected error " << error;
        expired += error == REASON_ERR_DEADLINE_EXCEEDED;
    }
    EXPECT_GT(expired, 0u);
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.expired, expired);
    EXPECT_EQ(stats.completed, rows.size());
    EXPECT_EQ(stats.completed,
              stats.executed + stats.shedRequests + stats.expired +
                  stats.cancelled);
}

// ---------------------------------------------------------------------------
// Fault plans: parsing and determinism.
// ---------------------------------------------------------------------------

TEST(FaultPlanSpec, ParsesRoundTripsAndRejects)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=42,reset=0.01,torn=0.02,short=0.1,partial=0.1,"
        "delay=0.05,delay_us=500,stall=0.02,stall_us=2000,"
        "reset_nth=100,stall_nth=50",
        &plan, &error))
        << error;
    EXPECT_TRUE(plan.enabled());
    // describe() is canonical: parsing it back yields the same plan.
    FaultPlan reparsed;
    ASSERT_TRUE(FaultPlan::parse(plan.describe(), &reparsed, &error))
        << error;
    EXPECT_EQ(plan.describe(), reparsed.describe());

    // An empty spec is a valid no-fault plan.
    FaultPlan none;
    ASSERT_TRUE(FaultPlan::parse("", &none, &error)) << error;
    EXPECT_FALSE(none.enabled());

    // Unknown keys, malformed values, and out-of-range probabilities
    // are rejected with a diagnostic, never half-applied.
    for (const char *bad :
         {"bogus=1", "reset=", "reset=abc", "reset=1.5",
          "torn=-0.25", "seed=", "reset_nth=xyz"}) {
        FaultPlan p;
        error.clear();
        EXPECT_FALSE(FaultPlan::parse(bad, &p, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(FaultPlanSpec, SameSpecSameSchedule)
{
    // The whole point of seeded injection: two plans with the same
    // spec make identical per-event decisions, independent of timing.
    const std::string spec =
        "seed=7,reset=0.2,torn=0.2,short=0.3,partial=0.3";
    FaultPlan a;
    FaultPlan b;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(spec, &a, &error)) << error;
    ASSERT_TRUE(FaultPlan::parse(spec, &b, &error)) << error;
    bool anything_fired = false;
    for (int i = 0; i < 400; ++i) {
        const FaultAction ra = i % 2 == 0 ? a.onRecv(512)
                                          : a.onSend(512);
        const FaultAction rb = i % 2 == 0 ? b.onRecv(512)
                                          : b.onSend(512);
        EXPECT_EQ(ra.reset, rb.reset) << "event " << i;
        EXPECT_EQ(ra.maxBytes, rb.maxBytes) << "event " << i;
        EXPECT_EQ(ra.resetAfter, rb.resetAfter) << "event " << i;
        EXPECT_EQ(ra.delayUs, rb.delayUs) << "event " << i;
        anything_fired |= ra.reset || ra.maxBytes != 0;
    }
    EXPECT_TRUE(anything_fired) << "spec injected nothing in 400 events";
    const FaultStats sa = a.stats();
    const FaultStats sb = b.stats();
    EXPECT_EQ(sa.resets, sb.resets);
    EXPECT_EQ(sa.tornFrames, sb.tornFrames);
    EXPECT_EQ(sa.shortReads, sb.shortReads);
    EXPECT_EQ(sa.partialWrites, sb.partialWrites);
    EXPECT_EQ(sa.total(), sb.total());
    EXPECT_GT(sa.total(), 0u);
}

TEST(FaultPlanSpec, NthTriggersFireDeterministically)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("reset_nth=3", &plan, &error))
        << error;
    size_t resets = 0;
    for (int i = 0; i < 12; ++i)
        resets += plan.onSend(64).reset;
    EXPECT_EQ(resets, 4u); // every 3rd of 12 events
    EXPECT_EQ(plan.stats().resets, 4u);
}

#if REASON_HAS_SOCKETS

// ---------------------------------------------------------------------------
// Socket serving: resilient client vs the socket server.
// ---------------------------------------------------------------------------

namespace {

struct ServerFixture
{
    ServeOptions serveOptions;
    ReasonEngine engine;
    SocketServer server;

    explicit ServerFixture(const pc::Circuit &circuit,
                           const ServerOptions &options = {},
                           const ServeOptions &serve = makeServeOptions())
        : serveOptions(serve),
          engine(serveOptions),
          server(engine, pc::cachedLowering(circuit), options)
    {
        std::string error;
        if (!server.start(&error))
            ADD_FAILURE() << "server start failed: " << error;
    }

    static ServeOptions
    makeServeOptions()
    {
        ServeOptions o;
        o.maxBatch = 8;
        o.serveThreads = 1;
        o.dispatchers = 2;
        return o;
    }
};

/**
 * A raw wire-protocol connection, for tests that control exactly what
 * is sent and when.  Receives are bounded, so a wedged server fails a
 * test instead of hanging it.
 */
class RawConn
{
  public:
    /** Connect to the loopback `port`; a nonzero `rcvbuf` shrinks the
     *  receive buffer first, so unread answers fill it quickly. */
    explicit RawConn(uint16_t port, int rcvbuf = 0)
        : fd_(::socket(AF_INET, SOCK_STREAM, 0))
    {
        if (fd_ < 0)
            return;
        if (rcvbuf > 0)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        netPrepareSocket(fd_);
        connected_ = ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr)) == 0;
        netSetRecvTimeoutMs(fd_, 10000);
    }
    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    RawConn(const RawConn &) = delete;
    RawConn &operator=(const RawConn &) = delete;

    int fd() const { return fd_; }

    bool
    send(const std::vector<uint8_t> &bytes)
    {
        return connected_ && netSendAll(fd_, bytes.data(), bytes.size());
    }

    /** The next frame; false on EOF, timeout, or a malformed stream. */
    bool
    read(wire::Frame *frame)
    {
        for (;;) {
            const auto status = decoder_.next(frame);
            if (status != wire::FrameDecoder::Status::NeedMore)
                return status == wire::FrameDecoder::Status::Ok;
            const long n = netRecv(fd_, buf_, sizeof(buf_));
            if (n <= 0)
                return false;
            decoder_.feed(buf_, size_t(n));
        }
    }

    /** Hello (protocol v3) answered by a matching HelloAck. */
    bool
    hello(uint64_t clientId = 0)
    {
        std::vector<uint8_t> out;
        wire::appendHello(out, wire::kProtocolVersion, clientId);
        wire::Frame ack;
        return send(out) && read(&ack) &&
               ack.type == wire::FrameType::HelloAck &&
               ack.helloVersion == wire::kProtocolVersion;
    }

  private:
    int fd_ = -1;
    bool connected_ = false;
    wire::FrameDecoder decoder_;
    uint8_t buf_[1 << 14];
};

/** Append an exact-tier Submit of `rows` to `out`. */
void
appendSubmit(std::vector<uint8_t> &out, uint64_t id,
             std::vector<pc::Assignment> rows, uint32_t numVars)
{
    wire::SubmitFrame submit;
    submit.id = id;
    submit.numVars = numVars;
    submit.rows = std::move(rows);
    wire::appendSubmit(out, submit);
}

/** Poll `done` every millisecond for up to `seconds`. */
template <typename Pred>
bool
waitFor(Pred done, int seconds = 10)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::seconds(seconds);
    while (!done()) {
        if (std::chrono::steady_clock::now() >= until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

} // namespace

TEST(SocketReliability, RoundTripIsBitExactAndDrainsClean)
{
    Rng rng(1408);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 40);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ServerFixture fx(circuit);
    ClientOptions copt;
    copt.port = fx.server.port();
    copt.clientId = 21;
    Client client(copt);
    EXPECT_TRUE(client.ping(0x600df00dull));
    std::vector<QueryOutcome> outcomes;
    EXPECT_TRUE(client.runBatch(rows, &outcomes));
    ASSERT_EQ(outcomes.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(outcomes[i].error, REASON_OK) << "query " << i;
        EXPECT_TRUE(bitEqual(outcomes[i].value, reference[i]))
            << "query " << i;
        EXPECT_GT(outcomes[i].latencyNs, 0u) << "query " << i;
    }
    const ClientStats cs = client.stats();
    EXPECT_EQ(cs.connects, 1u);
    EXPECT_EQ(cs.retriesSent, 0u);
    EXPECT_EQ(cs.transportErrors, 0u);
    EXPECT_TRUE(fx.server.stop()) << "drain expired queued work";
    EXPECT_EQ(fx.server.stats().versionRejects, 0u);
}

TEST(SocketReliability, SurvivesInjectedFaultsBitExactly)
{
    Rng rng(1409);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 60);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=13,reset=0.02,torn=0.02,short=0.15,partial=0.15", &plan,
        &error))
        << error;

    {
        ServerFixture fx(circuit);
        installFaultPlan(&plan);
        ClientOptions copt;
        copt.port = fx.server.port();
        copt.clientId = 33;
        copt.maxRetries = 200;
        copt.backoffBaseMs = 1;
        copt.backoffCapMs = 20;
        Client client(copt);
        std::vector<QueryOutcome> outcomes;
        // The contract under faults: every query still terminates
        // with the bit-exact answer — reconnect plus idempotent retry
        // hides every injected failure.
        EXPECT_TRUE(client.runBatch(rows, &outcomes));
        installFaultPlan(nullptr);
        ASSERT_EQ(outcomes.size(), rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
            ASSERT_EQ(outcomes[i].error, REASON_OK) << "query " << i;
            EXPECT_TRUE(bitEqual(outcomes[i].value, reference[i]))
                << "query " << i;
        }
        EXPECT_TRUE(fx.server.stop());
    }
    EXPECT_GT(plan.stats().total(), 0u)
        << "fault plan injected nothing";
}

TEST(SocketReliability, VersionMismatchIsAnsweredExplicitly)
{
    Rng rng(1410);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    ServerFixture fx(circuit);

    // Speak v2 at the server by hand: it must ack with its own
    // version and then close, never hang or execute anything.
    RawConn conn(fx.server.port());
    std::vector<uint8_t> hello;
    wire::appendHello(hello, 2);
    ASSERT_TRUE(conn.send(hello));
    bool acked = false;
    wire::Frame frame;
    while (conn.read(&frame)) { // until the server closes
        EXPECT_EQ(frame.type, wire::FrameType::HelloAck);
        EXPECT_EQ(frame.helloVersion, wire::kProtocolVersion);
        acked = true;
    }
    EXPECT_TRUE(acked) << "server closed without acking its version";
    EXPECT_TRUE(fx.server.stop());
    EXPECT_EQ(fx.server.stats().versionRejects, 1u);
}

TEST(SocketReliability, MutePeerCannotHangTheClient)
{
    // A listener that never accepts: connects succeed (backlog) but
    // the handshake gets no bytes, so the bounded receive wait and
    // the retry budget must terminate every query with a typed error.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 8), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener,
                            reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);

    ClientOptions copt;
    copt.port = ntohs(addr.sin_port);
    copt.maxRetries = 2;
    copt.backoffBaseMs = 1;
    copt.backoffCapMs = 5;
    copt.recvTimeoutMs = 100;
    Client client(copt);
    std::vector<pc::Assignment> rows = {{0u, 1u}, {1u, 0u}};
    std::vector<QueryOutcome> outcomes;
    EXPECT_FALSE(client.runBatch(rows, &outcomes));
    ASSERT_EQ(outcomes.size(), rows.size());
    for (const QueryOutcome &o : outcomes)
        EXPECT_EQ(o.error, kClientErrTransport);
    EXPECT_GT(client.stats().connectFailures, 0u);
    ::close(listener);
}

TEST(SocketReliability, DuplicateSubmitsReplayCachedAnswers)
{
    Rng rng(1411);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 15);

    ServerFixture fx(circuit);
    ClientOptions copt;
    copt.port = fx.server.port();
    copt.clientId = 55;

    std::vector<QueryOutcome> first;
    std::vector<QueryOutcome> second;
    {
        Client client(copt);
        EXPECT_TRUE(client.runBatch(rows, &first));
    }
    {
        // A second client with the same identity re-submitting the
        // same ids models a reconnect-and-retry after a lost answer:
        // the server must replay its cache, not re-execute.
        Client client(copt);
        EXPECT_TRUE(client.runBatch(rows, &second));
    }
    ASSERT_EQ(first.size(), rows.size());
    ASSERT_EQ(second.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(first[i].error, REASON_OK) << "query " << i;
        ASSERT_EQ(second[i].error, REASON_OK) << "query " << i;
        EXPECT_TRUE(bitEqual(first[i].value, second[i].value))
            << "query " << i;
    }
    EXPECT_EQ(fx.server.stats().duplicatesSuppressed, rows.size());
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketReliability, ClientDeadlineCapsTheRetryLoop)
{
    Rng rng(1412);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 4);

    // Reset every connection attempt's traffic: no query can ever be
    // answered, so the per-query deadline is what terminates them.
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("reset_nth=1", &plan, &error))
        << error;
    ServerFixture fx(circuit);
    installFaultPlan(&plan);
    ClientOptions copt;
    copt.port = fx.server.port();
    copt.clientId = 77;
    copt.maxRetries = 100000; // the deadline, not the budget, ends it
    copt.backoffBaseMs = 1;
    copt.backoffCapMs = 5;
    copt.deadlineNs = 300 * 1'000'000ull; // 300 ms
    copt.recvTimeoutMs = 50;
    Client client(copt);
    std::vector<QueryOutcome> outcomes;
    client.runBatch(rows, &outcomes);
    installFaultPlan(nullptr);
    ASSERT_EQ(outcomes.size(), rows.size());
    for (const QueryOutcome &o : outcomes)
        EXPECT_EQ(o.error, REASON_ERR_DEADLINE_EXCEEDED);
    fx.server.stop();
}

// ---------------------------------------------------------------------------
// The event loop: pipelining, per-connection order, bounds.
// ---------------------------------------------------------------------------

namespace {

/** Live threads of this process (0 where /proc is unavailable). */
size_t
threadCount()
{
    std::error_code ec;
    size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
         !ec && it != end; it.increment(ec))
        ++n;
    return n;
}

/** Resident set size in KiB (0 where /proc is unavailable). */
long
rssKib()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0;
    long resident = 0;
    if (!(statm >> pages >> resident))
        return 0;
    return resident * (::sysconf(_SC_PAGESIZE) / 1024);
}

} // namespace

TEST(SocketLoop, SubmitsReachTheEngineWithoutWaitingForAnswers)
{
    Rng rng(1413);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 32);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ServeOptions serve = ServerFixture::makeServeOptions();
    serve.startPaused = true;
    ServerFixture fx(circuit, {}, serve);
    RawConn conn(fx.server.port());
    ASSERT_TRUE(conn.hello());
    std::vector<uint8_t> out;
    for (size_t i = 0; i < rows.size(); ++i)
        appendSubmit(out, 100 + i, {rows[i]}, circuit.numVars());
    ASSERT_TRUE(conn.send(out));
    // Nothing is answered while the engine is paused, so a server that
    // waits for each answer before reading on admits one Submit only.
    EXPECT_TRUE(waitFor([&] {
        return fx.engine.stats().requests == rows.size();
    })) << fx.engine.stats().requests << " of " << rows.size()
        << " Submits reached the engine";
    fx.engine.resume();
    for (size_t i = 0; i < rows.size(); ++i) {
        wire::Frame frame;
        ASSERT_TRUE(conn.read(&frame)) << "answer " << i;
        ASSERT_EQ(frame.type, wire::FrameType::Result);
        EXPECT_EQ(frame.result.id, 100 + i);
        ASSERT_EQ(frame.result.error, REASON_OK) << "answer " << i;
        ASSERT_EQ(frame.result.values.size(), 1u);
        EXPECT_TRUE(bitEqual(frame.result.values[0], reference[i]))
            << "answer " << i;
    }
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketLoop, AnswersKeepSendOrderWhenCompletionsDoNot)
{
    Rng rng(1414);
    pc::Circuit circuit = pc::randomCircuit(rng, 48, 2, 4, 8);
    std::vector<pc::Assignment> pool =
        pc::sampleDataset(rng, circuit, 40);
    std::vector<double> reference = serveOneAtATime(circuit, pool);

    // Two dispatchers, maxBatch 8: a 40-row Submit runs alone while
    // 1-row Submits behind it coalesce, so completions overtake.
    ServerFixture fx(circuit);
    RawConn conn(fx.server.port());
    ASSERT_TRUE(conn.hello());
    constexpr size_t kSubmits = 24;
    std::vector<uint8_t> out;
    for (size_t i = 0; i < kSubmits; ++i)
        appendSubmit(out, i + 1,
                     i % 2 == 0 ? pool
                                : std::vector<pc::Assignment>{pool[i]},
                     circuit.numVars());
    ASSERT_TRUE(conn.send(out));
    for (size_t i = 0; i < kSubmits; ++i) {
        wire::Frame frame;
        ASSERT_TRUE(conn.read(&frame)) << "answer " << i;
        ASSERT_EQ(frame.type, wire::FrameType::Result);
        ASSERT_EQ(frame.result.id, i + 1) << "answer out of send order";
        ASSERT_EQ(frame.result.error, REASON_OK);
        if (i % 2 == 0) {
            ASSERT_EQ(frame.result.values.size(), pool.size());
            for (size_t r = 0; r < pool.size(); ++r)
                EXPECT_TRUE(
                    bitEqual(frame.result.values[r], reference[r]))
                    << "answer " << i << " row " << r;
        } else {
            ASSERT_EQ(frame.result.values.size(), 1u);
            EXPECT_TRUE(bitEqual(frame.result.values[0], reference[i]))
                << "answer " << i;
        }
    }
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketLoop, PipelinesLongerThanTheOwedCapAreServedInOrder)
{
    Rng rng(1420);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 8);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    // More frames than a connection may owe: decoding pauses at the
    // cap and must resume as answers drain, with no new bytes to read.
    ServerFixture fx(circuit);
    RawConn conn(fx.server.port());
    ASSERT_TRUE(conn.hello());
    const size_t frames = 3 * SocketServer::kMaxOwedAnswers + 7;
    std::vector<uint8_t> out;
    for (size_t i = 0; i < frames; ++i) {
        if (i % 2 == 0)
            appendSubmit(out, i, {rows[i % rows.size()]},
                         circuit.numVars());
        else
            wire::appendPing(out, i);
    }
    ASSERT_TRUE(conn.send(out));
    for (size_t i = 0; i < frames; ++i) {
        wire::Frame frame;
        ASSERT_TRUE(conn.read(&frame)) << "answer " << i;
        if (i % 2 == 0) {
            ASSERT_EQ(frame.type, wire::FrameType::Result);
            ASSERT_EQ(frame.result.id, i);
            ASSERT_EQ(frame.result.values.size(), 1u);
            EXPECT_TRUE(bitEqual(frame.result.values[0],
                                 reference[i % rows.size()]));
        } else {
            ASSERT_EQ(frame.type, wire::FrameType::Pong);
            ASSERT_EQ(frame.pingToken, i);
        }
    }
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketLoop, EmptySubmitIsRefusedAndTheConnectionStays)
{
    Rng rng(1415);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    ServerFixture fx(circuit);
    RawConn conn(fx.server.port());
    ASSERT_TRUE(conn.hello());
    std::vector<uint8_t> out;
    appendSubmit(out, 7, {}, circuit.numVars());
    wire::appendPing(out, 0x5eedull);
    ASSERT_TRUE(conn.send(out));
    wire::Frame frame;
    ASSERT_TRUE(conn.read(&frame));
    ASSERT_EQ(frame.type, wire::FrameType::Result);
    EXPECT_EQ(frame.result.id, 7u);
    EXPECT_EQ(frame.result.error, REASON_ERR_BAD_BATCH);
    EXPECT_TRUE(frame.result.values.empty());
    ASSERT_TRUE(conn.read(&frame)) << "connection closed after the error";
    EXPECT_EQ(frame.type, wire::FrameType::Pong);
    EXPECT_EQ(frame.pingToken, 0x5eedull);
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketLoop, OversizeSubmitIsRefusedAndTheConnectionStays)
{
    // An approximate-tier answer takes 24 bytes per row, so 699,050
    // rows would need a Result past wire::kMaxFrameBytes, which every
    // decoder refuses.  The Submit itself fits: one variable per row.
    Rng rng(1416);
    pc::Circuit circuit = pc::randomCircuit(rng, 1, 2, 2, 2);
    std::vector<pc::Assignment> rows = pc::sampleDataset(rng, circuit, 4);
    std::vector<double> reference = serveOneAtATime(circuit, rows);
    ServerFixture fx(circuit);
    RawConn conn(fx.server.port());
    ASSERT_TRUE(conn.hello());
    wire::SubmitFrame big;
    big.id = 7;
    big.mode = uint32_t(REASON_MODE_APPROX);
    big.budget = 1e-3;
    big.numVars = circuit.numVars();
    big.rows.assign(699050, rows[0]);
    std::vector<uint8_t> out;
    wire::appendSubmit(out, big);
    appendSubmit(out, 8, rows, circuit.numVars());
    ASSERT_TRUE(conn.send(out));
    wire::Frame frame;
    ASSERT_TRUE(conn.read(&frame)) << "no framable answer";
    ASSERT_EQ(frame.type, wire::FrameType::Result);
    EXPECT_EQ(frame.result.id, 7u);
    EXPECT_EQ(frame.result.error, REASON_ERR_BAD_BATCH);
    EXPECT_TRUE(frame.result.values.empty());
    ASSERT_TRUE(conn.read(&frame)) << "connection lost after the error";
    ASSERT_EQ(frame.type, wire::FrameType::Result);
    EXPECT_EQ(frame.result.id, 8u);
    ASSERT_EQ(frame.result.error, REASON_OK);
    ASSERT_EQ(frame.result.values.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_TRUE(bitEqual(frame.result.values[i], reference[i])) << i;
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketLoop, IdleTimeoutClosesOnlyConnectionsOwedNothing)
{
    Rng rng(1421);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 1);
    ServerOptions options;
    options.idleTimeoutMs = 100;
    ServeOptions serve = ServerFixture::makeServeOptions();
    serve.startPaused = true;
    ServerFixture fx(circuit, options, serve);

    // Silent and owed nothing: closed after the timeout.
    RawConn idle(fx.server.port());
    ASSERT_TRUE(idle.hello());
    // Silent too, but owed an answer the paused engine holds back.
    RawConn waiting(fx.server.port());
    ASSERT_TRUE(waiting.hello());
    std::vector<uint8_t> out;
    appendSubmit(out, 9, rows, circuit.numVars());
    ASSERT_TRUE(waiting.send(out));

    const auto t0 = std::chrono::steady_clock::now();
    wire::Frame frame;
    EXPECT_FALSE(idle.read(&frame)) << "an idle connection got a frame";
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(waited, std::chrono::milliseconds(50));
    EXPECT_LT(waited, std::chrono::seconds(5)) << "idle peer not closed";

    fx.engine.resume();
    ASSERT_TRUE(waiting.read(&frame)) << "closed while owed an answer";
    ASSERT_EQ(frame.type, wire::FrameType::Result);
    EXPECT_EQ(frame.result.id, 9u);
    EXPECT_EQ(frame.result.error, REASON_OK);
    // Owed nothing now, it times out in turn.
    EXPECT_FALSE(waiting.read(&frame));
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketLoop, PeerThatStopsReadingStallsOnlyItself)
{
    Rng rng(1416);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 64);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ServerOptions options;
    options.drainDeadlineNs = 300'000'000ull;
    ServerFixture fx(circuit, options);

    // The slow peer sends 64-row Submits and Pings without ever
    // reading, until its socket stops taking bytes: the server then
    // owes it more than the socket buffers hold.
    RawConn slow(fx.server.port(), 4096);
    ASSERT_TRUE(slow.hello());
    std::vector<uint8_t> frames;
    appendSubmit(frames, 1, rows, circuit.numVars());
    for (int i = 0; i < 256; ++i)
        wire::appendPing(frames, uint64_t(i));
    // Send until the socket stays unwritable for half a second: the
    // server has stopped reading, and TCP pushes back.
    bool stalled = false;
    size_t at = 0;
    for (int bursts = 0; bursts < 20000 && !stalled;) {
        pollfd writable{slow.fd(), POLLOUT, 0};
        if (::poll(&writable, 1, 500) == 0) {
            stalled = true;
            break;
        }
        const ssize_t n = ::send(slow.fd(), frames.data() + at,
                                 frames.size() - at,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
            break;
        at += size_t(std::max<ssize_t>(n, 0));
        if (at == frames.size()) {
            at = 0;
            ++bursts;
        }
    }
    EXPECT_TRUE(stalled) << "the server kept reading a peer that never "
                            "reads";

    // Another connection is served normally meanwhile.
    ClientOptions copt;
    copt.port = fx.server.port();
    copt.clientId = 88;
    copt.recvTimeoutMs = 5000;
    Client client(copt);
    std::vector<QueryOutcome> outcomes;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(client.runBatch(rows, &outcomes));
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(5));
    ASSERT_EQ(outcomes.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(outcomes[i].error, REASON_OK) << "query " << i;
        EXPECT_TRUE(bitEqual(outcomes[i].value, reference[i]));
    }

    // stop() gives up on the slow peer at the flush deadline.
    const auto s0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(fx.server.stop());
    EXPECT_LT(std::chrono::steady_clock::now() - s0,
              std::chrono::nanoseconds(2 * options.drainDeadlineNs) +
                  std::chrono::seconds(2));
}

TEST(SocketLoop, ConnectionChurnLeavesNothingBehind)
{
    Rng rng(1417);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    ServerFixture fx(circuit);
    // Warm-up cycles, so first-use allocations are not counted.
    for (int i = 0; i < 10; ++i) {
        RawConn conn(fx.server.port());
        ASSERT_TRUE(conn.hello());
    }
    ASSERT_TRUE(waitFor(
        [&] { return fx.server.stats().liveConnections == 0; }));
    const size_t threads = threadCount();
    const long rss = rssKib();

    constexpr int kCycles = 1000;
    for (int i = 0; i < kCycles; ++i) {
        RawConn conn(fx.server.port());
        ASSERT_TRUE(conn.hello(uint64_t(i + 1))) << "cycle " << i;
    }
    EXPECT_TRUE(waitFor(
        [&] { return fx.server.stats().liveConnections == 0; }))
        << fx.server.stats().liveConnections << " connections still open";
    EXPECT_EQ(threadCount(), threads);
    EXPECT_LT(rssKib() - rss, 8 * 1024);
    EXPECT_EQ(fx.server.stats().connections, uint64_t(kCycles + 10));
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketLoop, DuplicateCacheIsOneLruAcrossClients)
{
    Rng rng(1418);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 1);
    ServerOptions options;
    options.duplicateCacheCap = 4;
    ServerFixture fx(circuit, options);

    const auto ask = [&](uint64_t clientId) {
        RawConn conn(fx.server.port());
        std::vector<uint8_t> out;
        appendSubmit(out, 1, rows, circuit.numVars());
        wire::Frame frame;
        return conn.hello(clientId) && conn.send(out) &&
               conn.read(&frame) &&
               frame.type == wire::FrameType::Result &&
               frame.result.error == REASON_OK;
    };
    // One answered query for each of cap + 1 client ids: the cap is
    // global, so the first client's answer is evicted.
    for (uint64_t client = 1; client <= options.duplicateCacheCap + 1;
         ++client)
        ASSERT_TRUE(ask(client)) << "client " << client;
    EXPECT_EQ(fx.server.stats().duplicatesSuppressed, 0u);
    ASSERT_TRUE(ask(1));
    EXPECT_EQ(fx.server.stats().duplicatesSuppressed, 0u)
        << "an evicted answer was replayed";
    ASSERT_TRUE(ask(options.duplicateCacheCap + 1));
    EXPECT_EQ(fx.server.stats().duplicatesSuppressed, 1u)
        << "the newest answer was not replayed";
    EXPECT_EQ(fx.server.stats().submits,
              uint64_t(options.duplicateCacheCap + 2));
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketLoop, ConnectionCapRefusesWithTypedOverload)
{
    constexpr size_t kCap = SocketServer::kMaxConnections;
    // Both ends of every connection live in this process.
    const rlim_t need = 2 * (kCap + 2) + 256;
    rlimit limit{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
    if (limit.rlim_max != RLIM_INFINITY && limit.rlim_max < need)
        GTEST_SKIP() << "hard RLIMIT_NOFILE " << limit.rlim_max
                     << " is below the " << need << " fds this needs";
    const rlimit saved = limit;
    if (limit.rlim_cur != RLIM_INFINITY && limit.rlim_cur < need) {
        limit.rlim_cur = need;
        ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &limit), 0);
    }

    Rng rng(1419);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    {
        ServerFixture fx(circuit);
        const size_t threads = threadCount();
        std::vector<std::unique_ptr<RawConn>> conns;
        for (size_t i = 0; i < kCap; ++i) {
            conns.push_back(std::make_unique<RawConn>(fx.server.port()));
            ASSERT_TRUE(conns.back()->hello()) << "connection " << i;
        }
        EXPECT_EQ(fx.server.stats().liveConnections, kCap);
        // One loop thread serves them all.
        EXPECT_EQ(threadCount(), threads);
        {
            // One past the cap: a typed refusal, then EOF.
            RawConn extra(fx.server.port());
            wire::Frame frame;
            ASSERT_TRUE(extra.read(&frame));
            ASSERT_EQ(frame.type, wire::FrameType::Result);
            EXPECT_EQ(frame.result.id, 0u);
            EXPECT_EQ(frame.result.error, REASON_ERR_OVERLOAD);
            EXPECT_FALSE(extra.read(&frame));
        }
        EXPECT_EQ(fx.server.stats().connectionsRejected, 1u);
        // A freed slot admits again.
        conns.pop_back();
        ASSERT_TRUE(waitFor([&] {
            return fx.server.stats().liveConnections == kCap - 1;
        }));
        RawConn again(fx.server.port());
        EXPECT_TRUE(again.hello());
        EXPECT_EQ(fx.server.stats().connectionsRejected, 1u);
        conns.clear();
        EXPECT_TRUE(fx.server.stop());
    }
    ::setrlimit(RLIMIT_NOFILE, &saved);
}

#endif // REASON_HAS_SOCKETS
