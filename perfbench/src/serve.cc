/**
 * @file
 * The two serving workloads: `serve_exact` and `serve_approx_batch`.
 *
 * Both host sys::SocketServer over sys::ReasonEngine on an ephemeral
 * loopback port, exactly the objects `reason_cli serve --listen`
 * builds, and drive it from four closed-loop connections in this
 * process.  Each connection is one caller with a bounded window of
 * outstanding Submits: it sends the next Submit only when an answer
 * frees a slot, so a slower server receives less load (closed loop).
 */

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "inputs.h"
#include "pc/approx.h"
#include "pc/flat_cache.h"
#include "pc/io.h"
#include "sys/client.h"
#include "sys/engine.h"
#include "sys/net.h"
#include "sys/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace reason;
namespace wire = sys::wire;

namespace {

constexpr size_t kConnections = 4;
/** Accuracy budget of serve_approx_batch (bench_eval's approx_tier). */
constexpr double kApproxBudget = 1e-3;
/** Full-size setups per run; setup_s is their median. */
constexpr int kSetups = 7;

struct ServingSpec
{
    const char *name;
    bool approx;
    /** Rows carried by one Submit. */
    size_t rowsPerSubmit;
    /** Outstanding Submits per connection. */
    size_t window;
};

constexpr ServingSpec kExactSpec{"serve_exact", false, 1, 32};
constexpr ServingSpec kApproxSpec{"serve_approx_batch", true, 64, 4};

/** Generated inputs of one run and their untimed reference answers. */
struct ServingInputs
{
    std::string rpcPath;
    pc::Circuit circuit{1, 2};
    /** Query rows; Submits walk this pool round-robin. */
    std::vector<pc::Assignment> pool;
    std::vector<double> refValue;
    /** Approximate tier only: reference interval endpoints. */
    std::vector<double> refLo;
    std::vector<double> refHi;
    /**
     * Approximate tier only: the encoded Submit (id 0) of each
     * rowsPerSubmit-aligned slice of the pool.
     */
    std::vector<std::vector<uint8_t>> submitFrames;
};

/** Byte offset of a Submit's u64 id: after [u32 length][u8 type]. */
constexpr size_t kSubmitIdOffset = 5;

sys::ServeOptions
serveOptions()
{
    sys::ServeOptions opts;
    opts.dispatchers = 2;
    opts.maxBatch = 64;
    opts.serveThreads = 1;
    return opts;
}

/** What one connection saw during one phase. */
struct ConnTally
{
    uint64_t submits = 0;
    /** Submits whose every row came back bitwise-correct. */
    uint64_t okSubmits = 0;
    uint64_t rowsOk = 0;
    /** Rows answered with bits that differ from the reference. */
    uint64_t mismatchedRows = 0;
    /** Submits answered with an error, or never answered. */
    uint64_t errors = 0;
    /** Per answered Submit: first send to Result, as the caller sees. */
    std::vector<double> latencyMs;
    uint64_t retries = 0;
    uint64_t transportErrors = 0;
    std::string failure;

    void
    merge(const ConnTally &o)
    {
        submits += o.submits;
        okSubmits += o.okSubmits;
        rowsOk += o.rowsOk;
        mismatchedRows += o.mismatchedRows;
        errors += o.errors;
        latencyMs.insert(latencyMs.end(), o.latencyMs.begin(),
                         o.latencyMs.end());
        retries += o.retries;
        transportErrors += o.transportErrors;
        if (failure.empty())
            failure = o.failure;
    }
};

/** One closed-loop caller. */
class LoadConn
{
  public:
    virtual ~LoadConn() = default;
    /**
     * Keep the window full until `deadline` or until `maxSubmits`
     * Submits were sent, then collect every outstanding answer.
     */
    virtual void run(Clock::time_point deadline, uint64_t maxSubmits,
                     ConnTally &tally) = 0;
    /** Fold the connection's own counters into `tally`. */
    virtual void finish(ConnTally &) {}
};

/**
 * serve_exact's caller: sys::Client, as `reason_cli bench-client`
 * uses it.  runBatch keeps `window` queries in flight; a run is a
 * sequence of runBatch calls of kChunk queries.
 */
class ClientConn final : public LoadConn
{
  public:
    ClientConn(uint16_t port, size_t index, const ServingInputs &in)
        : client_(options(port, index)), in_(in),
          cursor_(index * in.pool.size() / kConnections)
    {
    }

    void
    run(Clock::time_point deadline, uint64_t maxSubmits,
        ConnTally &tally) override
    {
        while (tally.submits < maxSubmits && Clock::now() < deadline) {
            const size_t n = size_t(
                std::min<uint64_t>(kChunk, maxSubmits - tally.submits));
            chunk_.clear();
            rows_.clear();
            for (size_t i = 0; i < n; ++i) {
                rows_.push_back(cursor_);
                chunk_.push_back(in_.pool[cursor_]);
                cursor_ = (cursor_ + 1) % in_.pool.size();
            }
            {
                trace::Span span("sys.client:runBatch",
                                 trace::newRequestId());
                client_.runBatch(chunk_, &outcomes_, idBase_);
            }
            idBase_ += n;
            for (size_t i = 0; i < n; ++i) {
                const sys::QueryOutcome &o = outcomes_[i];
                ++tally.submits;
                if (o.error != sys::REASON_OK || o.tier != 0) {
                    ++tally.errors;
                    continue;
                }
                tally.latencyMs.push_back(double(o.latencyNs) * 1e-6);
                if (bitsEqual(o.value, in_.refValue[rows_[i]])) {
                    ++tally.okSubmits;
                    ++tally.rowsOk;
                } else {
                    ++tally.mismatchedRows;
                }
            }
        }
    }

    void
    finish(ConnTally &tally) override
    {
        const sys::ClientStats st = client_.stats();
        tally.retries += st.retriesSent;
        tally.transportErrors += st.transportErrors + st.connectFailures;
    }

  private:
    /** Queries per runBatch call (a few windows). */
    static constexpr size_t kChunk = 128;

    static sys::ClientOptions
    options(uint16_t port, size_t index)
    {
        sys::ClientOptions opts;
        opts.port = port;
        opts.clientId = 1 + index;
        opts.pipeline = kExactSpec.window;
        opts.seed = 0x9e3779b97f4a7c15ull * (index + 1);
        return opts;
    }

    sys::Client client_;
    const ServingInputs &in_;
    size_t cursor_;
    uint64_t idBase_ = 0;
    std::vector<pc::Assignment> chunk_;
    std::vector<size_t> rows_;
    std::vector<sys::QueryOutcome> outcomes_;
};

/**
 * serve_approx_batch's caller.  sys::Client sends one row per Submit,
 * so this connection speaks sys::wire directly: Hello, then 64-row
 * approximate-tier Submits with `window` outstanding.
 */
class WireConn final : public LoadConn
{
  public:
    WireConn(uint16_t port, size_t index, const ServingInputs &in)
        : port_(port), clientId_(1 + index), in_(in),
          cursor_(index * in.pool.size() / kConnections)
    {
    }

    ~WireConn() override
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    WireConn(const WireConn &) = delete;
    WireConn &operator=(const WireConn &) = delete;

    void
    run(Clock::time_point deadline, uint64_t maxSubmits,
        ConnTally &tally) override
    {
        if (fd_ < 0 && !connect(tally))
            return;
        struct Pending
        {
            uint64_t id;
            size_t first;
            uint64_t request;
            Clock::time_point sent;
        };
        std::deque<Pending> inflight;
        const size_t rows = kApproxSpec.rowsPerSubmit;
        for (;;) {
            while (inflight.size() < kApproxSpec.window &&
                   tally.submits < maxSubmits && Clock::now() < deadline) {
                const Pending p{nextId_++, cursor_, trace::newRequestId(),
                                Clock::now()};
                cursor_ = (cursor_ + rows) % in_.pool.size();
                ++tally.submits;
                if (!send(p.id, p.first, p.request)) {
                    fail(tally, inflight.size() + 1, "send failed");
                    return;
                }
                inflight.push_back(p);
            }
            if (inflight.empty())
                return;
            const Pending p = inflight.front();
            inflight.pop_front();
            wire::Frame frame;
            {
                trace::Span span("sys.client:await_result", p.request);
                if (!readFrame(&frame)) {
                    fail(tally, inflight.size() + 1, "no Result");
                    return;
                }
            }
            if (frame.type != wire::FrameType::Result ||
                frame.result.id != p.id) {
                fail(tally, inflight.size() + 1, "out-of-order frame");
                return;
            }
            tally.latencyMs.push_back(msSince(p.sent));
            checkResult(frame.result, p.first, tally);
        }
    }

  private:
    bool
    connect(ConnTally &tally)
    {
        trace::Span span("sys.client:connect");
        decoder_ = wire::FrameDecoder{};
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port_);
        const int one = 1;
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            return fail(tally, 0, "connect failed");
        sys::netPrepareSocket(fd_);
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        // Bounded waits: a wedged server fails the run, never hangs it.
        sys::netSetRecvTimeoutMs(fd_, 20000);
        out_.clear();
        wire::appendHello(out_, wire::kProtocolVersion, clientId_);
        wire::Frame ack;
        if (!sys::netSendAll(fd_, out_.data(), out_.size()) ||
            !readFrame(&ack) || ack.type != wire::FrameType::HelloAck ||
            ack.helloVersion != wire::kProtocolVersion)
            return fail(tally, 0, "handshake failed");
        return true;
    }

    bool
    send(uint64_t id, size_t first, uint64_t request)
    {
        // Pre-encoded frame with this Submit's id patched in, so the
        // load generator spends next to no CPU beside the server.
        out_ = in_.submitFrames[first / kApproxSpec.rowsPerSubmit];
        for (size_t b = 0; b < sizeof(id); ++b)
            out_[kSubmitIdOffset + b] = uint8_t(id >> (8 * b));
        trace::Span span("sys.net:send", request);
        return sys::netSendAll(fd_, out_.data(), out_.size());
    }

    bool
    readFrame(wire::Frame *frame)
    {
        for (;;) {
            const auto status = decoder_.next(frame);
            if (status == wire::FrameDecoder::Status::Ok)
                return true;
            if (status == wire::FrameDecoder::Status::Malformed)
                return false;
            const long n = sys::netRecv(fd_, in_buf_, sizeof(in_buf_));
            if (n <= 0)
                return false;
            decoder_.feed(in_buf_, size_t(n));
        }
    }

    void
    checkResult(const wire::ResultFrame &result, size_t first,
                ConnTally &tally) const
    {
        const size_t rows = kApproxSpec.rowsPerSubmit;
        if (result.error != 0 || result.tier != 1 ||
            result.values.size() != rows || result.boundLo.size() != rows ||
            result.boundHi.size() != rows) {
            ++tally.errors;
            return;
        }
        size_t wrong = 0;
        for (size_t r = 0; r < rows; ++r) {
            const size_t q = (first + r) % in_.pool.size();
            wrong += !bitsEqual(result.values[r], in_.refValue[q]) ||
                     !bitsEqual(result.boundLo[r], in_.refLo[q]) ||
                     !bitsEqual(result.boundHi[r], in_.refHi[q]);
        }
        tally.mismatchedRows += wrong;
        tally.rowsOk += rows - wrong;
        tally.okSubmits += wrong == 0;
    }

    /** Record a transport failure and drop the connection. */
    bool
    fail(ConnTally &tally, size_t lost, const char *why)
    {
        tally.errors += lost;
        ++tally.transportErrors;
        tally.failure = why;
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        return false;
    }

    uint16_t port_;
    uint64_t clientId_;
    const ServingInputs &in_;
    size_t cursor_;
    int fd_ = -1;
    uint64_t nextId_ = 1;
    wire::FrameDecoder decoder_;
    std::vector<uint8_t> out_;
    uint8_t in_buf_[1 << 16];
};

/** One served knowledge base: lowering, engine, server and callers. */
struct ServingStack
{
    std::shared_ptr<const pc::FlatCircuit> lowering;
    std::unique_ptr<sys::ReasonEngine> engine;
    std::unique_ptr<sys::SocketServer> server;
    std::vector<std::unique_ptr<LoadConn>> conns;
    double parseMs = 0.0;
    double lowerMs = 0.0;
    double setupS = 0.0;
    ConnTally warmup;
};

/** Run every connection on its own thread until `deadline`. */
ConnTally
drive(ServingStack &st, Clock::time_point deadline, uint64_t maxSubmits)
{
    std::vector<ConnTally> tallies(st.conns.size());
    std::vector<std::thread> threads;
    const uint64_t parent = trace::currentSpan();
    for (size_t c = 0; c < st.conns.size(); ++c)
        threads.emplace_back([&, c] {
            trace::Span span("load:connection", 0, parent);
            st.conns[c]->run(deadline, maxSubmits, tallies[c]);
        });
    for (std::thread &t : threads)
        t.join();
    ConnTally total;
    for (const ConnTally &t : tallies)
        total.merge(t);
    return total;
}

/**
 * The timed set-up of setup_s: read and parse the `.rpc` file, lower
 * it, start engine and server, connect every caller and let each
 * receive its first window of answers, which builds each dispatcher's
 * evaluator (and, on the approximate tier, its pruned circuit).
 */
std::unique_ptr<ServingStack>
setUp(const ServingSpec &spec, const ServingInputs &in)
{
    pc::clearFlatCache(); // every set-up starts cold, like a new process
    trace::Span span("setup");
    const Clock::time_point t0 = Clock::now();
    auto st = std::make_unique<ServingStack>();
    {
        std::string text;
        {
            trace::Span s("pc.io:readFile");
            text = readFile(in.rpcPath);
        }
        Clock::time_point t = Clock::now();
        pc::Circuit circuit = [&] {
            trace::Span s("pc.io:parseText");
            return pc::parseText(text);
        }();
        st->parseMs = msSince(t);
        t = Clock::now();
        {
            trace::Span s("pc.flat_cache:cachedLowering");
            st->lowering = pc::cachedLowering(circuit);
        }
        st->lowerMs = msSince(t);
    }
    {
        trace::Span s("sys.engine:start");
        st->engine = std::make_unique<sys::ReasonEngine>(serveOptions());
    }
    {
        trace::Span s("sys.server:start");
        st->server = std::make_unique<sys::SocketServer>(
            *st->engine, st->lowering, sys::ServerOptions{});
        std::string error;
        if (!st->server->start(&error))
            throw std::runtime_error("server start: " + error);
    }
    const uint16_t port = st->server->port();
    for (size_t c = 0; c < kConnections; ++c) {
        if (spec.approx)
            st->conns.push_back(std::make_unique<WireConn>(port, c, in));
        else
            st->conns.push_back(std::make_unique<ClientConn>(port, c, in));
    }
    {
        trace::Span s("warmup");
        st->warmup = drive(*st, Clock::time_point::max(), spec.window);
    }
    st->setupS = msSince(t0) * 1e-3;
    return st;
}

/** Everything measured in one phase (untraced or traced). */
struct Phase
{
    /** All trials together. */
    ConnTally tally;
    TrialStats trials;
    double wallS = 0.0;
    double stealFrac = 0.0;
    sys::EngineStats engine;
    sys::ServerStats server;
    bool drainClean = false;
};

/** kTrials back-to-back trials, then a graceful stop of the server. */
Phase
measure(ServingStack &st, double seconds)
{
    Phase p;
    const auto trialLength = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / kTrials));
    const StealMeter steal;
    {
        trace::Span span("measure");
        for (int i = 0; i < kTrials; ++i) {
            const Clock::time_point t0 = Clock::now();
            const ConnTally t = drive(st, t0 + trialLength,
                                      std::numeric_limits<uint64_t>::max());
            const double wallS = msSince(t0) * 1e-3;
            p.trials.add(double(t.rowsOk), wallS, t.latencyMs);
            p.tally.merge(t);
            p.wallS += wallS;
        }
    }
    p.stealFrac = steal.fraction();
    for (auto &conn : st.conns)
        conn->finish(p.tally);
    p.engine = st.engine->stats();
    {
        trace::Span span("sys.server:stop");
        p.drainClean = st.server->stop();
    }
    p.server = st.server->stats();
    return p;
}

/** Checks every phase must pass (warm-up tallies included). */
void
checkTally(const ConnTally &t, const char *phase, Outcome &out)
{
    out.check(t.mismatchedRows == 0,
              format("%s: %llu rows differ bitwise from the reference",
                     phase, (unsigned long long)t.mismatchedRows));
    out.check(t.errors == 0,
              format("%s: %llu Submits failed (%s)", phase,
                     (unsigned long long)t.errors, t.failure.c_str()));
    out.check(t.retries == 0 && t.transportErrors == 0,
              format("%s: %llu retries, %llu transport errors", phase,
                     (unsigned long long)t.retries,
                     (unsigned long long)t.transportErrors));
}

void
checkPhase(const Phase &p, const char *phase, Outcome &out)
{
    checkTally(p.tally, phase, out);
    out.check(p.drainClean, format("%s: server drain not clean", phase));
    const uint64_t failed =
        p.engine.shedRequests + p.engine.expired + p.engine.cancelled;
    out.check(failed == 0,
              format("%s: engine shed/expired/cancelled %llu", phase,
                     (unsigned long long)failed));
}

ServingInputs
makeInputs(const ServingSpec &spec, const Options &o)
{
    ServingInputs in;
    Rng rng(o.seed);
    if (spec.approx) {
        in.circuit = approxMixtureCircuit(rng, o.tiny ? 60 : 1500);
        in.pool = pc::sampleDataset(rng, in.circuit, o.tiny ? 256 : 4096);
    } else {
        in.circuit = pc::randomCircuit(rng, o.tiny ? 40 : 1500, 2, 8, 16);
        in.pool = pc::sampleDataset(rng, in.circuit, o.tiny ? 64 : 1024);
    }
    in.rpcPath = o.workDir + "/" + spec.name + "-" +
                 std::to_string(o.seed) + ".rpc";
    if (!writeRpc(in.circuit, in.rpcPath))
        throw std::runtime_error("cannot write " + in.rpcPath);
    // The reference is computed from the file, as served: parseText
    // re-normalizes weights, so the last bits of a parsed circuit can
    // differ from the generated one.
    in.circuit = pc::parseText(readFile(in.rpcPath));
    if (!spec.approx)
        return in;
    const size_t rows = spec.rowsPerSubmit;
    if (in.pool.size() % (rows * kConnections) != 0)
        throw std::logic_error("pool must split into whole Submits");
    for (size_t first = 0; first < in.pool.size(); first += rows) {
        wire::SubmitFrame submit;
        submit.mode = uint32_t(sys::REASON_MODE_APPROX);
        submit.budget = kApproxBudget;
        submit.numVars = in.circuit.numVars();
        submit.rows.assign(in.pool.begin() + long(first),
                           in.pool.begin() + long(first + rows));
        in.submitFrames.emplace_back();
        wire::appendSubmit(in.submitFrames.back(), submit);
    }
    return in;
}

/** Untimed in-process reference answers for every pool row. */
void
computeReference(const ServingSpec &spec, ServingInputs &in, Outcome &out)
{
    const pc::FlatCircuit flat(in.circuit);
    pc::CircuitEvaluator exact(flat);
    in.refValue.resize(in.pool.size());
    if (!spec.approx) {
        exact.logLikelihoodBatch(in.pool, in.refValue);
        return;
    }
    pc::ApproxOptions opts;
    opts.budget = kApproxBudget;
    pc::ApproxEvaluator approx(flat, opts);
    std::vector<pc::ApproxResult> res;
    approx.queryBatch(in.pool, res);
    in.refLo.resize(res.size());
    in.refHi.resize(res.size());
    for (size_t i = 0; i < res.size(); ++i) {
        in.refValue[i] = res[i].value;
        in.refLo[i] = res[i].lo;
        in.refHi[i] = res[i].hi;
    }
    // Certified bounds: on a fixed sample, each interval must contain
    // the exact log-likelihood.
    const std::vector<pc::Assignment> sample(
        in.pool.begin(),
        in.pool.begin() + long(std::min<size_t>(64, in.pool.size())));
    std::vector<double> truth(sample.size());
    exact.logLikelihoodBatch(sample, truth);
    size_t outside = 0;
    for (size_t i = 0; i < sample.size(); ++i)
        outside += !(in.refLo[i] <= truth[i] && truth[i] <= in.refHi[i]);
    out.check(outside == 0,
              format("%zu of %zu approximate intervals miss the exact "
                     "value", outside, sample.size()));
    out.note(format("approx: kept %zu of %zu edges at budget %g",
                    approx.keptEdges(), approx.totalEdges(),
                    kApproxBudget));
}

void
addEngineMetrics(const Phase &p, Outcome &out)
{
    const sys::EngineStats &es = p.engine;
    auto &m = out.perLayer;
    m["engine.batch_rows_mean"] = es.meanBatchOccupancy;
    m["engine.batches"] = double(es.batches);
    m["engine.max_queue_depth"] = double(es.maxQueueDepth);
    m["engine.queue_wait_ms_mean"] = es.meanQueueMs;
    m["engine.exec_ms_mean"] = es.meanLatencyMs - es.meanQueueMs;
    m["engine.latency_p99_ms"] = es.p99LatencyMs;
    m["engine.failed"] =
        double(es.shedRequests + es.expired + es.cancelled);
    m["frontend.wait_ms_p50"] =
        percentile(p.tally.latencyMs, 0.50) - es.p50LatencyMs;
    m["server.submits"] = double(p.server.submits);
    m["server.connections"] = double(p.server.connections);
    m["client.retries"] = double(p.tally.retries);
    m["client.transport_errors"] = double(p.tally.transportErrors);
}

/** Per-layer probes on the workload's own circuit and frames. */
void
probeLayers(const ServingSpec &spec, const ServingInputs &in,
            const ServingStack &st, Outcome &out)
{
    probeFlatUpward(*st.lowering, in.pool, out);

    wire::SubmitFrame submit;
    submit.id = 1;
    submit.mode = uint32_t(spec.approx ? sys::REASON_MODE_APPROX
                                       : sys::REASON_MODE_PROBABILISTIC);
    submit.budget = spec.approx ? kApproxBudget : 0.0;
    submit.numVars = in.circuit.numVars();
    wire::ResultFrame result;
    result.id = 1;
    result.tier = spec.approx ? 1 : 0;
    for (size_t r = 0; r < spec.rowsPerSubmit; ++r) {
        const size_t q = r % in.pool.size();
        submit.rows.push_back(in.pool[q]);
        result.values.push_back(in.refValue[q]);
        if (spec.approx) {
            result.boundLo.push_back(in.refLo[q]);
            result.boundHi.push_back(in.refHi[q]);
        }
    }
    probeWire(submit, result, out);

    if (!spec.approx)
        return;
    trace::Span span("pc.approx:probe");
    pc::ApproxOptions opts;
    opts.budget = kApproxBudget;
    std::vector<double> buildMs;
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point t = Clock::now();
        pc::ApproxEvaluator built(*st.lowering, opts);
        buildMs.push_back(msSince(t));
    }
    out.perLayer["approx.build_ms"] = median(buildMs);
    pc::ApproxEvaluator approx(*st.lowering, opts);
    out.perLayer["approx.kept_edge_frac"] =
        double(approx.keptEdges()) / double(approx.totalEdges());
    std::vector<pc::Assignment> batch;
    for (size_t i = 0; i < 64; ++i)
        batch.push_back(in.pool[i % in.pool.size()]);
    std::vector<pc::ApproxResult> res;
    out.perLayer["approx.us_per_row_b64"] =
        timePerCallUs([&] { approx.queryBatch(batch, res); }) / 64.0;
}

Outcome
runServing(const ServingSpec &spec, const Options &o)
{
    Outcome out;
    ServingInputs in = makeInputs(spec, o);
    out.note(format("inputs: %zu nodes, %zu edges, %u vars; %zu query "
                    "rows; %zu rows per Submit, window %zu, %zu "
                    "connections",
                    in.circuit.numNodes(), in.circuit.numEdges(),
                    in.circuit.numVars(), in.pool.size(),
                    spec.rowsPerSubmit, spec.window, kConnections));
    computeReference(spec, in, out);
    if (o.corruptReference)
        in.refValue[0] = flipLowBit(in.refValue[0]);

    std::vector<double> setupS, parseMs, lowerMs;
    const auto record = [&](const ServingStack &s) {
        checkTally(s.warmup, "warm-up", out);
        setupS.push_back(s.setupS);
        parseMs.push_back(s.parseMs);
        lowerMs.push_back(s.lowerMs);
    };
    std::unique_ptr<ServingStack> st = setUp(spec, in);
    record(*st);
    const Phase plain = measure(*st, phaseSeconds(o));
    checkPhase(plain, "measure", out);
    st.reset();
    // Read before the extra set-ups: each one leaves the allocator's
    // free lists a little more fragmented, which is not the served
    // system's footprint.
    out.endToEnd["peak_rss_mb"] = peakRssMb();
    for (int k = 1; k < (o.tiny ? 2 : kSetups); ++k) {
        st = setUp(spec, in);
        record(*st);
        out.check(st->server->stop(), "set-up drain not clean");
        st.reset();
    }

    const ConnTally &t = plain.tally;
    out.attempted = t.submits;
    out.failed = t.submits - t.okSubmits;
    plain.trials.report(out.endToEnd);
    out.note(plain.trials.describe());
    out.note("set-ups s:" + formatList(setupS));
    out.endToEnd["setup_s"] = median(setupS);
    out.note(format("samples: %zu Submit latencies in %d trials, %zu "
                    "set-ups; %llu rows in %.3f s; host CPU steal %.1f%%",
                    t.latencyMs.size(), kTrials, setupS.size(),
                    (unsigned long long)t.rowsOk, plain.wallS,
                    100.0 * plain.stealFrac));
    out.note(format("engine: %.2f rows/batch, %llu batches, queue "
                    "%.3f ms, latency %.3f ms mean",
                    plain.engine.meanBatchOccupancy,
                    (unsigned long long)plain.engine.batches,
                    plain.engine.meanQueueMs, plain.engine.meanLatencyMs));
    out.note(format("checks: %llu bitwise mismatches, drain %s, %llu "
                    "retries, %llu transport errors",
                    (unsigned long long)t.mismatchedRows,
                    plain.drainClean ? "clean" : "NOT clean",
                    (unsigned long long)t.retries,
                    (unsigned long long)t.transportErrors));

    if (o.trace) {
        trace::enable(true);
        st = setUp(spec, in);
        checkTally(st->warmup, "traced warm-up", out);
        parseMs.push_back(st->parseMs);
        lowerMs.push_back(st->lowerMs);
        const Phase traced = measure(*st, phaseSeconds(o));
        checkPhase(traced, "traced measure", out);
        addEngineMetrics(traced, out);
        addSetupMetrics(parseMs, lowerMs, out);
        out.perLayer["trace.overhead_frac"] =
            1.0 - median(traced.trials.rate) / median(plain.trials.rate);
        probeLayers(spec, in, *st, out);
        finishTrace(o, out);
    }
    return out;
}

} // namespace

Outcome
runServeExact(const Options &options)
{
    return runServing(kExactSpec, options);
}

Outcome
runServeApproxBatch(const Options &options)
{
    return runServing(kApproxSpec, options);
}

} // namespace perfbench
