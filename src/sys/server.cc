#include "sys/server.h"

#if REASON_HAS_SOCKETS

#include <algorithm>
#include <cerrno>
#include <deque>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace reason {
namespace sys {

namespace {

/** Bytes one receive may take from a connection per loop pass. */
constexpr size_t kRecvChunk = 1 << 16;

/** How long accepting pauses after the process ran out of fds. */
constexpr uint64_t kAcceptBackoffNs = 100'000'000ull;

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** poll() timeout from `now` until `deadline`, rounded up to 1 ms. */
int
pollTimeoutMs(uint64_t now, uint64_t deadline)
{
    if (deadline <= now)
        return 0;
    return int(std::min<uint64_t>((deadline - now + 999'999) / 1'000'000,
                                  60'000));
}

} // namespace

/** One accepted connection; touched only by the loop thread. */
struct SocketServer::Connection
{
    /** One owed answer: its encoded bytes once `ready`. */
    struct Owed
    {
        bool ready = false;
        std::vector<uint8_t> bytes;
    };

    int fd = -1;
    uint64_t id = 0;
    Session session;
    wire::FrameDecoder decoder;
    uint64_t clientId = 0;
    /**
     * Answers not yet moved to `out`, in arrival order of the frames
     * they answer; owed[i] has sequence number firstSeq + i.
     */
    std::deque<Owed> owed;
    uint64_t firstSeq = 0;
    /** Encoded answers being written, from outPos on. */
    std::vector<uint8_t> out;
    size_t outPos = 0;
    /**
     * Reading stopped (EOF, a framing violation or a version mismatch):
     * the connection closes once it owes nothing.
     */
    bool closing = false;
    /** Decoding paused at kMaxOwedAnswers with frames still buffered. */
    bool backlogged = false;
    /** Last byte received or sent (steadyNowNs), for the idle timeout. */
    uint64_t lastActiveNs = 0;

    bool quiet() const { return owed.empty() && outPos == out.size(); }

    /** A ready slot at the back of the FIFO for an immediate answer. */
    std::vector<uint8_t> &
    answerNow()
    {
        owed.push_back(Owed{true, {}});
        return owed.back().bytes;
    }

    /** Move the completed prefix of the FIFO into `out`. */
    void
    releaseReady()
    {
        while (!owed.empty() && owed.front().ready) {
            out.insert(out.end(), owed.front().bytes.begin(),
                       owed.front().bytes.end());
            owed.pop_front();
            ++firstSeq;
        }
    }
};

SocketServer::SocketServer(ReasonEngine &engine,
                           std::shared_ptr<const pc::FlatCircuit>
                               lowering,
                           const ServerOptions &options)
    : engine_(engine), lowering_(std::move(lowering)),
      options_(options)
{
}

SocketServer::~SocketServer()
{
    stop();
}

bool
SocketServer::start(std::string *error)
{
    const auto fail = [&](const char *msg) {
        if (error != nullptr)
            *error = msg;
        for (int *fd : {&listenFd_, &wakeRead_, &wakeWrite_})
            if (*fd >= 0) {
                ::close(*fd);
                *fd = -1;
            }
        return false;
    };
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("cannot bind loopback port");
    if (::listen(listenFd_, SOMAXCONN) != 0)
        return fail("listen() failed");
    socklen_t addr_len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &addr_len);
    port_ = ntohs(addr.sin_port);
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        return fail("pipe() failed");
    wakeRead_ = pipe_fds[0];
    wakeWrite_ = pipe_fds[1];
    if (!setNonBlocking(listenFd_) || !setNonBlocking(wakeRead_) ||
        !setNonBlocking(wakeWrite_))
        return fail("cannot make the listener non-blocking");
    inbuf_.resize(kRecvChunk);
    loop_ = std::thread([this] { run(); });
    return true;
}

void
SocketServer::run()
{
    std::vector<pollfd> fds;
    std::vector<uint64_t> polled; // connection id of each fds entry
    std::vector<Completion> done;
    for (;;) {
        bool stopping = false;
        uint64_t flush_deadline = 0;
        uint64_t outstanding = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done.swap(completions_);
            wakePending_ = false;
            stopping = stopping_;
            flush_deadline = flushDeadlineNs_;
            outstanding = outstanding_;
        }
        for (Completion &c : done)
            deliver(c);
        done.clear();

        // Write each connection's completed prefix, resume decoding
        // backlogs, and close finished, failed and idle connections.
        uint64_t now = steadyNowNs();
        uint64_t wake_at = stopping ? flush_deadline : 0; // 0 = none
        const auto wakeBy = [&](uint64_t t) {
            wake_at = wake_at == 0 ? t : std::min(wake_at, t);
        };
        bool all_quiet = true;
        for (auto it = conns_.begin(); it != conns_.end();) {
            Connection &c = *it->second;
            ++it; // closing c erases its entry only
            bool ok = flush(c, now);
            while (ok && c.backlogged && !stopping &&
                   c.owed.size() < kMaxOwedAnswers) {
                decodeFrames(c);
                ok = flush(c, now);
            }
            if (!ok || (c.closing && c.quiet())) {
                closeConnection(c.id);
                continue;
            }
            if (!c.quiet()) {
                all_quiet = false;
            } else if (options_.idleTimeoutMs > 0 && !c.closing) {
                const uint64_t idle_at =
                    c.lastActiveNs +
                    uint64_t(options_.idleTimeoutMs) * 1'000'000ull;
                if (now >= idle_at)
                    closeConnection(c.id);
                else
                    wakeBy(idle_at);
            }
        }
        if (stopping &&
            ((outstanding == 0 && all_quiet) || now >= flush_deadline))
            break;

        fds.clear();
        polled.clear();
        fds.push_back(pollfd{wakeRead_, POLLIN, 0});
        const bool accepting = !stopping && now >= acceptResumeNs_;
        if (accepting)
            fds.push_back(pollfd{listenFd_, POLLIN, 0});
        else if (!stopping)
            wakeBy(acceptResumeNs_);
        const size_t first_conn = fds.size();
        for (const auto &entry : conns_) {
            const Connection &c = *entry.second;
            short events = 0;
            if (!stopping && !c.closing && !c.backlogged &&
                c.owed.size() < kMaxOwedAnswers)
                events |= POLLIN;
            if (c.outPos < c.out.size())
                events |= POLLOUT;
            fds.push_back(pollfd{c.fd, events, 0});
            polled.push_back(c.id);
        }
        if (::poll(fds.data(), nfds_t(fds.size()),
                   wake_at == 0 ? -1 : pollTimeoutMs(now, wake_at)) < 0)
            continue; // EINTR: go around
        now = steadyNowNs();
        if (fds[0].revents != 0) {
            uint8_t sink[64];
            while (::read(wakeRead_, sink, sizeof(sink)) > 0) {
            }
        }
        if (accepting && (fds[1].revents & POLLIN) != 0)
            acceptConnections(now);
        for (size_t k = 0; k < polled.size(); ++k) {
            const short revents = fds[first_conn + k].revents;
            if (revents == 0)
                continue;
            Connection &c = *conns_.at(polled[k]);
            if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 ||
                ((revents & POLLIN) != 0 && !readFrom(c, now)))
                closeConnection(c.id);
        }
    }
    // Stopped: every connection closes, whatever it is still owed.
    for (const auto &entry : conns_)
        ::close(entry.second->fd);
    conns_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.liveConnections = 0;
}

void
SocketServer::acceptConnections(uint64_t now)
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            // Out of descriptors: the backlog stays readable, so pause
            // accepting rather than spin on it.  Otherwise (EAGAIN) the
            // backlog is empty.
            if (errno == EMFILE || errno == ENFILE)
                acceptResumeNs_ = now + kAcceptBackoffNs;
            return;
        }
        netPrepareSocket(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (!setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }
        if (conns_.size() >= kMaxConnections) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.connectionsRejected;
            }
            // A typed refusal instead of a mute disconnect; a fresh
            // socket's buffer takes it in one send.  Reading what the
            // peer already sent lets close() end with a FIN behind the
            // refusal, not a reset that may discard it.
            std::vector<uint8_t> refusal;
            wire::ResultFrame result;
            result.error = REASON_ERR_OVERLOAD;
            wire::appendResult(refusal, result);
            (void)netSend(fd, refusal.data(), refusal.size());
            (void)netRecv(fd, inbuf_.data(), inbuf_.size());
            ::close(fd);
            continue;
        }
        auto c = std::make_unique<Connection>();
        c->fd = fd;
        c->id = nextConnId_++;
        c->session = engine_.createSession(lowering_);
        c->lastActiveNs = now;
        conns_.emplace(c->id, std::move(c));
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.connections;
        ++stats_.liveConnections;
    }
}

bool
SocketServer::readFrom(Connection &c, uint64_t now)
{
    const long n = netRecv(c.fd, inbuf_.data(), inbuf_.size());
    if (n < 0)
        return netRecvTimedOut(); // EAGAIN: nothing to read after all
    if (n == 0) {
        c.closing = true; // orderly EOF: answer what is owed, then close
        return true;
    }
    c.lastActiveNs = now;
    c.decoder.feed(inbuf_.data(), size_t(n));
    decodeFrames(c);
    return true;
}

void
SocketServer::decodeFrames(Connection &c)
{
    c.backlogged = false;
    try {
        while (!c.closing) {
            if (c.owed.size() >= kMaxOwedAnswers) {
                c.backlogged = true; // resumes as answers drain
                return;
            }
            wire::Frame frame;
            const auto status = c.decoder.next(&frame);
            if (status == wire::FrameDecoder::Status::NeedMore)
                return;
            if (status == wire::FrameDecoder::Status::Malformed) {
                // Framing is lost (decoder.poisonReason() says which
                // check failed): answer what came before, then close.
                c.closing = true;
                return;
            }
            switch (frame.type) {
            case wire::FrameType::Hello:
                // Always ack with our own version; on mismatch close
                // right after, so the client sees an explicit version
                // error instead of a mute disconnect.
                wire::appendHelloAck(c.answerNow());
                if (frame.helloVersion != wire::kProtocolVersion) {
                    c.closing = true;
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.versionRejects;
                    return;
                }
                c.clientId = frame.helloClientId;
                break;
            case wire::FrameType::Ping:
                wire::appendPong(c.answerNow(), frame.pingToken);
                break;
            case wire::FrameType::Submit:
                handleSubmit(c, frame.submit);
                break;
            default:
                // Clients never send HelloAck, Result or Pong.
                c.closing = true;
                return;
            }
        }
    } catch (const std::exception &) {
        // One connection must never take the server down: a failure
        // handling its frames (e.g. allocation) ends reading from it.
        c.closing = true;
    }
}

void
SocketServer::handleSubmit(Connection &c, wire::SubmitFrame &submit)
{
    if (c.clientId != 0) {
        // Idempotent retry: a reconnecting client re-sends ids it never
        // saw answers for.  Replaying the cached bytes keeps the answer
        // byte-identical without re-execution.
        if (const std::vector<uint8_t> *cached =
                cachedAnswer({c.clientId, submit.id})) {
            c.answerNow() = *cached;
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.duplicatesSuppressed;
            return;
        }
    }
    int error = wire::validateSubmit(submit);
    if (error == REASON_OK && options_.maxBudget >= 0.0 &&
        submit.budget > options_.maxBudget)
        error = REASON_ERR_BAD_BUDGET;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.submits;
        outstanding_ += error == REASON_OK;
    }
    if (error != REASON_OK) {
        wire::ResultFrame result;
        result.id = submit.id;
        result.error = error;
        wire::appendResult(c.answerNow(), result);
        return;
    }
    AnswerTarget target;
    target.connId = c.id;
    target.seq = c.firstSeq + c.owed.size();
    target.clientId = c.clientId;
    target.queryId = submit.id;
    target.approx = submit.mode == uint32_t(REASON_MODE_APPROX);
    c.owed.emplace_back();
    // One request per Submit: its rows stay one evaluation unit and
    // still coalesce with other Submits.  The wire deadline is
    // relative — exactly what submitBatch anchors against the server's
    // steady clock.  mutex_ is not held: a rejection runs the callback
    // right here.
    c.session.submitBatch(std::move(submit.rows), submit.budget,
                          submit.deadlineNs,
                          [this, target](const Request &request) {
                              onRequestDone(request, target);
                          });
}

void
SocketServer::onRequestDone(const Request &request,
                            const AnswerTarget &target)
{
    // Encoded on the completing thread, so the loop only moves bytes.
    wire::ResultFrame result;
    result.id = target.queryId;
    result.error = request.error;
    if (request.error == REASON_OK) {
        result.tier = target.approx ? 1 : 0;
        result.values = request.outputs;
        if (target.approx) {
            // Approximate tier with budget 0 runs the exact path: the
            // certified interval degenerates to the point answer.
            const bool point = request.boundLo.empty();
            result.boundLo = point ? request.outputs : request.boundLo;
            result.boundHi = point ? request.outputs : request.boundHi;
        }
    }
    Completion done;
    done.target = target;
    done.cacheable = target.clientId != 0 && request.error == REASON_OK;
    wire::appendResult(done.bytes, result);
    std::lock_guard<std::mutex> lock(mutex_);
    completions_.push_back(std::move(done));
    wakeLocked();
    if (--outstanding_ == 0)
        outstandingCv_.notify_all();
}

void
SocketServer::deliver(Completion &done)
{
    // Cached even when its connection is gone: the client's retry on a
    // new connection is exactly what the cache is for.
    if (done.cacheable)
        rememberAnswer({done.target.clientId, done.target.queryId},
                       done.bytes);
    auto it = conns_.find(done.target.connId);
    if (it == conns_.end())
        return; // the connection closed first
    Connection &c = *it->second;
    const uint64_t at = done.target.seq - c.firstSeq;
    reasonAssert(at < c.owed.size() && !c.owed[at].ready,
                 "completion for an answer that is not owed");
    Connection::Owed &slot = c.owed[at];
    slot.ready = true;
    slot.bytes = std::move(done.bytes);
}

bool
SocketServer::flush(Connection &c, uint64_t now)
{
    for (;;) {
        if (c.outPos == c.out.size()) {
            c.out.clear();
            c.outPos = 0;
            c.releaseReady();
            if (c.out.empty())
                return true;
        }
        const long n = netSend(c.fd, c.out.data() + c.outPos,
                               c.out.size() - c.outPos);
        if (n < 0)
            return false;
        if (n == 0)
            return true; // socket buffer full: POLLOUT resumes
        c.outPos += size_t(n);
        c.lastActiveNs = now;
    }
}

void
SocketServer::closeConnection(uint64_t id)
{
    auto it = conns_.find(id);
    ::close(it->second->fd);
    conns_.erase(it);
    std::lock_guard<std::mutex> lock(mutex_);
    --stats_.liveConnections;
}

void
SocketServer::wakeLocked()
{
    if (wakePending_)
        return;
    wakePending_ = true;
    const uint8_t byte = 1;
    while (::write(wakeWrite_, &byte, 1) < 0 && errno == EINTR) {
    }
}

const std::vector<uint8_t> *
SocketServer::cachedAnswer(const CacheKey &key)
{
    auto it = cacheIndex_.find(key);
    if (it == cacheIndex_.end())
        return nullptr;
    cacheOrder_.splice(cacheOrder_.begin(), cacheOrder_, it->second);
    return &it->second->second;
}

void
SocketServer::rememberAnswer(const CacheKey &key,
                             const std::vector<uint8_t> &bytes)
{
    if (options_.duplicateCacheCap == 0 || cacheIndex_.count(key) != 0)
        return;
    cacheOrder_.emplace_front(key, bytes);
    cacheIndex_.emplace(key, cacheOrder_.begin());
    if (cacheOrder_.size() > options_.duplicateCacheCap) {
        cacheIndex_.erase(cacheOrder_.back().first);
        cacheOrder_.pop_back();
    }
}

bool
SocketServer::stop()
{
    if (stopped_.exchange(true))
        return true;
    // Drain first: admission closes (REASON_ERR_SHUTTING_DOWN), queued
    // work finishes within the deadline, the rest expires.  The loop
    // keeps writing answers meanwhile.
    const bool clean = engine_.drain(options_.drainDeadlineNs);
    if (loop_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
            flushDeadlineNs_ = steadyNowNs() + options_.drainDeadlineNs;
            wakeLocked();
        }
        loop_.join();
        // The loop may have given up on a peer that stopped reading
        // while a dispatcher is still inside a callback that captured
        // this server: wait those out.
        std::unique_lock<std::mutex> lock(mutex_);
        outstandingCv_.wait(lock, [&] { return outstanding_ == 0; });
    }
    for (int *fd : {&listenFd_, &wakeRead_, &wakeWrite_})
        if (*fd >= 0) {
            ::close(*fd);
            *fd = -1;
        }
    return clean;
}

ServerStats
SocketServer::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace sys
} // namespace reason

#endif // REASON_HAS_SOCKETS
