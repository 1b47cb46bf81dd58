/**
 * @file
 * sys::SocketServer — the wire-protocol socket front-end of the
 * serving engine, extracted from the `reason_cli serve --listen` demo
 * into a reusable, drainable server.
 *
 * One server owns a loopback TCP listener and one event-loop thread,
 * however many connections are open.  The loop poll()s the listener,
 * every connection and a wake-up pipe: it accepts connections, decodes
 * frames, submits each Submit the moment it arrives, and writes each
 * Result when the engine completes it — so a client's whole pipeline
 * window reaches the engine and coalesces into batches.  Each
 * connection speaks the sys/wire protocol (v3):
 *
 *  - **Handshake.**  The client's Hello carries its protocol version
 *    and clientId.  The server always answers HelloAck with *its own*
 *    version; on a mismatch it stops reading and closes the connection
 *    right after the ack, so the client can surface an explicit
 *    version-mismatch error instead of a mute disconnect.
 *  - **Submits** become one engine request each — all of the frame's
 *    rows, through the connection's private session, so the queue's
 *    fair scheduler sees each connection as one tenant.  The request's
 *    completion callback encodes the Result on the completing thread
 *    and posts it to the loop.  The v3 relative deadline is anchored
 *    at receipt, so queued rows expire under load exactly as
 *    in-process deadlines do.  Semantic violations answer an error
 *    Result (an empty Submit: REASON_ERR_BAD_BATCH); a framing
 *    violation stops reading the connection, which is closed once
 *    what it is owed has been written.
 *  - **Per-connection order.**  Answers — HelloAck, Pong, Results and
 *    cached replays — leave in the order their frames arrived, whatever
 *    order the engine completes them in: each connection keeps a FIFO
 *    of owed answers and writes only its completed prefix.
 *  - **Ping** frames echo back as Pong — the heartbeat clients use to
 *    probe a quiet connection.
 *  - **Idempotent retry.**  For clients with a nonzero clientId the
 *    server keeps the encoded bytes of recently answered *successful*
 *    Results per (clientId, queryId), in one LRU shared by all
 *    clients.  A reconnecting client that re-sends an already-answered
 *    id gets the cached bytes back — byte-identical, without
 *    re-execution — which is what makes client retry loops
 *    idempotent.  Error results are never cached, so a retry after an
 *    expiry or overload genuinely re-attempts.
 *  - **Bounds.**  Sockets are non-blocking, and each connection buffers
 *    its own output.  A connection that owes kMaxOwedAnswers answers is
 *    not read until it catches up, so TCP pushes back on its peer and a
 *    peer that stops reading stalls only itself.  Past kMaxConnections
 *    live connections a new one is answered with one
 *    Result{id 0, REASON_ERR_OVERLOAD} and closed.  A connection that
 *    has sent nothing and is owed nothing for idleTimeoutMs is closed.
 *  - **Graceful drain.**  stop() drains the engine (admission closes,
 *    queued work finishes within the deadline, the rest expires) while
 *    the loop keeps writing answers.  The loop then stops reading,
 *    flushes what is owed within the drain deadline, closes every
 *    connection and exits.  Wired to SIGINT/SIGTERM by the CLI.
 *
 * All socket I/O goes through sys/net — EINTR-safe, SIGPIPE-free, and
 * fault-injectable (sys/fault), which is how the fault_recovery gate
 * drives this server through resets, torn frames, and stalls.
 */

#ifndef REASON_SYS_SERVER_H
#define REASON_SYS_SERVER_H

#include "sys/net.h"

#if REASON_HAS_SOCKETS

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pc/flat_pc.h"
#include "sys/engine.h"
#include "sys/wire.h"

namespace reason {
namespace sys {

/** Configuration of a SocketServer. */
struct ServerOptions
{
    /** TCP port on loopback; 0 binds an ephemeral port (see port()). */
    uint16_t port = 0;
    /** Largest accuracy budget accepted over the wire; < 0 = uncapped. */
    double maxBudget = -1.0;
    /**
     * Idle-connection timeout in milliseconds: a connection that has
     * sent nothing and is owed nothing this long is closed, so silent
     * peers cannot hold connection slots forever.  0 disables.
     */
    unsigned idleTimeoutMs = 0;
    /**
     * Deadline of each half of stop(), relative nanoseconds (default
     * 5 s): first the engine drain, then flushing owed answers.
     */
    uint64_t drainDeadlineNs = 5'000'000'000ull;
    /**
     * Cap on cached duplicate-suppression results over all clients
     * (least recently used evicted first).  Bounds server memory
     * against peers that send fresh query ids or fresh client ids.
     * 0 disables the cache.
     */
    size_t duplicateCacheCap = 1024;
};

/** Counters of a SocketServer (snapshot). */
struct ServerStats
{
    /** Connections accepted and served. */
    uint64_t connections = 0;
    /** Connections refused at the kMaxConnections cap. */
    uint64_t connectionsRejected = 0;
    /** Connections open now (a gauge, not a counter). */
    uint64_t liveConnections = 0;
    /** Hellos answered-and-closed for a protocol version mismatch. */
    uint64_t versionRejects = 0;
    /** Submits answered from the duplicate cache without execution. */
    uint64_t duplicatesSuppressed = 0;
    /** Submit frames answered (duplicates excluded). */
    uint64_t submits = 0;
};

/**
 * The socket front-end.  Construct, start(), and eventually stop();
 * the destructor stops too.  The engine and lowering must outlive the
 * server.  stats() and stop() may be called from any thread; all
 * socket work runs on the one internal loop thread.
 */
class SocketServer
{
  public:
    /** Live connections past which new ones are refused. */
    static constexpr size_t kMaxConnections = 1024;
    /** Owed answers past which a connection is not read. */
    static constexpr size_t kMaxOwedAnswers = 256;

    SocketServer(ReasonEngine &engine,
                 std::shared_ptr<const pc::FlatCircuit> lowering,
                 const ServerOptions &options);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Bind the loopback listener and start the loop.  Returns false
     * (with *error set) when the socket cannot be created or bound.
     */
    bool start(std::string *error);

    /** The bound port (after start(); resolves port 0 requests). */
    uint16_t port() const { return port_; }

    /**
     * Graceful shutdown: drain the engine (admission closes, queued
     * work finishes within ServerOptions::drainDeadlineNs, the rest
     * expires) while answers keep flowing, then stop reading, flush
     * what is owed within a second drainDeadlineNs, close every
     * connection and join the loop.  When it returns, no request the
     * server submitted is outstanding.  Idempotent.  Returns true when
     * the drain finished without expiring queued work.
     */
    bool stop();

    ServerStats stats() const;

  private:
    struct Connection;

    /** Where a submitted request's answer goes. */
    struct AnswerTarget
    {
        uint64_t connId = 0;
        /** Position in the connection's owed-answer FIFO. */
        uint64_t seq = 0;
        uint64_t clientId = 0;
        uint64_t queryId = 0;
        bool approx = false;
    };

    /** An encoded Result posted to the loop by a completion callback. */
    struct Completion
    {
        AnswerTarget target;
        /** Successful and from a named client: worth caching. */
        bool cacheable = false;
        std::vector<uint8_t> bytes;
    };

    /** (clientId, queryId) key of the duplicate cache. */
    using CacheKey = std::pair<uint64_t, uint64_t>;
    struct CacheKeyHash
    {
        size_t operator()(const CacheKey &k) const
        {
            return std::hash<uint64_t>()(k.first) ^
                   (std::hash<uint64_t>()(k.second) *
                    0x9e3779b97f4a7c15ull);
        }
    };
    using CacheEntry = std::pair<CacheKey, std::vector<uint8_t>>;

    void run();
    void acceptConnections(uint64_t now);
    /** One receive; false when the connection must be dropped. */
    bool readFrom(Connection &c, uint64_t now);
    void decodeFrames(Connection &c);
    void handleSubmit(Connection &c, wire::SubmitFrame &submit);
    /** Write buffered output; false when the connection must drop. */
    bool flush(Connection &c, uint64_t now);
    void deliver(Completion &done);
    void closeConnection(uint64_t id);
    /** Runs on the completing thread (see CompletionCallback). */
    void onRequestDone(const Request &request,
                       const AnswerTarget &target);
    void wakeLocked();
    const std::vector<uint8_t> *cachedAnswer(const CacheKey &key);
    void rememberAnswer(const CacheKey &key,
                        const std::vector<uint8_t> &bytes);

    ReasonEngine &engine_;
    std::shared_ptr<const pc::FlatCircuit> lowering_;
    ServerOptions options_;

    int listenFd_ = -1;
    /** Self-pipe that wakes the loop: completions and stop(). */
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stopped_{false};
    std::thread loop_;

    // Loop-thread state.
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
    uint64_t nextConnId_ = 1;
    /** Accepting pauses until then after the process ran out of fds. */
    uint64_t acceptResumeNs_ = 0;
    std::vector<uint8_t> inbuf_;
    /** Most recently used first. */
    std::list<CacheEntry> cacheOrder_;
    std::unordered_map<CacheKey, std::list<CacheEntry>::iterator,
                       CacheKeyHash>
        cacheIndex_;

    // Shared with completion callbacks and stop(), under mutex_.
    mutable std::mutex mutex_;
    std::condition_variable outstandingCv_;
    std::vector<Completion> completions_;
    /** A wake-up byte is in the pipe and not yet consumed. */
    bool wakePending_ = false;
    /** Requests submitted whose callback has not run yet. */
    uint64_t outstanding_ = 0;
    bool stopping_ = false;
    uint64_t flushDeadlineNs_ = 0;
    ServerStats stats_;
};

} // namespace sys
} // namespace reason

#endif // REASON_HAS_SOCKETS

#endif // REASON_SYS_SERVER_H
