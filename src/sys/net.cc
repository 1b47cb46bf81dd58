#include "sys/net.h"

#if REASON_HAS_SOCKETS

#include <cerrno>
#include <chrono>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>

#include "sys/fault.h"

namespace reason {
namespace sys {

namespace {

#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

void
applyDelay(const FaultAction &act)
{
    if (act.delayUs > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(act.delayUs));
}

/**
 * Realize an injected reset: shutdown(2) both directions, so the peer
 * observes a genuinely torn connection (EOF / ECONNRESET) and every
 * later local operation on the fd fails — exactly the failure shape a
 * real mid-flight disconnect produces.
 */
void
injectReset(int fd)
{
    ::shutdown(fd, SHUT_RDWR);
}

} // namespace

void
netPrepareSocket(int fd)
{
#if defined(SO_NOSIGPIPE)
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one,
                       sizeof(one));
#else
    (void)fd; // MSG_NOSIGNAL handles it per send
#endif
}

bool
netSendAll(int fd, const void *data, size_t n)
{
    const char *p = static_cast<const char *>(data);
    size_t cap = n;      // injected torn/partial-write prefix bound
    bool torn = false;   // reset once the capped prefix went out
    if (FaultPlan *plan = activeFaultPlan()) {
        const FaultAction act = plan->onSend(n);
        applyDelay(act);
        if (act.reset) {
            injectReset(fd);
            return false;
        }
        if (act.maxBytes != 0 && act.maxBytes < n) {
            if (act.resetAfter) {
                cap = act.maxBytes;
                torn = true;
            }
            // A plain partial write is transparent to the sender (the
            // loop below already fragments); only the capped-prefix +
            // reset combination changes what the peer observes.
        }
    }
    size_t sent = 0;
    while (sent < n) {
        const size_t want = torn ? cap - sent : n - sent;
        if (torn && want == 0)
            break;
        const ssize_t rc = ::send(fd, p + sent, want, kSendFlags);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += size_t(rc);
    }
    if (torn) {
        injectReset(fd);
        return false;
    }
    return true;
}

long
netSend(int fd, const void *data, size_t n)
{
    size_t want = n;
    bool torn = false;
    if (FaultPlan *plan = activeFaultPlan()) {
        const FaultAction act = plan->onSend(n);
        applyDelay(act);
        if (act.reset) {
            injectReset(fd);
            errno = ECONNRESET;
            return -1;
        }
        if (act.maxBytes != 0 && act.maxBytes < n) {
            want = act.maxBytes;
            torn = act.resetAfter;
        }
    }
    for (;;) {
        const ssize_t rc = ::send(fd, data, want, kSendFlags);
        if (rc < 0 && errno == EINTR)
            continue;
        if (torn) {
            injectReset(fd);
            errno = ECONNRESET;
            return -1;
        }
        if (rc < 0)
            return errno == EAGAIN || errno == EWOULDBLOCK ? 0 : -1;
        return long(rc);
    }
}

long
netRecv(int fd, void *data, size_t n)
{
    size_t want = n;
    if (FaultPlan *plan = activeFaultPlan()) {
        const FaultAction act = plan->onRecv(n);
        applyDelay(act);
        if (act.reset) {
            injectReset(fd);
            errno = ECONNRESET;
            return -1;
        }
        if (act.maxBytes != 0 && act.maxBytes < want)
            want = act.maxBytes; // short read: callers must loop
    }
    for (;;) {
        const ssize_t rc = ::recv(fd, data, want, 0);
        if (rc < 0 && errno == EINTR)
            continue;
        return long(rc);
    }
}

bool
netSetRecvTimeoutMs(int fd, unsigned ms)
{
    struct timeval tv;
    tv.tv_sec = ms / 1000;
    tv.tv_usec = suseconds_t((ms % 1000) * 1000);
    return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv,
                        sizeof(tv)) == 0;
}

bool
netRecvTimedOut()
{
    return errno == EAGAIN || errno == EWOULDBLOCK;
}

} // namespace sys
} // namespace reason

#endif // REASON_HAS_SOCKETS
