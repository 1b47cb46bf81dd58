/**
 * @file
 * Hardened socket I/O shared by the serving front-end and the
 * resilient client (sys/client, sys/server, reason_cli).
 *
 * Every helper is:
 *  - **EINTR-safe**: interrupted syscalls are retried, so a signal
 *    (SIGINT wired to drain, a profiler, a debugger) never tears a
 *    frame mid-transfer.
 *  - **SIGPIPE-free**: sends pass MSG_NOSIGNAL where available and
 *    netPrepareSocket sets SO_NOSIGPIPE where that is the mechanism,
 *    so a mid-write client disconnect surfaces as an EPIPE error
 *    return instead of killing the process.
 *  - **Fault-injected**: each call consults the globally installed
 *    sys::FaultPlan (sys/fault.h) and can be shortened, delayed, or
 *    turned into a connection reset — deterministically, which is how
 *    the reliability tests and the fault_recovery gate exercise every
 *    partial-transfer path.  Injected resets are realized with
 *    shutdown(2), so both ends observe a real torn connection.
 *
 * The REASON_HAS_SOCKETS gate mirrors the one the CLI uses: POSIX
 * sockets only; on other platforms the serving front-end is compiled
 * out and these helpers are absent.
 */

#ifndef REASON_SYS_NET_H
#define REASON_SYS_NET_H

#if defined(__unix__) || defined(__APPLE__)
#define REASON_HAS_SOCKETS 1
#else
#define REASON_HAS_SOCKETS 0
#endif

#if REASON_HAS_SOCKETS

#include <cstddef>

namespace reason {
namespace sys {

/**
 * One-time socket hygiene after socket()/accept(): suppress SIGPIPE
 * via SO_NOSIGPIPE on platforms without MSG_NOSIGNAL.  Best effort.
 */
void netPrepareSocket(int fd);

/**
 * Send all `n` bytes (looping over partial writes, retrying EINTR,
 * SIGPIPE suppressed).  Returns true when every byte went out; false
 * on a transport error or an injected reset (errno describes the
 * failure where the OS produced one).
 */
bool netSendAll(int fd, const void *data, size_t n);

/**
 * One send of up to `n` bytes on a non-blocking socket (retrying EINTR,
 * SIGPIPE suppressed).  Returns the byte count written — 0 when the
 * socket buffer is full, so the caller waits for POLLOUT — or -1 on a
 * transport error or an injected reset.  The fault hooks match
 * netSendAll's: a delay sleeps first, a partial write shortens the
 * transfer, and a torn write sends a prefix and then resets.
 */
long netSend(int fd, const void *data, size_t n);

/**
 * Receive up to `n` bytes (retrying EINTR).  Returns the byte count
 * (>0), 0 on orderly EOF, or -1 on a transport error / injected
 * reset.  May return fewer bytes than asked for any reason — callers
 * must loop (FrameDecoder::feed makes that natural).
 */
long netRecv(int fd, void *data, size_t n);

/**
 * Arm SO_RCVTIMEO so a blocked receive returns (with EAGAIN) after
 * `ms` milliseconds — the idle-connection timeout of the server.
 * 0 disables.  Returns false when the socket refuses the option.
 */
bool netSetRecvTimeoutMs(int fd, unsigned ms);

/** True when errno after a -1 receive is just EAGAIN/EWOULDBLOCK — the
 *  SO_RCVTIMEO expiry, or nothing to read on a non-blocking socket —
 *  rather than a real transport failure. */
bool netRecvTimedOut();

} // namespace sys
} // namespace reason

#endif // REASON_HAS_SOCKETS

#endif // REASON_SYS_NET_H
