/**
 * @file
 * Length-prefixed binary wire protocol of the socket serving
 * front-end (`reason_cli serve --listen` / `bench-client`).
 *
 * Frame layout (all integers little-endian, packed, no padding):
 *
 *     [u32 length][u8 type][payload ...]
 *
 * `length` counts the type byte plus the payload, so an empty frame
 * has length 1.  Frame types:
 *
 *     Hello    = 1  client -> server   u32 protocolVersion,
 *                                      u64 clientId (v3+; versions
 *                                      beyond v3 may append fields —
 *                                      the decoder tolerates trailing
 *                                      bytes there so the server can
 *                                      still answer the mismatch)
 *     HelloAck = 2  server -> client   u32 protocolVersion
 *     Submit   = 3  client -> server   u64 id, u32 mode,
 *                                      u64 budget (double bits),
 *                                      u64 deadlineNs (v3: relative
 *                                      nanoseconds, 0 = none),
 *                                      u32 numRows, u32 numVars,
 *                                      numRows*numVars u32 values
 *                                      (row-major; kMissing allowed)
 *     Result   = 4  server -> client   u64 id, i32 error, u8 tier,
 *                                      u32 numRows,
 *                                      numRows u64 double bit
 *                                      patterns (log-likelihoods);
 *                                      tier 1 appends numRows
 *                                      (lo, hi) u64 pairs (bounds)
 *     Ping     = 5  either direction   u64 token
 *     Pong     = 6  either direction   u64 token (echoed)
 *
 * **Version negotiation (v3).**  The client opens with Hello carrying
 * its version; the server always answers HelloAck carrying *its own*
 * version.  On a mismatch the server closes the connection after the
 * ack, and the client surfaces an explicit version-mismatch error
 * (rather than a generic transport failure).  The Hello clientId is a
 * stable client-chosen identity used for idempotent retry: a server
 * suppresses duplicate execution when a reconnecting client re-sends
 * a query id it has already answered (0 = anonymous, no suppression).
 *
 * Submit carries the reasoning mode and accuracy budget of the
 * approximate tier, and (v3) a *relative* deadline in nanoseconds —
 * relative because client and server steady clocks share no epoch;
 * the server anchors it on receipt.  The decoder accepts *any* mode,
 * budget bits, and deadline — those are semantic properties, validated
 * server-side by validateSubmit(), which maps violations to
 * REASON_ERR_BAD_MODE / REASON_ERR_BAD_BUDGET result frames instead
 * of poisoning the stream.  It also refuses, with
 * REASON_ERR_BAD_BATCH, a Submit whose Result would exceed
 * kMaxFrameBytes.  Result's tier byte is 0 (exact) or 1
 * (approximate, bounds appended); any other tier is a framing
 * violation.  Ping/Pong carry an opaque token so heartbeats can be
 * matched to their echo across pipelined traffic.
 *
 * Result values and bounds travel as raw IEEE-754 bit patterns, never
 * text: the serving contract is *bitwise* identity with in-process
 * submission (NaN payloads and -0.0 signs included), and the checksum
 * helpers fold exactly those bits, so a client can prove end-to-end
 * equality with a local run.
 *
 * Decoding is stream-oriented and malformed-tolerant: FrameDecoder
 * consumes an arbitrary byte stream, yields complete frames, and
 * reports (rather than crashes on) truncated, oversized, unknown, or
 * inconsistent frames — the server drops the connection, the fuzz
 * tests feed it garbage.  A decoder that has reported Malformed is
 * poisoned: framing is lost, so no further frames are yielded —
 * and poisonReason() names the check that failed (length / type /
 * truncation / shape / tier) so retry logic and the fuzz tests can
 * assert the precise failure class.
 *
 * Encoding and decoding use explicit byte packing, so the format is
 * identical on every host (endianness-independent).
 */

#ifndef REASON_SYS_WIRE_H
#define REASON_SYS_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace reason {
namespace sys {
namespace wire {

/** Protocol version exchanged in Hello/HelloAck (v3: Hello carries a
 *  clientId for idempotent retry, Submit carries a relative deadline,
 *  Ping/Pong heartbeats exist). */
inline constexpr uint32_t kProtocolVersion = 3;

/**
 * Upper bound on `length` (16 MiB): a framing-error guard, so a
 * corrupt length prefix cannot make the decoder buffer gigabytes
 * before noticing the stream is garbage.
 */
inline constexpr uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

enum class FrameType : uint8_t
{
    Hello = 1,
    HelloAck = 2,
    Submit = 3,
    Result = 4,
    Ping = 5,
    Pong = 6,
};

/** Submit payload: a batch of assignment rows under one request id. */
struct SubmitFrame
{
    uint64_t id = 0;
    /**
     * Requested ReasonMode: 0 (exact probabilistic) or 3
     * (approximate tier).  The decoder passes any value through;
     * validateSubmit() enforces the semantic contract.
     */
    uint32_t mode = 0;
    /**
     * Accuracy budget (meaningful for the approximate tier).
     * Travels as raw double bits, so NaN payloads and -0.0 survive
     * the round trip bit-exactly for validation at the server.
     */
    double budget = 0.0;
    /**
     * Relative deadline in nanoseconds (0 = none).  Relative because
     * client and server steady clocks share no epoch; the server
     * anchors it against its own clock on receipt.
     */
    uint64_t deadlineNs = 0;
    uint32_t numVars = 0;
    /** numRows rows of numVars values each (pc::kMissing allowed). */
    std::vector<std::vector<uint32_t>> rows;
};

/** Result payload: per-row log-likelihood bits, or an error code. */
struct ResultFrame
{
    uint64_t id = 0;
    /** 0 on success, else a REASON_ERR_* code; values then empty. */
    int32_t error = 0;
    /** 0 = exact tier, 1 = approximate tier (bounds present). */
    uint8_t tier = 0;
    std::vector<double> values;
    /** Tier 1 only: per-row certified interval endpoints, aligned
     *  with values; empty on tier 0. */
    std::vector<double> boundLo;
    std::vector<double> boundHi;
};

/** One decoded frame; only the member matching `type` is meaningful. */
struct Frame
{
    FrameType type = FrameType::Hello;
    uint32_t helloVersion = 0; ///< Hello and HelloAck
    uint64_t helloClientId = 0; ///< Hello, protocol v3+ (0 = anonymous)
    uint64_t pingToken = 0;    ///< Ping and Pong
    SubmitFrame submit;        ///< Submit
    ResultFrame result;        ///< Result
};

/**
 * Append an encoded frame to `out`.  appendHello encodes the clientId
 * field only for versions >= 3 (the v2 layout had none), so the fuzz
 * and compatibility tests can produce both layouts.
 */
void appendHello(std::vector<uint8_t> &out,
                 uint32_t version = kProtocolVersion,
                 uint64_t clientId = 0);
void appendHelloAck(std::vector<uint8_t> &out,
                    uint32_t version = kProtocolVersion);
void appendSubmit(std::vector<uint8_t> &out, const SubmitFrame &frame);
void appendResult(std::vector<uint8_t> &out, const ResultFrame &frame);
void appendPing(std::vector<uint8_t> &out, uint64_t token);
void appendPong(std::vector<uint8_t> &out, uint64_t token);

/**
 * Incremental decoder over an arbitrary byte stream.  feed() appends
 * received bytes; next() yields frames until the buffer runs dry.
 */
class FrameDecoder
{
  public:
    enum class Status
    {
        NeedMore, ///< no complete frame buffered yet
        Ok,       ///< *out holds the next frame
        Malformed ///< protocol violation; decoder is poisoned
    };

    void feed(const uint8_t *data, size_t n);

    /** Decode the next buffered frame into *out. */
    Status next(Frame *out);

    /** True once a malformed frame has been seen (framing lost). */
    bool poisoned() const
    {
        return poisoned_;
    }

    /**
     * Which check poisoned the decoder, as a short stable token:
     * "length" (length prefix out of [1, kMaxFrameBytes]), "type"
     * (unknown frame type), "truncation" (payload ended inside a
     * fixed header field), "shape" (payload size inconsistent with
     * the declared row/field counts), or "tier" (Result tier byte
     * not 0/1).  Empty while the decoder is healthy.
     */
    const std::string &poisonReason() const
    {
        return poisonReason_;
    }

  private:
    std::vector<uint8_t> buf_;
    size_t pos_ = 0; ///< consumed prefix of buf_
    bool poisoned_ = false;
    std::string poisonReason_;
};

/**
 * Semantic validation of a structurally well-formed Submit frame: the
 * wire layer accepts any mode/budget bits so one bad client request
 * cannot poison the stream; the server maps violations to an error
 * Result on the same connection.  Returns REASON_OK,
 * REASON_ERR_BAD_MODE (mode is neither exact nor approximate),
 * REASON_ERR_BAD_BUDGET (NaN/infinite/negative budget, or a nonzero
 * budget on the exact mode), or REASON_ERR_BAD_BATCH (more rows than
 * one Result frame can answer within kMaxFrameBytes: 2,097,149 on the
 * exact tier, 8 bytes per row; 699,049 on the approximate tier, 24
 * bytes per row with its bounds).
 */
int validateSubmit(const SubmitFrame &frame);

/**
 * FNV-1a over a byte span — the checksum the socket demo uses to
 * prove bitwise agreement between remote and in-process results.
 */
uint64_t fnv1a(const void *data, size_t n, uint64_t seed = 0);

/** FNV-1a folded over the IEEE-754 bit patterns of `values`. */
uint64_t checksumValues(const double *values, size_t n,
                        uint64_t seed = 0);

} // namespace wire
} // namespace sys
} // namespace reason

#endif // REASON_SYS_WIRE_H
