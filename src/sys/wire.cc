#include "sys/wire.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "sys/request_queue.h"

namespace reason {
namespace sys {
namespace wire {

namespace {

void
putU8(std::vector<uint8_t> &out, uint8_t v)
{
    out.push_back(v);
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(uint8_t(v));
    out.push_back(uint8_t(v >> 8));
    out.push_back(uint8_t(v >> 16));
    out.push_back(uint8_t(v >> 24));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    putU32(out, uint32_t(v));
    putU32(out, uint32_t(v >> 32));
}

uint32_t
getU32(const uint8_t *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
           uint32_t(p[3]) << 24;
}

uint64_t
getU64(const uint8_t *p)
{
    return uint64_t(getU32(p)) | uint64_t(getU32(p + 4)) << 32;
}

/**
 * Patch the length prefix once the frame body is known: frames are
 * encoded body-first into `out` with a 4-byte hole at `len_at`.
 */
void
patchLength(std::vector<uint8_t> &out, size_t len_at)
{
    const size_t body = out.size() - (len_at + 4);
    out[len_at + 0] = uint8_t(body);
    out[len_at + 1] = uint8_t(body >> 8);
    out[len_at + 2] = uint8_t(body >> 16);
    out[len_at + 3] = uint8_t(body >> 24);
}

size_t
beginFrame(std::vector<uint8_t> &out, FrameType type)
{
    const size_t len_at = out.size();
    putU32(out, 0); // patched by patchLength
    putU8(out, uint8_t(type));
    return len_at;
}

/**
 * `length` of the Result frame appendResult writes for `rows` rows:
 * type, id, error, tier and numRows, then each row's value bits and,
 * on the approximate tier (tier 1), its (lo, hi) bound bits.
 */
uint64_t
resultLength(bool approx, size_t rows)
{
    return 1 + 8 + 4 + 1 + 4 + uint64_t(rows) * (approx ? 24 : 8);
}

/** Bounded little-endian reader over one frame's payload. */
struct Reader
{
    const uint8_t *p;
    size_t left;

    bool
    u8(uint8_t *out)
    {
        if (left < 1)
            return false;
        *out = p[0];
        p += 1;
        left -= 1;
        return true;
    }

    bool
    u32(uint32_t *out)
    {
        if (left < 4)
            return false;
        *out = getU32(p);
        p += 4;
        left -= 4;
        return true;
    }

    bool
    u64(uint64_t *out)
    {
        if (left < 8)
            return false;
        *out = getU64(p);
        p += 8;
        left -= 8;
        return true;
    }
};

} // namespace

void
appendHello(std::vector<uint8_t> &out, uint32_t version,
            uint64_t clientId)
{
    const size_t at = beginFrame(out, FrameType::Hello);
    putU32(out, version);
    // The clientId field exists only from v3 on; encoding it under the
    // old version would produce a frame no v2 peer accepts.
    if (version >= 3)
        putU64(out, clientId);
    patchLength(out, at);
}

void
appendHelloAck(std::vector<uint8_t> &out, uint32_t version)
{
    const size_t at = beginFrame(out, FrameType::HelloAck);
    putU32(out, version);
    patchLength(out, at);
}

void
appendSubmit(std::vector<uint8_t> &out, const SubmitFrame &frame)
{
    const size_t at = beginFrame(out, FrameType::Submit);
    putU64(out, frame.id);
    putU32(out, frame.mode);
    // Raw double bits: NaN payloads and -0.0 must survive the round
    // trip bit-exactly so the server validates what the client sent.
    putU64(out, std::bit_cast<uint64_t>(frame.budget));
    putU64(out, frame.deadlineNs);
    putU32(out, uint32_t(frame.rows.size()));
    putU32(out, frame.numVars);
    for (const auto &row : frame.rows)
        for (uint32_t v : row)
            putU32(out, v);
    patchLength(out, at);
}

void
appendResult(std::vector<uint8_t> &out, const ResultFrame &frame)
{
    const size_t at = beginFrame(out, FrameType::Result);
    putU64(out, frame.id);
    putU32(out, uint32_t(frame.error));
    putU8(out, frame.tier);
    putU32(out, uint32_t(frame.values.size()));
    for (double v : frame.values)
        putU64(out, std::bit_cast<uint64_t>(v));
    if (frame.tier == 1)
        for (size_t i = 0; i < frame.values.size(); ++i) {
            putU64(out, std::bit_cast<uint64_t>(frame.boundLo[i]));
            putU64(out, std::bit_cast<uint64_t>(frame.boundHi[i]));
        }
    patchLength(out, at);
}

void
appendPing(std::vector<uint8_t> &out, uint64_t token)
{
    const size_t at = beginFrame(out, FrameType::Ping);
    putU64(out, token);
    patchLength(out, at);
}

void
appendPong(std::vector<uint8_t> &out, uint64_t token)
{
    const size_t at = beginFrame(out, FrameType::Pong);
    putU64(out, token);
    patchLength(out, at);
}

int
validateSubmit(const SubmitFrame &frame)
{
    if (frame.mode != uint32_t(REASON_MODE_PROBABILISTIC) &&
        frame.mode != uint32_t(REASON_MODE_APPROX))
        return REASON_ERR_BAD_MODE;
    // NaN fails the >= comparison; infinities are explicit.  The
    // exact mode must not smuggle a budget (a client bug, not a
    // quietly ignored field).
    if (!(frame.budget >= 0.0) || std::isinf(frame.budget))
        return REASON_ERR_BAD_BUDGET;
    if (frame.mode == uint32_t(REASON_MODE_PROBABILISTIC) &&
        frame.budget != 0.0)
        return REASON_ERR_BAD_BUDGET;
    // The answer must fit one frame: a Result past kMaxFrameBytes
    // poisons every decoder, so the client would lose the connection
    // and the answer with it.
    if (resultLength(frame.mode == uint32_t(REASON_MODE_APPROX),
                     frame.rows.size()) > kMaxFrameBytes)
        return REASON_ERR_BAD_BATCH;
    return REASON_OK;
}

void
FrameDecoder::feed(const uint8_t *data, size_t n)
{
    // Compact the consumed prefix before growing, so a long-lived
    // connection does not accumulate every byte it ever received.
    if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
        buf_.erase(buf_.begin(), buf_.begin() + long(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + n);
}

FrameDecoder::Status
FrameDecoder::next(Frame *out)
{
    if (poisoned_)
        return Status::Malformed;
    const size_t avail = buf_.size() - pos_;
    if (avail < 4)
        return Status::NeedMore;
    const uint8_t *base = buf_.data() + pos_;
    const uint32_t length = getU32(base);
    if (length < 1 || length > kMaxFrameBytes) {
        poisoned_ = true;
        poisonReason_ = "length";
        return Status::Malformed;
    }
    if (avail < 4 + size_t(length))
        return Status::NeedMore;

    const uint8_t type = base[4];
    Reader r{base + 5, size_t(length) - 1};
    bool ok = false;
    // Which check failed, for poisonReason(): failed fixed-field reads
    // are truncation; size inconsistencies against declared counts are
    // shape violations.
    const char *reason = "truncation";
    switch (type) {
      case uint8_t(FrameType::Hello): {
        out->type = FrameType::Hello;
        out->helloClientId = 0;
        ok = r.u32(&out->helloVersion);
        if (ok && out->helloVersion >= 3) {
            // v3 adds the clientId.  Versions beyond ours may append
            // further fields — tolerate trailing bytes there, so the
            // server can still decode the version and answer the
            // mismatch instead of dropping the connection opaquely.
            ok = r.u64(&out->helloClientId);
            if (ok && out->helloVersion == 3 && r.left != 0) {
                ok = false;
                reason = "shape";
            }
        } else if (ok && r.left != 0) {
            ok = false;
            reason = "shape";
        }
        break;
      }
      case uint8_t(FrameType::HelloAck): {
        out->type = FrameType::HelloAck;
        ok = r.u32(&out->helloVersion);
        if (ok && r.left != 0) {
            ok = false;
            reason = "shape";
        }
        break;
      }
      case uint8_t(FrameType::Ping):
      case uint8_t(FrameType::Pong): {
        out->type = FrameType(type);
        ok = r.u64(&out->pingToken);
        if (ok && r.left != 0) {
            ok = false;
            reason = "shape";
        }
        break;
      }
      case uint8_t(FrameType::Submit): {
        out->type = FrameType::Submit;
        SubmitFrame &s = out->submit;
        s.rows.clear();
        uint32_t num_rows = 0;
        uint64_t budget_bits = 0;
        // mode, budget, and deadline are decoded structurally, never
        // validated here: unknown modes and garbage budgets are
        // *semantic* errors the server answers with an error Result
        // (validateSubmit), so one bad request cannot poison the
        // connection's framing.
        ok = r.u64(&s.id) && r.u32(&s.mode) && r.u64(&budget_bits) &&
             r.u64(&s.deadlineNs) && r.u32(&num_rows) &&
             r.u32(&s.numVars);
        s.budget = std::bit_cast<double>(budget_bits);
        // Validate the declared shape by dividing the remaining
        // payload, never by multiplying it out: the product form can
        // wrap 64 bits (2^31 x 2^31 x 4 == 0 mod 2^64), and
        // numVars == 0 would let any num_rows pass against an empty
        // payload — either way a tiny frame could drive the resize
        // below into a multi-gigabyte allocation.  r.left is bounded
        // by kMaxFrameBytes, so this also bounds the allocation.
        if (ok) {
            const size_t row_bytes = size_t(s.numVars) * 4;
            ok = row_bytes == 0
                     ? num_rows == 0 && r.left == 0
                     : r.left % row_bytes == 0 &&
                           size_t(num_rows) == r.left / row_bytes;
            if (!ok)
                reason = "shape";
        }
        if (ok) {
            s.rows.resize(num_rows);
            for (auto &row : s.rows) {
                row.resize(s.numVars);
                for (auto &v : row)
                    r.u32(&v);
            }
        }
        break;
      }
      case uint8_t(FrameType::Result): {
        out->type = FrameType::Result;
        ResultFrame &res = out->result;
        res.values.clear();
        res.boundLo.clear();
        res.boundHi.clear();
        uint32_t err = 0;
        uint32_t num_rows = 0;
        ok = r.u64(&res.id) && r.u32(&err) && r.u8(&res.tier) &&
             r.u32(&num_rows);
        res.error = int32_t(err);
        // The tier byte *is* framing — it decides the payload length
        // — so unlike Submit's mode it is validated here: values,
        // then (lo, hi) pairs when the approximate tier appended
        // bounds.  num_rows is bounded by kMaxFrameBytes / 8, so the
        // widest multiplier (24) cannot overflow size_t.
        if (ok && res.tier > 1) {
            ok = false;
            reason = "tier";
        }
        if (ok &&
            r.left != size_t(num_rows) * (res.tier == 1 ? 24 : 8)) {
            ok = false;
            reason = "shape";
        }
        if (ok) {
            res.values.resize(num_rows);
            for (auto &v : res.values) {
                uint64_t bits = 0;
                r.u64(&bits);
                v = std::bit_cast<double>(bits);
            }
            if (res.tier == 1) {
                res.boundLo.resize(num_rows);
                res.boundHi.resize(num_rows);
                for (uint32_t i = 0; i < num_rows; ++i) {
                    uint64_t lo = 0;
                    uint64_t hi = 0;
                    r.u64(&lo);
                    r.u64(&hi);
                    res.boundLo[i] = std::bit_cast<double>(lo);
                    res.boundHi[i] = std::bit_cast<double>(hi);
                }
            }
        }
        break;
      }
      default:
        reason = "type"; // unknown frame type
        break;
    }
    if (!ok) {
        poisoned_ = true;
        poisonReason_ = reason;
        return Status::Malformed;
    }
    pos_ += 4 + size_t(length);
    return Status::Ok;
}

uint64_t
fnv1a(const void *data, size_t n, uint64_t seed)
{
    uint64_t h = seed ? seed : 14695981039346656037ull;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
checksumValues(const double *values, size_t n, uint64_t seed)
{
    uint64_t h = seed ? seed : 14695981039346656037ull;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t bits = std::bit_cast<uint64_t>(values[i]);
        // Fold the little-endian byte order explicitly, so the
        // checksum matches across hosts (and the wire encoding).
        for (size_t b = 0; b < 8; ++b) {
            h ^= uint8_t(bits >> (8 * b));
            h *= 1099511628211ull;
        }
    }
    return h;
}

} // namespace wire
} // namespace sys
} // namespace reason
