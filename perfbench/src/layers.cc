#include <string>

#include "pc/flat_cache.h"
#include "trace.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {

using namespace reason;

namespace {
/** Keeps probe results observable so no call is optimised away. */
volatile double g_sink = 0.0;
} // namespace

void
probeFlatUpward(const pc::FlatCircuit &flat,
                const std::vector<pc::Assignment> &rows, Outcome &out)
{
    trace::Span span("pc.flat:upward_probe");
    // One worker: the serving engine runs with serveThreads = 1.
    util::ThreadPool pool(1);
    pc::CircuitEvaluator eval(flat, &pool);
    size_t next = 0;
    double sink = 0.0;
    out.perLayer["flat.upward_us_per_row_b1"] = timePerCallUs([&] {
        sink += eval.logLikelihood(rows[next]);
        next = (next + 1) % rows.size();
    });
    std::vector<pc::Assignment> batch;
    for (size_t i = 0; i < 64; ++i)
        batch.push_back(rows[i % rows.size()]);
    std::vector<double> values(batch.size());
    out.perLayer["flat.upward_us_per_row_b64"] =
        timePerCallUs([&] { eval.logLikelihoodBatch(batch, values); }) /
        double(batch.size());
    g_sink = sink;
}

void
probeWire(const sys::wire::SubmitFrame &submit,
          const sys::wire::ResultFrame &result, Outcome &out)
{
    trace::Span span("sys.wire:codec_probe");
    namespace wire = sys::wire;
    std::vector<uint8_t> submitBytes;
    wire::appendSubmit(submitBytes, submit);
    std::vector<uint8_t> resultBytes;
    wire::appendResult(resultBytes, result);
    out.perLayer["wire.submit_bytes"] = double(submitBytes.size());

    std::vector<uint8_t> buf;
    out.perLayer["wire.encode_submit_us"] = timePerCallUs([&] {
        buf.clear();
        wire::appendSubmit(buf, submit);
    });
    out.perLayer["wire.encode_result_us"] = timePerCallUs([&] {
        buf.clear();
        wire::appendResult(buf, result);
    });

    const auto decodeUs = [&](const std::vector<uint8_t> &bytes,
                              wire::FrameType type, const char *what) {
        wire::FrameDecoder decoder;
        wire::Frame frame;
        bool ok = true;
        const double us = timePerCallUs([&] {
            decoder.feed(bytes.data(), bytes.size());
            ok = ok &&
                 decoder.next(&frame) == wire::FrameDecoder::Status::Ok &&
                 frame.type == type;
        });
        out.check(ok, std::string("wire probe decodes its own ") + what);
        return us;
    };
    out.perLayer["wire.decode_submit_us"] =
        decodeUs(submitBytes, wire::FrameType::Submit, "Submit");
    out.perLayer["wire.decode_result_us"] =
        decodeUs(resultBytes, wire::FrameType::Result, "Result");
}

void
addSetupMetrics(const std::vector<double> &parseMs,
                const std::vector<double> &lowerMs, Outcome &out)
{
    const pc::FlatCacheStats cache = pc::flatCacheStats();
    const uint64_t lookups = cache.hits + cache.misses;
    out.perLayer["pc.parse_ms"] = median(parseMs);
    out.perLayer["pc.lower_ms"] = median(lowerMs);
    out.perLayer["cache.hit_rate"] =
        lookups == 0 ? 0.0 : double(cache.hits) / double(lookups);
}

void
finishTrace(const Options &options, Outcome &out)
{
    trace::enable(false);
    const std::string path = options.workDir + "/trace-" +
                             options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    std::string error;
    out.check(trace::writeChromeTrace(path, &error), error);
    out.note(format("trace: %s (%zu spans)", path.c_str(),
                    trace::spanCount()));
}

} // namespace perfbench
