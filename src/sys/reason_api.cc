#include "sys/reason_api.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace reason {
namespace sys {

ReasonRuntime::ReasonRuntime(const arch::ArchConfig &config,
                             compiler::Program program)
    : accel_(config), program_(std::move(program))
{
    for (const auto &p : program_.inputs)
        numInputs_ = std::max(numInputs_, p.inputTag + 1);
}

int
ReasonRuntime::REASON_execute(int batch_id, int batch_size,
                              const void *neural_buffer,
                              const void *reasoning_mode,
                              void *symbolic_buffer)
{
    if (batch_size <= 0)
        return REASON_ERR_BAD_BATCH;
    if (neural_buffer == nullptr || symbolic_buffer == nullptr)
        return REASON_ERR_NULL_BUFFER;
    int mode = REASON_MODE_PROBABILISTIC;
    if (reasoning_mode)
        std::memcpy(&mode, reasoning_mode, sizeof(int));
    if (mode < REASON_MODE_PROBABILISTIC || mode > REASON_MODE_SPMSPM)
        return REASON_ERR_BAD_MODE;
    if (completion_.count(batch_id))
        return REASON_ERR_DUPLICATE_BATCH;

    const double *in = static_cast<const double *>(neural_buffer);
    double *out = static_cast<double *>(symbolic_buffer);

    // Host raised neural_ready before calling (Sec. VI-B).
    shm_.neuralReady = true;
    shm_.symbolicReady = false;

    // Row b is copied out before out[b] is written, and out[b] lies in
    // rows 0..b, so an aliased symbolic buffer never clobbers an
    // unread row.
    uint64_t batch_cycles = 0;
    for (int b = 0; b < batch_size; ++b) {
        inputRow_.assign(in + size_t(b) * numInputs_,
                         in + size_t(b + 1) * numInputs_);
        arch::ExecutionResult r =
            accel_.run(program_, inputRow_, /*preloaded=*/b > 0);
        out[b] = r.rootValue;
        batch_cycles += r.cycles;
        if (b == batch_size - 1)
            results_[batch_id] = std::move(r);
    }
    completion_[batch_id] = now_ + batch_cycles;
    now_ += batch_cycles;

    shm_.neuralReady = false;
    shm_.symbolicReady = true;
    shm_.symbolicBuffer.assign(out, out + batch_size);
    return REASON_OK;
}

int
ReasonRuntime::REASON_check_status(int batch_id, bool blocking)
{
    auto it = completion_.find(batch_id);
    if (it == completion_.end())
        return REASON_IDLE; // never launched: nothing in flight
    if (now_ >= it->second)
        return REASON_IDLE;
    if (blocking) {
        now_ = it->second;
        return REASON_IDLE;
    }
    return REASON_EXECUTION;
}

} // namespace sys
} // namespace reason
