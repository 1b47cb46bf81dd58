/**
 * @file
 * The benchmark's workloads and the per-layer probes they share.
 * README.md documents why each workload exists and what every metric
 * should move.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <vector>

#include "common.h"
#include "pc/flat_pc.h"
#include "sys/wire.h"

namespace perfbench {

/** Exact-tier single-row Submits through sys::Client over loopback. */
Outcome runServeExact(const Options &options);
/** 64-row approximate-tier Submits spoken directly in sys::wire. */
Outcome runServeApproxBatch(const Options &options);
/** Deterministic sharded EM (pc::emTrain) on a 4-worker pool. */
Outcome runLearnEm(const Options &options);

/**
 * flat.upward_us_per_row_b1 / _b64 on a 1-worker pool, over `rows`
 * (at least one row; the 64-row batch wraps around them).
 */
void probeFlatUpward(const reason::pc::FlatCircuit &flat,
                     const std::vector<reason::pc::Assignment> &rows,
                     Outcome &out);

/** wire.* codec costs on one real Submit and its Result frame. */
void probeWire(const reason::sys::wire::SubmitFrame &submit,
               const reason::sys::wire::ResultFrame &result,
               Outcome &out);

/**
 * pc.parse_ms and pc.lower_ms (medians over the run's set-ups) and
 * cache.hit_rate of the lowering cache since the last set-up cleared it.
 */
void addSetupMetrics(const std::vector<double> &parseMs,
                     const std::vector<double> &lowerMs, Outcome &out);

/** Write the recorded spans next to the run's other outputs. */
void finishTrace(const Options &options, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
