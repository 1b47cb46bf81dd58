/**
 * @file
 * Minimal reusable thread pool with a deterministic parallel-for, the
 * software backbone of the flat kernel engines' parallel passes:
 * core/flat.h's level wavefronts, and pc/flat_pc.h's row-block splits
 * (batched root passes) and sample shards (dataset flows).
 *
 * Design contract, relied on by every flat evaluator:
 *
 *  - **Deterministic partitioning.**  `parallelFor(begin, end, ...)`
 *    splits the index range into at most numThreads() *contiguous*
 *    chunks whose boundaries depend only on the range size and the
 *    thread count — never on scheduling races.  Chunk i is always
 *    executed by worker i (worker 0 is the calling thread), so
 *    per-worker scratch buffers are reused stably across calls.
 *  - **No hidden reductions.**  The pool only runs disjoint index
 *    ranges; all accumulation policy stays in the caller, which is how
 *    the flat engines guarantee bit-identical results for any thread
 *    count (each output cell has exactly one writer and an unchanged
 *    floating-point expression).
 *  - **Inline fallback.**  Ranges smaller than twice `min_grain` (and
 *    all work on a 1-thread pool) run inline on the caller with zero
 *    synchronization, so sprinkling parallelFor over small ranges is
 *    free.
 *
 * Thread-safety: a ThreadPool may be shared by many evaluators, but
 * parallelFor is *not* reentrant — only one parallelFor may be active
 * on a pool at a time (nested or concurrent calls from worker threads
 * must use a different pool or run inline).  The global pool accessors
 * follow the setLogLevel convention: configure once at startup.
 */

#ifndef REASON_UTIL_PARALLEL_H
#define REASON_UTIL_PARALLEL_H

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace reason {
namespace util {

class ThreadPool
{
  public:
    /**
     * Create a pool with `threads` total workers including the calling
     * thread (so `threads - 1` OS threads are spawned).  `threads == 0`
     * uses std::thread::hardware_concurrency().
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total workers, including the calling thread; always >= 1. */
    unsigned numThreads() const
    {
        return unsigned(workers_.size()) + 1;
    }

    /** Raw chunk callback: [begin, end) slice plus the worker index. */
    using RangeFn = void (*)(void *ctx, size_t begin, size_t end,
                             unsigned worker);

    /**
     * Run `fn` over [begin, end) split into deterministic contiguous
     * chunks, one per participating worker; blocks until every chunk
     * has finished.  At most `(end - begin) / min_grain` workers
     * participate so no chunk is smaller than `min_grain` (the whole
     * range runs inline on the caller when that limit is 1).
     */
    void parallelForRaw(size_t begin, size_t end, size_t min_grain,
                        RangeFn fn, void *ctx);

    /** Typed wrapper: f(chunk_begin, chunk_end, worker_index). */
    template <typename F>
    void
    parallelFor(size_t begin, size_t end, size_t min_grain, F &&f)
    {
        parallelForRaw(
            begin, end, min_grain,
            [](void *ctx, size_t b, size_t e, unsigned w) {
                (*static_cast<std::remove_reference_t<F> *>(ctx))(b, e, w);
            },
            &f);
    }

  private:
    void workerLoop(unsigned worker_index);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    /** Monotone job counter; workers run one job per increment. */
    uint64_t generation_ = 0;
    /** Workers still to finish the current job (or acknowledge skip). */
    unsigned pending_ = 0;
    bool shutdown_ = false;
    /** Current job (valid while pending_ > 0). */
    RangeFn jobFn_ = nullptr;
    void *jobCtx_ = nullptr;
    size_t jobBegin_ = 0;
    size_t jobEnd_ = 0;
    unsigned jobChunks_ = 0;
};

/**
 * Process-wide evaluation pool used by the flat engines when no pool is
 * passed explicitly.  Created lazily with the thread count from
 * setGlobalThreads (default: hardware concurrency).
 */
ThreadPool &globalThreadPool();

/**
 * Set the worker count of the global pool (the `--threads` knob of the
 * CLI and bench_eval).  `n == 0` restores the
 * hardware-concurrency default.  Recreates the pool; call at startup or
 * between evaluation phases, never while a parallelFor is in flight.
 */
void setGlobalThreads(unsigned n);

/** Worker count the global pool has (or would be created with). */
unsigned globalThreads();

/**
 * Parse a user-supplied thread count (CLI/bench `--threads` values).
 * Accepts decimal integers in [0, kMaxThreads] (0 = hardware
 * concurrency); rejects negatives, garbage, and absurd counts instead
 * of wrapping them into ~4-billion-thread pool requests.
 *
 * @return true and sets *out on success, false otherwise.
 */
inline constexpr unsigned kMaxThreads = 1024;
bool parseThreadCount(const char *text, unsigned *out);

/**
 * Process-wide policy for sample-sharded learning reductions (EM flow
 * accumulation, Baum-Welch statistics).  Learning entry points read
 * this policy into their per-call options at construction, so it acts
 * as a default, not an override: explicitly set option fields win.
 *
 *  - `shards == 0` (auto): deterministic mode shards into a *fixed*
 *    count (kAutoReductionShards) that does not depend on the worker
 *    count, so results are bit-identical for any thread count; fast
 *    mode shards into one per pool worker.  Datasets smaller than the
 *    target resolve to a single shard (one serial left fold) instead
 *    of degenerate tiny shards.
 *  - `shards == 1` reproduces the legacy serial accumulation exactly
 *    (single left-fold over the dataset, no reduction tree).
 *  - `deterministic == false` (fast mode) relaxes *only* the reduction
 *    shape: shard contents and per-sample math are unchanged, but the
 *    shard count follows the pool size, so low-order bits of the merged
 *    totals may differ between thread counts.
 *
 * Like setGlobalThreads, configure at startup or between phases.
 */
struct ReductionPolicy
{
    unsigned shards = 0;
    bool deterministic = true;
};

ReductionPolicy reductionPolicy();
void setReductionPolicy(const ReductionPolicy &policy);

/** Fixed shard count of deterministic auto-sharding. */
inline constexpr unsigned kAutoReductionShards = 8;

/**
 * Resolve an options-level (shards, deterministic) pair against a
 * dataset size and worker count: 0 = auto per ReductionPolicy rules
 * (one shard when the dataset is smaller than the target count), and
 * the result is clamped to [1, samples].  Deterministic resolution
 * ignores `workers` entirely, which is what makes the merged totals
 * independent of the thread count.
 */
unsigned resolveShardCount(unsigned shards, bool deterministic,
                           size_t samples, unsigned workers);

/**
 * Fixed-shape pairwise tree reduction over `shards` slots: merge(a, b)
 * is called to fold slot b into slot a, with a shape that depends only
 * on the shard count — never on thread scheduling.  Slot 0 holds the
 * final total.  With shards <= 1 this is a no-op.
 */
template <typename Merge>
inline void
treeReduce(size_t shards, Merge &&merge)
{
    for (size_t stride = 1; stride < shards; stride *= 2)
        for (size_t i = 0; i + stride < shards; i += 2 * stride)
            merge(i, i + stride);
}

/**
 * Run `fold(shard, begin, end, worker)` over every contiguous shard
 * slice of `samples` items, shards split across pool workers (each
 * shard folded by exactly one worker, whose index `worker` is below
 * min(pool.numThreads(), shards), for per-worker scratch).  Slice
 * boundaries are a function of (samples, shards) alone — the
 * deterministic-placement contract every sharded learning reduction
 * relies on, kept in one place.
 */
template <typename Fold>
inline void
shardSlices(ThreadPool &pool, size_t samples, unsigned shards,
            Fold &&fold)
{
    pool.parallelFor(0, shards, 1,
                     [&](size_t b, size_t e, unsigned worker) {
                         for (size_t s = b; s < e; ++s)
                             fold(s, samples * s / shards,
                                  samples * (s + 1) / shards, worker);
                     });
}

} // namespace util
} // namespace reason

#endif // REASON_UTIL_PARALLEL_H
