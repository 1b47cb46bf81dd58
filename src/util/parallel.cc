#include "util/parallel.h"

#include <algorithm>
#include <memory>

namespace reason {
namespace util {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers_.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop(unsigned worker_index)
{
    uint64_t seen = 0;
    for (;;) {
        RangeFn fn;
        void *ctx;
        size_t begin, end;
        unsigned chunks;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
            fn = jobFn_;
            ctx = jobCtx_;
            begin = jobBegin_;
            end = jobEnd_;
            chunks = jobChunks_;
        }
        // Chunk `worker_index` (chunk 0 belongs to the caller); workers
        // beyond the chunk count just acknowledge completion.
        if (worker_index < chunks) {
            const size_t total = end - begin;
            const size_t lo = begin + total * worker_index / chunks;
            const size_t hi = begin + total * (worker_index + 1) / chunks;
            if (lo < hi)
                fn(ctx, lo, hi, worker_index);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--pending_ == 0)
                done_.notify_one();
        }
    }
}

void
ThreadPool::parallelForRaw(size_t begin, size_t end, size_t min_grain,
                           RangeFn fn, void *ctx)
{
    if (end <= begin)
        return;
    const size_t total = end - begin;
    if (min_grain == 0)
        min_grain = 1;
    // Deterministic chunk count: range size and pool size only.
    size_t chunks = std::min<size_t>(numThreads(), total / min_grain);
    if (workers_.empty() || chunks <= 1) {
        fn(ctx, begin, end, 0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobFn_ = fn;
        jobCtx_ = ctx;
        jobBegin_ = begin;
        jobEnd_ = end;
        jobChunks_ = unsigned(chunks);
        pending_ = unsigned(workers_.size());
        ++generation_;
    }
    wake_.notify_all();
    // The caller is worker 0 and always takes the first chunk.
    fn(ctx, begin, begin + total / chunks, 0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
}

namespace {

std::unique_ptr<ThreadPool> g_pool;      // lazily created
unsigned g_threads = 0;                  // 0 = hardware concurrency
std::mutex g_pool_mutex;

ReductionPolicy g_reduction_policy;
std::mutex g_reduction_mutex;

} // namespace

ThreadPool &
globalThreadPool()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(g_threads);
    return *g_pool;
}

void
setGlobalThreads(unsigned n)
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_threads = n;
    g_pool.reset(); // recreated lazily with the new count
}

bool
parseThreadCount(const char *text, unsigned *out)
{
    if (text == nullptr || *text == '\0')
        return false;
    unsigned long value = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        value = value * 10 + unsigned(*p - '0');
        if (value > kMaxThreads)
            return false;
    }
    *out = unsigned(value);
    return true;
}

ReductionPolicy
reductionPolicy()
{
    std::lock_guard<std::mutex> lock(g_reduction_mutex);
    return g_reduction_policy;
}

void
setReductionPolicy(const ReductionPolicy &policy)
{
    std::lock_guard<std::mutex> lock(g_reduction_mutex);
    g_reduction_policy = policy;
}

unsigned
resolveShardCount(unsigned shards, bool deterministic, size_t samples,
                  unsigned workers)
{
    if (shards == 0) {
        // A dataset smaller than the target shard count keeps one
        // shard (one serial left fold) instead of degenerating into a
        // few tiny slices.  The deterministic target ignores
        // `workers`, which keeps the result thread-count-invariant.
        const unsigned target = deterministic ? kAutoReductionShards
                                              : std::max(workers, 1u);
        shards = samples >= target ? target : 1;
    }
    if (samples < shards)
        shards = unsigned(samples);
    return std::max(shards, 1u);
}

unsigned
globalThreads()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool)
        return g_pool->numThreads();
    if (g_threads != 0)
        return g_threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace util
} // namespace reason
