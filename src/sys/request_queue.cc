#include "sys/request_queue.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/logging.h"

namespace reason {
namespace sys {

namespace {

uint64_t
nowNs()
{
    return steadyNowNs();
}

/** steadyNowNs value as a steady_clock time_point (for waits). */
std::chrono::steady_clock::time_point
steadyTimePoint(uint64_t ns)
{
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns));
}

/** Nearest-rank percentile of an already-sorted sample. */
double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(q * double(sorted.size()));
    const size_t idx =
        std::min(sorted.size() - 1,
                 size_t(std::max(rank - 1.0, 0.0)));
    return sorted[idx];
}

} // namespace

RequestQueue::RequestQueue(const QueueOptions &options)
    : options_(options)
{
    reservoir_.reserve(kLatencyReservoirSize);
}

void
RequestQueue::failLocked(const std::shared_ptr<Request> &request,
                         int error, uint64_t now)
{
    request->error = error;
    request->state = RequestState::Done;
    if (request->enqueuedNs == 0)
        request->enqueuedNs = now;
    request->completedNs = now;
    ++stats_.completed;
    if (error == REASON_ERR_OVERLOAD)
        ++stats_.shedRequests;
    else if (error == REASON_ERR_DEADLINE_EXCEEDED)
        ++stats_.expired;
    else if (error == REASON_ERR_CANCELLED)
        ++stats_.cancelled;
    noteDoneLocked(request);
    doneCv_.notify_all();
}

void
RequestQueue::noteDoneLocked(const std::shared_ptr<Request> &request)
{
    if (request->onDone)
        pendingCallbacks_.push_back(request);
}

void
RequestQueue::notifyUnlocked(std::unique_lock<std::mutex> &lock,
                             bool relock)
{
    std::vector<std::shared_ptr<Request>> done;
    done.swap(pendingCallbacks_);
    lock.unlock();
    for (const std::shared_ptr<Request> &r : done) {
        // Taken out of the request first: the callback runs once and
        // its captures die with it.
        CompletionCallback fn = std::exchange(r->onDone, nullptr);
        fn(*r);
    }
    if (relock)
        lock.lock();
}

void
RequestQueue::readyShardLocked(const ShardKey &key, Shard &shard)
{
    reasonAssert(!shard.inReady, "readying a ready shard");
    shard.inReady = true;
    ready_.push_back(key);
    workCv_.notify_all();
}

void
RequestQueue::eraseShardIfIdleLocked(ShardMap::iterator it)
{
    if (it == shards_.end())
        return;
    Shard &shard = it->second;
    if (shard.pendingRequests == 0 && !shard.inReady)
        shards_.erase(it);
}

bool
RequestQueue::shedOldestLocked()
{
    // The age deque is an admission-ordered *view*; entries whose
    // request already left the queue (dispatched or shed) are pruned
    // here instead of eagerly at pop time.
    while (!age_.empty() &&
           age_.front()->state != RequestState::Queued)
        age_.pop_front();
    if (age_.empty())
        return false;
    std::shared_ptr<Request> victim = age_.front();
    age_.pop_front();

    auto sit = shards_.find(ShardKey{victim->groupKey, victim->mode});
    reasonAssert(sit != shards_.end(), "shed victim has no shard");
    Shard &shard = sit->second;
    bool removed = false;
    for (size_t li = 0; li < shard.lanes.size(); ++li) {
        Lane &lane = shard.lanes[li];
        if (lane.session != victim->session.get())
            continue;
        // The globally oldest queued request is necessarily the head
        // of its lane (lanes are FIFO in admission order).
        reasonAssert(lane.queue.front().get() == victim.get(),
                     "shed victim not at lane head");
        lane.queue.pop_front();
        if (lane.queue.empty()) {
            shard.lanes.erase(shard.lanes.begin() +
                              std::ptrdiff_t(li));
            if (shard.cursor > li)
                --shard.cursor;
        }
        removed = true;
        break;
    }
    reasonAssert(removed, "shed victim has no lane");
    --shard.pendingRequests;
    --totalPending_;
    failLocked(victim, REASON_ERR_OVERLOAD, nowNs());
    return true;
}

bool
RequestQueue::removeQueuedLocked(const std::shared_ptr<Request> &request)
{
    auto sit = shards_.find(ShardKey{request->groupKey, request->mode});
    if (sit == shards_.end())
        return false;
    Shard &shard = sit->second;
    for (size_t li = 0; li < shard.lanes.size(); ++li) {
        Lane &lane = shard.lanes[li];
        if (lane.session != request->session.get())
            continue;
        auto qit = std::find(lane.queue.begin(), lane.queue.end(),
                             request);
        if (qit == lane.queue.end())
            return false;
        lane.queue.erase(qit);
        if (lane.queue.empty()) {
            shard.lanes.erase(shard.lanes.begin() +
                              std::ptrdiff_t(li));
            if (shard.cursor > li)
                --shard.cursor;
        }
        --shard.pendingRequests;
        --totalPending_;
        eraseShardIfIdleLocked(shards_.find(
            ShardKey{request->groupKey, request->mode}));
        return true;
    }
    return false;
}

void
RequestQueue::noteDeadlineLocked(uint64_t deadlineNs)
{
    if (deadlineNs != 0 &&
        (minDeadlineNs_ == 0 || deadlineNs < minDeadlineNs_)) {
        minDeadlineNs_ = deadlineNs;
        // Deadline-aware waits must re-arm their wake-up time.
        workCv_.notify_all();
    }
}

size_t
RequestQueue::sweepExpiredLocked(uint64_t now)
{
    if (minDeadlineNs_ == 0 || now < minDeadlineNs_)
        return 0;
    size_t expired = 0;
    uint64_t min_next = 0;
    for (auto sit = shards_.begin(); sit != shards_.end();) {
        Shard &shard = sit->second;
        for (size_t li = 0; li < shard.lanes.size();) {
            Lane &lane = shard.lanes[li];
            for (size_t qi = 0; qi < lane.queue.size();) {
                const std::shared_ptr<Request> &r = lane.queue[qi];
                if (r->deadlineNs != 0 && r->deadlineNs <= now) {
                    std::shared_ptr<Request> victim = r;
                    lane.queue.erase(lane.queue.begin() +
                                     std::ptrdiff_t(qi));
                    --shard.pendingRequests;
                    --totalPending_;
                    ++expired;
                    failLocked(victim, REASON_ERR_DEADLINE_EXCEEDED,
                               now);
                    continue;
                }
                if (r->deadlineNs != 0 &&
                    (min_next == 0 || r->deadlineNs < min_next))
                    min_next = r->deadlineNs;
                ++qi;
            }
            if (lane.queue.empty()) {
                shard.lanes.erase(shard.lanes.begin() +
                                  std::ptrdiff_t(li));
                if (shard.cursor > li)
                    --shard.cursor;
            } else {
                ++li;
            }
        }
        // Idle shard entries left behind by the sweep can be erased
        // unless a stale ready_ entry still references them (popGroup
        // handles gathering nothing from those).
        auto cur = sit++;
        eraseShardIfIdleLocked(cur);
    }
    minDeadlineNs_ = min_next;
    return expired;
}

void
RequestQueue::failAllQueuedLocked(int error, uint64_t now)
{
    for (auto &entry : shards_)
        for (Lane &lane : entry.second.lanes)
            for (const std::shared_ptr<Request> &r : lane.queue)
                failLocked(r, error, now);
    shards_.clear();
    ready_.clear();
    age_.clear();
    totalPending_ = 0;
    minDeadlineNs_ = 0;
}

void
RequestQueue::push(const std::shared_ptr<Request> &request)
{
    reasonAssert(request != nullptr, "null request");
    std::unique_lock<std::mutex> lock(mutex_);
    pushLocked(request);
    notifyUnlocked(lock);
}

void
RequestQueue::pushLocked(const std::shared_ptr<Request> &request)
{
    const uint64_t now = nowNs();
    request->enqueuedNs = now;
    request->ownerQueue = this;
    if (shutdown_) {
        failLocked(request, REASON_ERR_SHUTDOWN, now);
        return;
    }
    if (draining_) {
        failLocked(request, REASON_ERR_SHUTTING_DOWN, now);
        return;
    }
    // Expire aged work before judging capacity so a burst of dead
    // requests cannot trigger shedding of live ones (and so expiry
    // does not depend on a dispatcher being free to sweep).
    if (minDeadlineNs_ != 0 && now >= minDeadlineNs_)
        sweepExpiredLocked(now);
    if (options_.capacity > 0 &&
        totalPending_ >= options_.capacity) {
        // Shed before admitting so the pending count never exceeds
        // capacity; fall back to rejection if nothing is sheddable.
        if (options_.policy == QueuePolicy::RejectNew ||
            !shedOldestLocked()) {
            failLocked(request, REASON_ERR_OVERLOAD, now);
            return;
        }
    }

    const ShardKey key{request->groupKey, request->mode};
    Shard &shard = shards_[key];
    Lane *lane = nullptr;
    for (Lane &l : shard.lanes)
        if (l.session == request->session.get()) {
            lane = &l;
            break;
        }
    if (lane == nullptr) {
        shard.lanes.push_back(Lane{request->session.get(), {}});
        lane = &shard.lanes.back();
    }
    lane->queue.push_back(request);
    ++shard.pendingRequests;
    ++totalPending_;
    noteDeadlineLocked(request->deadlineNs);
    if (options_.capacity > 0 &&
        options_.policy == QueuePolicy::ShedOldest)
        age_.push_back(request);

    stats_.requests += 1;
    stats_.rows += request->rows.size();
    stats_.maxQueueDepth =
        std::max<uint64_t>(stats_.maxQueueDepth, totalPending_);

    if (!shard.inReady)
        readyShardLocked(key, shard);
}

void
RequestQueue::gatherLocked(Shard &shard,
                           std::vector<std::shared_ptr<Request>> &group,
                           size_t &rowCount, size_t maxRows)
{
    const uint64_t now = nowNs();
    while (shard.pendingRequests > 0 && !shard.lanes.empty()) {
        if (shard.cursor >= shard.lanes.size())
            shard.cursor = 0;
        Lane &lane = shard.lanes[shard.cursor];
        std::shared_ptr<Request> head = lane.queue.front();
        if (head->deadlineNs != 0 && head->deadlineNs <= now) {
            // Expired while queued: drop at pop time instead of
            // spending batch slots on an answer nobody is waiting for.
            // minDeadlineNs_ stays a conservative lower bound; the
            // next sweep recomputes it exactly.
            lane.queue.pop_front();
            --shard.pendingRequests;
            --totalPending_;
            failLocked(head, REASON_ERR_DEADLINE_EXCEEDED, now);
            if (lane.queue.empty())
                shard.lanes.erase(shard.lanes.begin() +
                                  std::ptrdiff_t(shard.cursor));
            continue;
        }
        // The first request always rides (oversized explicit batches
        // still run); afterwards stop at the row budget.
        if (!group.empty() &&
            rowCount + head->rows.size() > maxRows)
            break;
        rowCount += head->rows.size();
        group.push_back(std::move(head));
        lane.queue.pop_front();
        --shard.pendingRequests;
        --totalPending_;
        if (lane.queue.empty())
            // Erasing shifts the next lane into cursor's slot, which
            // is exactly the round-robin successor.
            shard.lanes.erase(shard.lanes.begin() +
                              std::ptrdiff_t(shard.cursor));
        else
            ++shard.cursor;
        if (rowCount >= maxRows)
            break;
    }
}

std::vector<std::shared_ptr<Request>>
RequestQueue::popGroup(size_t maxRows)
{
    if (maxRows == 0)
        maxRows = 1;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // Deadline-aware wait: with pending deadlines the wait wakes
        // at the earliest one and sweeps, so expiry happens even when
        // no new work arrives (and even while paused).
        while (!(shutdown_ || (!paused_ && !ready_.empty()))) {
            if (!pendingCallbacks_.empty()) {
                // Never sleep on callbacks this pop's sweeps or
                // gathers owe; run them, then re-check.
                notifyUnlocked(lock, /*relock=*/true);
                continue;
            }
            if (minDeadlineNs_ != 0) {
                workCv_.wait_until(lock,
                                   steadyTimePoint(minDeadlineNs_));
                const uint64_t now = nowNs();
                if (minDeadlineNs_ != 0 && now >= minDeadlineNs_)
                    sweepExpiredLocked(now);
            } else {
                workCv_.wait(lock);
            }
        }
        if (ready_.empty()) {
            notifyUnlocked(lock);
            return {}; // shutdown: dispatcher exit signal
        }

        const ShardKey key = ready_.front();
        ready_.pop_front();
        auto sit = shards_.find(key);
        reasonAssert(sit != shards_.end(), "ready shard missing");
        Shard &shard = sit->second;
        shard.inReady = false;

        std::vector<std::shared_ptr<Request>> group;
        size_t rowCount = 0;
        gatherLocked(shard, group, rowCount, maxRows);
        // Re-readying goes behind other ready shards — that is the
        // cross-fingerprint fairness.
        if (shard.pendingRequests > 0)
            readyShardLocked(key, shard);
        else
            shards_.erase(sit);
        if (group.empty())
            continue; // shed, cancelled or expired since it was readied

        const uint64_t started = nowNs();
        for (const auto &r : group) {
            r->state = RequestState::Running;
            r->startedNs = started;
        }
        running_ += group.size();
        stats_.batches += 1;
        batchedRows_ += rowCount;
        notifyUnlocked(lock); // requests the gather expired
        return group;
    }
}

void
RequestQueue::recordLatencyLocked(double latencyMs)
{
    ++reservoirSeen_;
    if (reservoir_.size() < kLatencyReservoirSize) {
        reservoir_.push_back(latencyMs);
        return;
    }
    // Algorithm R with a deterministic LCG: each of the `seen` samples
    // ends up in the reservoir with equal probability.
    reservoirLcg_ = reservoirLcg_ * 6364136223846793005ull +
                    1442695040888963407ull;
    const uint64_t slot = reservoirLcg_ % reservoirSeen_;
    if (slot < kLatencyReservoirSize)
        reservoir_[size_t(slot)] = latencyMs;
}

void
RequestQueue::complete(const std::vector<std::shared_ptr<Request>> &group)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const uint64_t done = nowNs();
    reasonAssert(running_ >= group.size(),
                 "completing more than is running");
    running_ -= group.size();
    for (const auto &r : group) {
        r->state = RequestState::Done;
        noteDoneLocked(r);
        r->completedNs = done;
        totalQueueNs_ += r->startedNs - r->enqueuedNs;
        totalLatencyNs_ += done - r->enqueuedNs;
        ++stats_.completed;
        ++stats_.executed;
        recordLatencyLocked(double(done - r->enqueuedNs) / 1e6);
    }
    doneCv_.notify_all();
    notifyUnlocked(lock);
}

bool
RequestQueue::pollDone(const Request &request) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return request.state == RequestState::Done;
}

void
RequestQueue::waitDone(const Request &request) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock,
                 [&] { return request.state == RequestState::Done; });
}

bool
RequestQueue::cancel(const std::shared_ptr<Request> &request)
{
    reasonAssert(request != nullptr, "null request");
    std::unique_lock<std::mutex> lock(mutex_);
    if (request->state != RequestState::Queued)
        return false; // already dispatched (or done) — let it finish
    if (!removeQueuedLocked(request))
        return false;
    failLocked(request, REASON_ERR_CANCELLED, nowNs());
    notifyUnlocked(lock);
    return true;
}

size_t
RequestQueue::sweepExpired()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const size_t expired = sweepExpiredLocked(nowNs());
    notifyUnlocked(lock);
    return expired;
}

void
RequestQueue::beginDrain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    // A paused engine must still drain its backlog.
    paused_ = false;
    workCv_.notify_all();
}

bool
RequestQueue::drainWait(uint64_t deadlineNs)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (totalPending_ > 0 || running_ > 0) {
        const uint64_t now = nowNs();
        if (now >= deadlineNs)
            break;
        doneCv_.wait_until(lock, steadyTimePoint(deadlineNs));
    }
    const bool clean = totalPending_ == 0;
    if (!clean) {
        failAllQueuedLocked(REASON_ERR_DEADLINE_EXCEEDED, nowNs());
        notifyUnlocked(lock, /*relock=*/true);
    }
    // In-flight groups always complete normally — wait them out
    // unbounded (dispatcher execution is finite by construction).
    doneCv_.wait(lock, [&] { return running_ == 0; });
    return clean;
}

void
RequestQueue::shutdown()
{
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
    // Failed, never executed: completion is counted, execution is not,
    // so the latency means keep their executed-requests denominator.
    failAllQueuedLocked(REASON_ERR_SHUTDOWN, nowNs());
    workCv_.notify_all();
    doneCv_.notify_all();
    notifyUnlocked(lock);
}

void
RequestQueue::pause()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void
RequestQueue::resume()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
    workCv_.notify_all();
}

EngineStats
RequestQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    EngineStats out = stats_;
    if (out.batches > 0)
        out.meanBatchOccupancy =
            double(batchedRows_) / double(out.batches);
    // Means are over *executed* requests: shed/rejected/shutdown
    // completions carry no latency and would bias the means low
    // exactly when the engine is overloaded.
    if (out.executed > 0) {
        out.meanQueueMs =
            double(totalQueueNs_) / double(out.executed) * 1e-6;
        out.meanLatencyMs =
            double(totalLatencyNs_) / double(out.executed) * 1e-6;
    }
    if (!reservoir_.empty()) {
        std::vector<double> sorted = reservoir_;
        std::sort(sorted.begin(), sorted.end());
        out.p50LatencyMs = percentileSorted(sorted, 0.50);
        out.p99LatencyMs = percentileSorted(sorted, 0.99);
    }
    return out;
}

} // namespace sys
} // namespace reason
