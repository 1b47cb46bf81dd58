#include "trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench {
namespace trace {

namespace {

struct Record
{
    const char *name;
    uint32_t tid;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_nextSpan{1};
std::atomic<uint64_t> g_nextRequest{1};
std::atomic<uint32_t> g_nextTid{1};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_mutex;
std::vector<Record> g_records; // guarded by g_mutex

/** Innermost open span and its request id on this thread. */
thread_local uint64_t t_current = 0;
thread_local uint64_t t_request = 0;
thread_local uint32_t t_tid = 0;

uint32_t
threadIndex()
{
    if (t_tid == 0)
        t_tid = g_nextTid.fetch_add(1, std::memory_order_relaxed);
    return t_tid;
}

double
usSinceEpoch(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

} // namespace

void
enable(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

uint64_t
newRequestId()
{
    return g_nextRequest.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
currentSpan()
{
    return t_current;
}

size_t
spanCount()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_records.size();
}

Span::Span(const char *name, uint64_t request, uint64_t parent)
    : name_(name)
{
    if (!enabled())
        return;
    id_ = g_nextSpan.fetch_add(1, std::memory_order_relaxed);
    parent_ = parent == kInheritParent ? t_current : parent;
    request_ = request != 0 ? request : t_request;
    savedParent_ = t_current;
    savedRequest_ = t_request;
    t_current = id_;
    t_request = request_;
    start_ = Clock::now();
}

Span::~Span()
{
    if (id_ == 0)
        return;
    const Clock::time_point end = Clock::now();
    t_current = savedParent_;
    t_request = savedRequest_;
    const Record r{name_, threadIndex(), id_, parent_, request_, start_,
                   end};
    std::lock_guard<std::mutex> lock(g_mutex);
    g_records.push_back(r);
}

bool
writeChromeTrace(const std::string &path, std::string *error)
{
    std::vector<Record> records;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        records = g_records;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        *error = "cannot write " + path;
        return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%llu,\"parent\":%llu,"
                     "\"request\":%llu}}%s\n",
                     r.name, unsigned(r.tid), usSinceEpoch(r.start),
                     usSinceEpoch(r.end) - usSinceEpoch(r.start),
                     (unsigned long long)r.id,
                     (unsigned long long)r.parent,
                     (unsigned long long)r.request,
                     i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    const bool ok = std::fclose(f) == 0;
    if (!ok)
        *error = "cannot finish " + path;
    return ok;
}

} // namespace trace
} // namespace perfbench
