/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * A Span times one call into a layer of the system under test.  It
 * records its name, start, end, parent span and request id; the spans
 * of one request share the request id.  Spans stay in memory and are
 * written once, at the end of the run, as Chrome trace-event JSON
 * (the format the repository's fig09 co-sim trace uses), so a run
 * opens in Perfetto or chrome://tracing.
 *
 * Recording is off unless enable(true) was called; a disabled Span
 * costs one relaxed load.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {
namespace trace {

void enable(bool on);
bool enabled();

/** Fresh id for the spans of one request. */
uint64_t newRequestId();

/** Id of this thread's innermost open span (0 when none). */
uint64_t currentSpan();

/** Spans recorded so far. */
size_t spanCount();

/**
 * Write every recorded span to `path` as Chrome trace JSON.
 * Returns false (with *error set) on I/O failure.
 */
bool writeChromeTrace(const std::string &path, std::string *error);

/** Parent argument meaning "the innermost open span of this thread". */
inline constexpr uint64_t kInheritParent = ~uint64_t(0);

class Span
{
  public:
    /**
     * Open a span.  `name` must outlive the run (a string literal).
     * `request` 0 inherits the parent's request id.  `parent` names
     * the causing span explicitly when it lives on another thread.
     */
    explicit Span(const char *name, uint64_t request = 0,
                  uint64_t parent = kInheritParent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when recording is off). */
    uint64_t id() const { return id_; }

  private:
    const char *name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t request_ = 0;
    uint64_t savedParent_ = 0;
    uint64_t savedRequest_ = 0;
    Clock::time_point start_;
};

} // namespace trace
} // namespace perfbench

#endif // PERFBENCH_TRACE_H
