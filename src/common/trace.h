#ifndef FLEX_COMMON_TRACE_H_
#define FLEX_COMMON_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace flex::trace {

/// Per-query tracing: a Trace collects named spans (steady-clock intervals
/// with parent links) as a query moves through the stack — the root "query"
/// span opened by QueryService::Run, compile/execute children, per-operator
/// spans from the interpreter, superstep/flush spans from PIE, queue-wait /
/// execute spans from HiActor and storage.read spans under scans.
///
/// The whole facility is opt-in and null-safe: every instrumentation site
/// takes a `Trace*` that is null by default, and a null trace costs one
/// pointer compare per span (the overhead budget in DESIGN.md
/// §Observability). Span recording takes a short mutex-guarded append —
/// tracing is a per-query debugging/benchmark tool, not a hot-path counter.

/// Sentinel parent for root spans; span ids are 1-based.
inline constexpr uint64_t kNoParent = 0;

struct Span {
  uint64_t id = 0;
  uint64_t parent = kNoParent;
  std::string name;      ///< e.g. "query", "SCAN", "superstep[3]"
  std::string category;  ///< e.g. "query", "operator", "superstep", "storage"
  uint64_t start_us = 0;  ///< Microseconds since the trace's epoch.
  uint64_t end_us = 0;    ///< 0 while the span is still open.

  uint64_t duration_us() const {
    return end_us >= start_us ? end_us - start_us : 0;
  }
};

class Trace {
 public:
  /// `query_id` labels the JSON dump (e.g. "IS3" or the query text hash).
  explicit Trace(std::string query_id);

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  const std::string& query_id() const { return query_id_; }

  /// Opens a span; returns its id (never 0). Thread-safe.
  uint64_t BeginSpan(const std::string& name, const std::string& category,
                     uint64_t parent = kNoParent) EXCLUDES(mu_);

  /// Closes an open span. Closing twice keeps the first end time. Every
  /// recorded time is at least 1, so end_us == 0 always means "still
  /// open".
  void EndSpan(uint64_t id) EXCLUDES(mu_);

  /// Snapshot of all spans recorded so far (open spans have end_us == 0).
  std::vector<Span> spans() const EXCLUDES(mu_);

  /// Duration of span `id`, 0 if unknown/open.
  uint64_t SpanDurationMicros(uint64_t id) const EXCLUDES(mu_);

  /// Sum of the durations of `parent`'s direct children.
  uint64_t ChildDurationMicros(uint64_t parent) const EXCLUDES(mu_);

  /// Machine-readable dump:
  /// {"query_id": "...", "wall_us": N, "spans": [{...}, ...]}
  /// where wall_us is the duration of the first root span. Deterministic:
  /// spans appear in creation order.
  std::string ToJson() const EXCLUDES(mu_);

  /// Microseconds since the trace's epoch, one microsecond before its
  /// construction (steady clock).
  uint64_t NowMicros() const;

 private:
  const std::string query_id_;
  const uint64_t epoch_ns_;
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// RAII span: begins on construction, ends on destruction. Null-safe — a
/// null trace makes every operation a no-op and id() returns kNoParent, so
/// call sites need no branches of their own.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const std::string& name,
             const std::string& category, uint64_t parent = kNoParent)
      : trace_(trace),
        id_(trace != nullptr ? trace->BeginSpan(name, category, parent)
                             : kNoParent) {}

  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Parent id for child spans (kNoParent when tracing is off).
  uint64_t id() const { return id_; }

 private:
  Trace* trace_;
  uint64_t id_;
};

}  // namespace flex::trace

#endif  // FLEX_COMMON_TRACE_H_
