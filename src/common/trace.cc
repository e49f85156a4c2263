#include "common/trace.h"

#include <chrono>
#include <sstream>

#include "common/trace_spans.h"

// The span table header is included here (it has no other mandatory
// consumer) so the registry always compiles with the tracer it documents.
static_assert(flex::trace::kSpanTableSize > 0,
              "the span table must not be empty");

namespace flex::trace {

namespace {

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// span names are code-controlled but query ids may carry user text.
void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out << "\\\"";
        break;
      case '\\':
        *out << "\\\\";
        break;
      case '\n':
        *out << "\\n";
        break;
      case '\t':
        *out << "\\t";
        break;
      case '\r':
        *out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          *out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          *out << c;
        }
    }
  }
  *out << '"';
}

}  // namespace

// The epoch is one microsecond before construction, so every recorded time
// is at least 1 and end_us == 0 always means "still open". Times are never
// clamped, so spans that close one after another never add up to more than
// the span around them.
Trace::Trace(std::string query_id)
    : query_id_(std::move(query_id)), epoch_ns_(SteadyNowNanos() - 1000) {}

uint64_t Trace::NowMicros() const {
  return (SteadyNowNanos() - epoch_ns_) / 1000;
}

uint64_t Trace::BeginSpan(const std::string& name, const std::string& category,
                          uint64_t parent) {
  const uint64_t now = NowMicros();
  MutexLock lock(&mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = name;
  span.category = category;
  span.start_us = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::EndSpan(uint64_t id) {
  if (id == kNoParent) return;
  const uint64_t now = NowMicros();
  MutexLock lock(&mu_);
  if (id > spans_.size()) return;
  Span& span = spans_[id - 1];
  if (span.end_us == 0) span.end_us = now;
}

std::vector<Span> Trace::spans() const {
  MutexLock lock(&mu_);
  return spans_;
}

uint64_t Trace::SpanDurationMicros(uint64_t id) const {
  MutexLock lock(&mu_);
  if (id == kNoParent || id > spans_.size()) return 0;
  return spans_[id - 1].duration_us();
}

uint64_t Trace::ChildDurationMicros(uint64_t parent) const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const Span& span : spans_) {
    if (span.parent == parent) total += span.duration_us();
  }
  return total;
}

std::string Trace::ToJson() const {
  std::vector<Span> snapshot = spans();
  uint64_t wall_us = 0;
  for (const Span& span : snapshot) {
    if (span.parent == kNoParent) {
      wall_us = span.duration_us();
      break;
    }
  }
  std::ostringstream out;
  out << "{\"query_id\": ";
  AppendJsonString(&out, query_id_);
  out << ", \"wall_us\": " << wall_us << ", \"spans\": [";
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const Span& span = snapshot[i];
    if (i > 0) out << ", ";
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"name\": ";
    AppendJsonString(&out, span.name);
    out << ", \"category\": ";
    AppendJsonString(&out, span.category);
    out << ", \"start_us\": " << span.start_us
        << ", \"end_us\": " << span.end_us
        << ", \"duration_us\": " << span.duration_us() << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace flex::trace
