// In-memory span log for traced ledger runs.
//
// A span is one call the ledger makes into a tsgraph layer: name, start,
// end, the span that caused it, and the job it belongs to. Spans are kept
// in memory while the run measures and written out as JSON when it ends.
// Untraced runs never construct a ScopedSpan with a log, so they pay
// nothing beyond a null check.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ledger {

std::int64_t nowNs();

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::int32_t job = -1;     // -1 = set-up
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t partition = -1;
  std::int32_t timestep = -1;
};

class SpanLog {
 public:
  std::uint32_t nextId() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);

  // Moves every recorded span out (call once the traced work has ended).
  std::vector<Span> take();

 private:
  std::atomic<std::uint32_t> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// Context the wrappers need to attach their spans: the log (null when the
// current job is untraced), the job index and the parent span.
struct SpanScope {
  SpanLog* log = nullptr;
  std::int32_t job = -1;
  std::uint32_t parent = 0;
};

// Records one span over its own lifetime when scope.log is set.
class ScopedSpan {
 public:
  ScopedSpan(const SpanScope& scope, const char* name,
             std::int32_t partition = -1, std::int32_t timestep = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Scope for spans caused by this one.
  [[nodiscard]] SpanScope child() const;

 private:
  SpanLog* log_;
  Span span_;
};

// Writes spans as a JSON array of objects.
bool writeSpansJson(const std::string& path, const std::vector<Span>& spans);

}  // namespace ledger
