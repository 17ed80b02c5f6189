#include "spans.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace ledger {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

ScopedSpan::ScopedSpan(const SpanScope& scope, const char* name,
                       std::int32_t partition, std::int32_t timestep)
    : log_(scope.log) {
  if (log_ == nullptr) {
    return;
  }
  span_.id = log_->nextId();
  span_.parent = scope.parent;
  span_.job = scope.job;
  span_.name = name;
  span_.partition = partition;
  span_.timestep = timestep;
  span_.start_ns = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) {
    span_.end_ns = nowNs();
    log_->record(span_);
  }
}

SpanScope ScopedSpan::child() const {
  return SpanScope{log_, span_.job, span_.id};
}

bool writeSpansJson(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"job\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"partition\":%d,"
                 "\"timestep\":%d}%s\n",
                 s.id, s.parent, s.job, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.partition, s.timestep,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace ledger
