#include "paced_source.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "spans.h"
#include "stream/event.h"

namespace ledger {

PaceSchedule makePaceSchedule(const std::vector<std::size_t>& frame_ends,
                              const std::vector<std::int32_t>& timestep_of,
                              std::size_t log_bytes,
                              std::int32_t num_timesteps,
                              std::int64_t period_ns, std::int64_t tick_ns) {
  PaceSchedule s;
  s.tick_ns = tick_ns;
  const std::int64_t ticks = std::max<std::int64_t>(1, period_ns / tick_ns);
  std::size_t first = 0;  // first frame of the current timestep
  std::size_t released = 0;
  for (std::int32_t t = 0; t < num_timesteps; ++t) {
    std::size_t end = first;
    while (end < timestep_of.size() && timestep_of[end] == t) {
      ++end;
    }
    const std::size_t n = end - first;
    for (std::int64_t j = 0; j < ticks; ++j) {
      const std::size_t upto =
          first + (n * static_cast<std::size_t>(j + 1) +
                   static_cast<std::size_t>(ticks) - 1) /
                      static_cast<std::size_t>(ticks);
      if (upto > first) {
        released = frame_ends[upto - 1];
      }
      s.released_by_tick.push_back(released);
    }
    s.last_due_ns.push_back((static_cast<std::int64_t>(t) * ticks + ticks -
                             1) *
                            tick_ns);
    first = end;
  }
  // Frames past the horizon and the end-of-stream frame go out on the
  // first tick after the last window.
  s.released_by_tick.push_back(log_bytes);
  return s;
}

PacedEventSource::PacedEventSource(std::span<const std::uint8_t> log,
                                   const PaceSchedule& schedule,
                                   std::int64_t origin_ns)
    : log_(log), schedule_(schedule), origin_ns_(origin_ns) {}

tsg::Result<tsg::stream::Poll> PacedEventSource::next(
    tsg::stream::GraphEvent& out) {
  const auto& released = schedule_.released_by_tick;
  const std::size_t last = released.size() - 1;
  // Catch up with the clock, then sleep to the next tick that releases
  // anything while every released frame has been read.
  const auto now_tick = static_cast<std::size_t>(
      std::max<std::int64_t>(0, nowNs() - origin_ns_) / schedule_.tick_ns);
  tick_ = std::max(tick_, std::min(now_tick, last));
  while (released[tick_] <= pos_) {
    if (tick_ == last) {
      return tsg::stream::Poll::kEnd;
    }
    std::size_t k = tick_ + 1;
    while (k < last && released[k] <= pos_) {
      ++k;
    }
    const std::int64_t due =
        origin_ns_ + static_cast<std::int64_t>(k) * schedule_.tick_ns;
    const std::int64_t from = nowNs();
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const std::int64_t woke = nowNs();
    wait_ns_ += woke - from;
    wake_late_ns_.push_back(woke - due);
    tick_ = k;
  }
  auto frame = tsg::stream::decodeFrame(
      log_.subspan(pos_, released[tick_] - pos_));
  if (!frame.isOk()) {
    return frame.status();
  }
  using Kind = tsg::stream::DecodedFrame::Kind;
  switch (frame.value().kind) {
    case Kind::kEvent:
      pos_ += frame.value().consumed;
      out = std::move(frame.value().event);
      return tsg::stream::Poll::kEvent;
    case Kind::kEnd:
      pos_ += frame.value().consumed;
      return tsg::stream::Poll::kEnd;
    case Kind::kNeedMore:
      break;
  }
  return tsg::Status::internal("paced release cut a frame in half");
}

}  // namespace ledger
