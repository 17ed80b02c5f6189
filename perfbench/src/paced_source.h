// Open-loop paced replay of an encoded TSEV event log.
//
// Timestep t owns the window [t·P, (t+1)·P) after the schedule's origin.
// The window is cut into ticks; each tick releases the next even share of
// t's frames, so t's last frame is due on the window's last tick and t+1's
// first frame one tick later (which is what lets the watermark seal t).
// Release is a function of the clock alone — an open loop: a frame is
// readable from its due time whether or not the ingestor kept up, so a
// stalled ingestor finds a backlog, never a delayed schedule. next() runs
// on the ingest thread, decodes frames with the stream wire codec and
// sleeps only when it has read everything due so far.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stream/source.h"

namespace ledger {

struct PaceSchedule {
  std::int64_t tick_ns = 0;
  // Byte offset of the log released by tick k (monotone; the last entry
  // covers the end-of-stream frame).
  std::vector<std::size_t> released_by_tick;
  // Per timestep: offset of its last frame's due time from the job start.
  std::vector<std::int64_t> last_due_ns;
};

// `frame_ends[i]` is the byte offset just past event frame i,
// `timestep_of[i]` its timestep; frames are in timestep order and the log
// ends with the end-of-stream frame.
PaceSchedule makePaceSchedule(const std::vector<std::size_t>& frame_ends,
                              const std::vector<std::int32_t>& timestep_of,
                              std::size_t log_bytes,
                              std::int32_t num_timesteps,
                              std::int64_t period_ns, std::int64_t tick_ns);

class PacedEventSource final : public tsg::stream::EventSource {
 public:
  // Both referents must outlive the source. Tick k is due at
  // origin_ns + k·tick.
  PacedEventSource(std::span<const std::uint8_t> log,
                   const PaceSchedule& schedule, std::int64_t origin_ns);

  tsg::Result<tsg::stream::Poll> next(tsg::stream::GraphEvent& out) override;

  // Time next() slept waiting for the schedule, and how long after its
  // tick each wake-up came. Read once the ingest thread has joined.
  [[nodiscard]] std::int64_t waitNs() const { return wait_ns_; }
  [[nodiscard]] const std::vector<std::int64_t>& wakeLateNs() const {
    return wake_late_ns_;
  }

 private:
  std::span<const std::uint8_t> log_;
  const PaceSchedule& schedule_;
  std::int64_t origin_ns_;
  std::size_t tick_ = 0;  // latest tick whose release has been read
  std::size_t pos_ = 0;   // next frame's offset
  std::int64_t wait_ns_ = 0;
  std::vector<std::int64_t> wake_late_ns_;
};

}  // namespace ledger
