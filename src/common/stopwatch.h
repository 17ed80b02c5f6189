// Wall-clock timing utilities used by the runtime's metering.
#pragma once

#include <chrono>
#include <cstdint>

namespace tsg {

// Nanoseconds since an arbitrary steady epoch.
inline std::int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time consumed by the calling thread. Used for all per-partition
// "busy" metering: partition workers share cores (this host may have fewer
// cores than partitions), so wall time would charge a worker for time it
// spent descheduled while its peers ran. Falls back to the wall clock on
// platforms without a thread CPU clock.
std::int64_t threadCpuNowNs();

// Simple resettable stopwatch over the steady clock.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(steadyNowNs()) {}

  void reset() { start_ns_ = steadyNowNs(); }

  [[nodiscard]] std::int64_t elapsedNs() const {
    return steadyNowNs() - start_ns_;
  }
  [[nodiscard]] double elapsedMs() const {
    return static_cast<double>(elapsedNs()) / 1e6;
  }
  [[nodiscard]] double elapsedSec() const {
    return static_cast<double>(elapsedNs()) / 1e9;
  }

 private:
  std::int64_t start_ns_;
};

// Accumulates elapsed wall time into a caller-owned counter on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::int64_t& accumulator_ns)
      : accumulator_ns_(accumulator_ns), start_ns_(steadyNowNs()) {}
  ~ScopedTimer() { accumulator_ns_ += steadyNowNs() - start_ns_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::int64_t& accumulator_ns_;
  std::int64_t start_ns_;
};

// Like ScopedTimer but accumulates the calling thread's CPU time; used for
// the per-partition instance-load meters (see threadCpuNowNs). Too costly
// for per-message sites: sends are metered once per flush instead.
class ScopedCpuTimer {
 public:
  explicit ScopedCpuTimer(std::int64_t& accumulator_ns)
      : accumulator_ns_(accumulator_ns), start_ns_(threadCpuNowNs()) {}
  ~ScopedCpuTimer() { accumulator_ns_ += threadCpuNowNs() - start_ns_; }

  ScopedCpuTimer(const ScopedCpuTimer&) = delete;
  ScopedCpuTimer& operator=(const ScopedCpuTimer&) = delete;

 private:
  std::int64_t& accumulator_ns_;
  std::int64_t start_ns_;
};

// Formats a nanosecond duration as a short human string ("1.23 s", "45 ms").
// Defined in stopwatch.cc.
class Stopwatch;
std::int64_t msToNs(double ms);
double nsToMs(std::int64_t ns);
double nsToSec(std::int64_t ns);

}  // namespace tsg
