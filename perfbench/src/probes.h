// Outside-in probes: forwarding timers around the two engine-facing
// interfaces, and process-level readings from /proc and getrusage.
//
// The wrappers change nothing about what the engine sees. They record when
// each call started and how long it took, so the ledger can tell when a
// timestep finished (the engine asks for the next one) and how long the
// engine waited on instance data. Per-partition state is written only by
// that partition's worker thread, as InstanceProvider's threading rules
// promise, so no locks are needed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "gofs/instance_provider.h"
#include "spans.h"

namespace ledger {

class TimedProvider final : public tsg::InstanceProvider {
 public:
  // `inner` must outlive the wrapper.
  TimedProvider(tsg::InstanceProvider& inner, std::uint32_t num_partitions,
                SpanScope scope);

  [[nodiscard]] std::size_t numInstances() const override;
  [[nodiscard]] std::int64_t t0() const override;
  [[nodiscard]] std::int64_t delta() const override;
  const tsg::PartitionInstanceData& instanceFor(tsg::PartitionId p,
                                                tsg::Timestep t) override;
  std::int64_t takeLoadNs(tsg::PartitionId p) override;

  // Earliest instanceFor(·, t) start over all partitions; -1 if never asked.
  [[nodiscard]] std::int64_t firstCallNs(tsg::Timestep t) const;

 private:
  tsg::InstanceProvider& inner_;
  SpanScope scope_;
  // [partition][timestep] start of the first call; -1 = none.
  std::vector<std::vector<std::int64_t>> first_call_ns_;
};

class TimedStream final : public tsg::TimestepStream {
 public:
  // `inner` must outlive the wrapper.
  TimedStream(tsg::TimestepStream& inner, std::size_t planned_timesteps,
              SpanScope scope);

  bool awaitTimestep(tsg::Timestep t) override;
  [[nodiscard]] bool subgraphDirty(tsg::Timestep t,
                                   tsg::SubgraphId sg) const override;

  // When the engine first asked for timestep t; -1 if never.
  [[nodiscard]] std::int64_t enterNs(tsg::Timestep t) const;

 private:
  tsg::TimestepStream& inner_;
  SpanScope scope_;
  std::vector<std::int64_t> enter_ns_;  // coordinator thread only
};

// Samples the process's thread count every few milliseconds while
// running; the peak is the validity reading process.threads_max.
class ThreadProbe {
 public:
  explicit ThreadProbe(std::int64_t period_ms);
  ~ThreadProbe();
  ThreadProbe(const ThreadProbe&) = delete;
  ThreadProbe& operator=(const ThreadProbe&) = delete;

  [[nodiscard]] int maxThreads() const { return max_threads_.load(); }

 private:
  void loop();

  std::int64_t period_ms_;
  std::atomic<int> max_threads_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;  // last: starts after the members it uses exist
};

// /proc/self/status "Threads".
int threadCount();
// /proc/self/status "VmHWM" in MiB.
double peakRssMb();
// Resets VmHWM to the current RSS (writes 5 to /proc/self/clear_refs).
bool resetPeakRss();
// User + system CPU seconds of the whole process.
double processCpuSeconds();
// CPUs this process may run on.
int usableCpus();

// Host-wide CPU time from the "cpu" line of /proc/stat, in clock ticks:
// the total, and the part the hypervisor ran something else while this
// machine wanted the CPU (steal). Zeros where /proc/stat is unreadable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks hostCpuTicks();

}  // namespace ledger
