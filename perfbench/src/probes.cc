#include "probes.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace ledger {

TimedProvider::TimedProvider(tsg::InstanceProvider& inner,
                             std::uint32_t num_partitions, SpanScope scope)
    : inner_(inner),
      scope_(scope),
      first_call_ns_(num_partitions,
                     std::vector<std::int64_t>(inner.numInstances(), -1)) {}

std::size_t TimedProvider::numInstances() const {
  return inner_.numInstances();
}
std::int64_t TimedProvider::t0() const { return inner_.t0(); }
std::int64_t TimedProvider::delta() const { return inner_.delta(); }

const tsg::PartitionInstanceData& TimedProvider::instanceFor(
    tsg::PartitionId p, tsg::Timestep t) {
  auto& first = first_call_ns_[p][static_cast<std::size_t>(t)];
  if (first < 0) {
    first = nowNs();
  }
  const ScopedSpan span(scope_, "gofs.instanceFor",
                        static_cast<std::int32_t>(p), t);
  return inner_.instanceFor(p, t);
}

std::int64_t TimedProvider::takeLoadNs(tsg::PartitionId p) {
  return inner_.takeLoadNs(p);
}

std::int64_t TimedProvider::firstCallNs(tsg::Timestep t) const {
  std::int64_t best = -1;
  for (const auto& per_t : first_call_ns_) {
    const std::int64_t v = per_t[static_cast<std::size_t>(t)];
    if (v >= 0 && (best < 0 || v < best)) {
      best = v;
    }
  }
  return best;
}

TimedStream::TimedStream(tsg::TimestepStream& inner,
                         std::size_t planned_timesteps, SpanScope scope)
    : inner_(inner), scope_(scope), enter_ns_(planned_timesteps + 1, -1) {}

bool TimedStream::awaitTimestep(tsg::Timestep t) {
  const auto i = static_cast<std::size_t>(t);
  if (i < enter_ns_.size() && enter_ns_[i] < 0) {
    enter_ns_[i] = nowNs();
  }
  const ScopedSpan span(scope_, "stream.awaitTimestep", -1, t);
  return inner_.awaitTimestep(t);
}

bool TimedStream::subgraphDirty(tsg::Timestep t, tsg::SubgraphId sg) const {
  return inner_.subgraphDirty(t, sg);
}

std::int64_t TimedStream::enterNs(tsg::Timestep t) const {
  const auto i = static_cast<std::size_t>(t);
  return i < enter_ns_.size() ? enter_ns_[i] : -1;
}

ThreadProbe::ThreadProbe(std::int64_t period_ms)
    : period_ms_(period_ms), thread_([this] { loop(); }) {}

ThreadProbe::~ThreadProbe() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void ThreadProbe::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const int n = threadCount();
    if (n > max_threads_.load()) {
      max_threads_.store(n);
    }
    cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                 [this] { return stop_; });
  }
}

namespace {

// Value of a "Key:\t<number> ..." line of /proc/self/status; -1 if absent.
long long statusField(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  char line[256];
  long long value = -1;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::atoll(line + key_len + 1);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

int threadCount() { return static_cast<int>(statusField("Threads")); }

double peakRssMb() {
  return static_cast<double>(statusField("VmHWM")) / 1024.0;
}

bool resetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

CpuTicks hostCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return ticks;
  }
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) {
      ticks.total += x;
    }
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

int usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return CPU_COUNT(&set);
}

}  // namespace ledger
