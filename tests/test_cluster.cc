#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace tsg {
namespace {

TEST(Cluster, RunsJobOnEveryPartitionExactlyOnce) {
  Cluster cluster(4);
  std::vector<std::atomic<int>> hits(4);
  cluster.run([&](PartitionId p) { hits[p].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Cluster, RepeatedRoundsReuseWorkers) {
  Cluster cluster(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 100; ++round) {
    cluster.run([&](PartitionId) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 300);
}

TEST(Cluster, TimingsMeasureBusyAndSync) {
  Cluster cluster(2);
  // Busy time is per-thread CPU time, so the slow partition must burn CPU
  // (a sleep would register ~0 busy).
  const auto& timings = cluster.run([](PartitionId p) {
    if (p == 0) {
      volatile std::uint64_t sink = 0;
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start <
             std::chrono::milliseconds(20)) {
        sink = sink + 1;
      }
    }
  });
  ASSERT_EQ(timings.size(), 2u);
  // Partition 0 burned ~20ms of CPU; partition 1 waited at the barrier.
  EXPECT_GT(timings[0].busy_ns, 5'000'000);
  // The fast worker's busy time is far below the slow worker's.
  EXPECT_LT(timings[1].busy_ns, timings[0].busy_ns);
  // The slowest worker has less sync wait than the fast one.
  EXPECT_LT(timings[0].sync_ns, timings[1].sync_ns);
}

TEST(Cluster, PartitionIdsAreStableAcrossRounds) {
  Cluster cluster(3);
  std::vector<std::thread::id> first(3);
  cluster.run([&](PartitionId p) { first[p] = std::this_thread::get_id(); });
  std::vector<std::thread::id> second(3);
  cluster.run([&](PartitionId p) { second[p] = std::this_thread::get_id(); });
  // Dedicated worker per partition: same thread serves the same partition.
  EXPECT_EQ(first, second);
}

TEST(Cluster, SinglePartitionWorks) {
  Cluster cluster(1);
  int value = 0;
  cluster.run([&](PartitionId p) {
    EXPECT_EQ(p, 0u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(Cluster, ManyPartitionsOnFewCores) {
  // Partitions may exceed hardware threads (this host has 1 core).
  Cluster cluster(9);
  std::atomic<int> total{0};
  cluster.run([&](PartitionId) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 9);
}

}  // namespace
}  // namespace tsg
