// Randomized invariant tests for the TI-BSP engine: programs that send
// message storms with seeded randomness, checking conservation laws that
// must hold regardless of topology, partitioning or schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <map>
#include <mutex>

#include "common/rng.h"
#include "core/engine.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::smallRoad;
using testing::smallSocial;

// Sends `fanout` one-byte messages to seeded-random subgraphs for `rounds`
// supersteps; counts everything sent and received.
class StormProgram final : public TiBspProgram {
 public:
  StormProgram(std::uint64_t seed, int rounds, int fanout,
               std::atomic<std::uint64_t>& sent,
               std::atomic<std::uint64_t>& received)
      : rng_(seed), rounds_(rounds), fanout_(fanout), sent_(sent),
        received_(received) {}

  void compute(SubgraphContext& ctx) override {
    received_.fetch_add(ctx.messages().size());
    for (const Message& msg : ctx.messages()) {
      // Every delivered message must be addressed to this subgraph.
      ASSERT_EQ(msg.dst, ctx.subgraphId());
    }
    if (ctx.superstep() < rounds_) {
      const auto num_subgraphs = ctx.partitionedGraph().numSubgraphs();
      for (int i = 0; i < fanout_; ++i) {
        const auto dst =
            static_cast<SubgraphId>(rng_.uniformBelow(num_subgraphs));
        ctx.sendToSubgraph(dst, {static_cast<std::uint8_t>(i)});
        sent_.fetch_add(1);
      }
    }
    ctx.voteToHalt();
  }

 private:
  Rng rng_;
  int rounds_;
  int fanout_;
  std::atomic<std::uint64_t>& sent_;
  std::atomic<std::uint64_t>& received_;
};

class StormSweep : public ::testing::TestWithParam<
                       std::tuple<std::string, std::uint32_t, int>> {};

TEST_P(StormSweep, EveryMessageSentIsDeliveredExactlyOnce) {
  const auto [family, k, seed] = GetParam();
  auto tmpl = family == "road" ? smallRoad(6, 6, seed) : smallSocial(80, seed);
  const auto pg = partitionGraph(tmpl, k, seed + 1);
  TimeSeriesCollection coll(tmpl, 0, 1);
  coll.appendInstance();
  coll.appendInstance();
  DirectInstanceProvider provider(pg, coll);

  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> next_seed{static_cast<std::uint64_t>(seed)};

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(pg, provider);
  const auto result = engine.run(
      [&](PartitionId) {
        return std::make_unique<StormProgram>(next_seed.fetch_add(101), 4, 7,
                                              sent, received);
      },
      config);

  EXPECT_EQ(sent.load(), received.load());
  EXPECT_EQ(result.stats.totalMessages(), sent.load());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StormSweep,
    ::testing::Combine(::testing::Values("road", "social"),
                       ::testing::Values(1u, 3u, 5u),
                       ::testing::Values(11, 29)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(EngineFuzz, InterTimestepMessagesConserved) {
  // Every subgraph forwards a random number of tokens to random subgraphs
  // in the next timestep; received totals must equal sent totals (the last
  // timestep's sends are intentionally dropped by the engine).
  auto tmpl = smallRoad(5, 5, 3);
  const auto pg = partitionGraph(tmpl, 3);
  TimeSeriesCollection coll(tmpl, 0, 1);
  for (int t = 0; t < 6; ++t) {
    coll.appendInstance();
  }
  DirectInstanceProvider provider(pg, coll);

  std::mutex mutex;
  std::map<Timestep, std::uint64_t> sent_at;
  std::map<Timestep, std::uint64_t> received_at;

  class ForwardProgram final : public TiBspProgram {
   public:
    ForwardProgram(std::uint64_t seed, std::mutex& mutex,
                   std::map<Timestep, std::uint64_t>& sent,
                   std::map<Timestep, std::uint64_t>& received)
        : rng_(seed), mutex_(mutex), sent_(sent), received_(received) {}

    void compute(SubgraphContext& ctx) override {
      if (ctx.superstep() == 0 && !ctx.messages().empty()) {
        std::lock_guard lock(mutex_);
        received_[ctx.timestep()] += ctx.messages().size();
      }
      ctx.voteToHalt();
    }
    void endOfTimestep(SubgraphContext& ctx) override {
      const auto n = rng_.uniformBelow(4);
      const auto num_subgraphs = ctx.partitionedGraph().numSubgraphs();
      for (std::uint64_t i = 0; i < n; ++i) {
        ctx.sendToSubgraphInNextTimestep(
            static_cast<SubgraphId>(rng_.uniformBelow(num_subgraphs)), {1});
      }
      std::lock_guard lock(mutex_);
      sent_[ctx.timestep()] += n;
    }

   private:
    Rng rng_;
    std::mutex& mutex_;
    std::map<Timestep, std::uint64_t>& sent_;
    std::map<Timestep, std::uint64_t>& received_;
  };

  std::atomic<std::uint64_t> next_seed{55};
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(pg, provider);
  engine.run(
      [&](PartitionId) {
        return std::make_unique<ForwardProgram>(next_seed.fetch_add(17),
                                                mutex, sent_at, received_at);
      },
      config);

  for (Timestep t = 0; t < 5; ++t) {  // last timestep's sends are dropped
    EXPECT_EQ(received_at[t + 1], sent_at[t]) << "t=" << t;
  }
}

TEST(EngineFuzz, RunIsDeterministicForFixedSeeds) {
  auto tmpl = smallSocial(60, 2);
  const auto pg = partitionGraph(tmpl, 3);
  TimeSeriesCollection coll(tmpl, 0, 1);
  coll.appendInstance();
  DirectInstanceProvider provider(pg, coll);

  auto runOnce = [&] {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> next_seed{7};
    TiBspConfig config;
    config.pattern = Pattern::kSequentiallyDependent;
    TiBspEngine engine(pg, provider);
    const auto result = engine.run(
        [&](PartitionId) {
          return std::make_unique<StormProgram>(next_seed.fetch_add(13), 3, 5,
                                                sent, received);
        },
        config);
    return std::pair(sent.load(), result.stats.totalSupersteps());
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
}  // namespace tsg
