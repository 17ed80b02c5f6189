#include "vertexcentric/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "algorithms/reference.h"
#include "algorithms/tdsp_vertex.h"
#include "gofs/instance_provider.h"
#include "test_util.h"
#include "vertexcentric/programs.h"
#include "vertexcentric/ti_engine.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::roadCollection;
using testing::smallRoad;
using testing::smallSocial;
using vertexcentric::BfsVertexProgram;
using vertexcentric::SsspVertexProgram;
using vertexcentric::TemporalVcConfig;
using vertexcentric::TemporalVertexContext;
using vertexcentric::TemporalVertexEngine;
using vertexcentric::TemporalVertexProgram;
using vertexcentric::VcConfig;
using vertexcentric::VertexCentricEngine;

TEST(VertexCentric, UnweightedSsspMatchesBfsReference) {
  auto tmpl = smallRoad(8, 8);
  const auto pg = partitionGraph(tmpl, 3);
  VertexCentricEngine engine(pg);
  SsspVertexProgram program(0);
  const auto result =
      engine.run(program, {}, [](VertexIndex) { return vertexcentric::kInf; });

  const auto expected = reference::bfsLevels(*tmpl, 0);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (expected[v] < 0) {
      EXPECT_TRUE(std::isinf(result.values[v]));
    } else {
      EXPECT_DOUBLE_EQ(result.values[v], expected[v]) << v;
    }
  }
}

TEST(VertexCentric, WeightedSsspMatchesDijkstra) {
  auto tmpl = smallSocial(120);
  const auto pg = partitionGraph(tmpl, 2);
  std::vector<double> weights(tmpl->numEdges());
  Rng rng(5);
  for (auto& w : weights) {
    w = rng.uniformDouble(0.5, 3.0);
  }
  VcConfig config;
  config.edge_weights = weights;
  VertexCentricEngine engine(pg);
  SsspVertexProgram program(7);
  const auto result =
      engine.run(program, config, [](VertexIndex) { return 0.0; });

  const auto expected = reference::dijkstra(*tmpl, weights, 7);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(result.values[v]));
    } else {
      EXPECT_NEAR(result.values[v], expected[v], 1e-9) << v;
    }
  }
}

TEST(VertexCentric, SuperstepCountTracksDiameterNotPartitions) {
  // The core Fig. 5b argument: vertex-centric BFS needs ~eccentricity
  // supersteps. On a lattice that is large; the subgraph-centric SSSP (see
  // test_sssp) needs only a handful.
  auto tmpl = smallRoad(12, 12);
  const auto pg = partitionGraph(tmpl, 3);
  VertexCentricEngine engine(pg);
  BfsVertexProgram program(0);
  const auto result =
      engine.run(program, {}, [](VertexIndex) { return vertexcentric::kInf; });
  const auto levels = reference::bfsLevels(*tmpl, 0);
  const auto ecc = *std::max_element(levels.begin(), levels.end());
  EXPECT_GE(result.supersteps, ecc);
}

TEST(VertexCentric, BfsLevelsMatchReference) {
  auto tmpl = smallSocial(150);
  const auto pg = partitionGraph(tmpl, 2);
  VertexCentricEngine engine(pg);
  BfsVertexProgram program(3);
  const auto result =
      engine.run(program, {}, [](VertexIndex) { return vertexcentric::kInf; });
  const auto expected = reference::bfsLevels(*tmpl, 3);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (expected[v] < 0) {
      EXPECT_TRUE(std::isinf(result.values[v]));
    } else {
      EXPECT_DOUBLE_EQ(result.values[v], expected[v]);
    }
  }
}

TEST(VertexCentric, StatsRecordTraffic) {
  // Exact Fig. 5b character: superstep counts and delivered traffic are
  // pinned so any change to the superstep loop or the exchange shows here.
  {
    auto tmpl = smallRoad(6, 6);
    const auto pg = partitionGraph(tmpl, 2);
    VertexCentricEngine engine(pg);
    SsspVertexProgram program(0);
    const auto result = engine.run(
        program, {}, [](VertexIndex) { return vertexcentric::kInf; });
    EXPECT_EQ(result.supersteps, 11);
    EXPECT_EQ(result.stats.totalSupersteps(), 11u);
    EXPECT_EQ(result.stats.totalMessages(), 120u);
    EXPECT_EQ(result.stats.totalBytes(), 1920u);
    EXPECT_GT(result.stats.wallClockNs(), 0);
  }
  {
    auto tmpl = smallSocial(150);
    const auto pg = partitionGraph(tmpl, 2);
    VertexCentricEngine engine(pg);
    BfsVertexProgram program(3);
    const auto result = engine.run(
        program, {}, [](VertexIndex) { return vertexcentric::kInf; });
    EXPECT_EQ(result.supersteps, 7);
    EXPECT_EQ(result.stats.totalSupersteps(), 7u);
    EXPECT_EQ(result.stats.totalMessages(), 594u);
    EXPECT_EQ(result.stats.totalBytes(), 9504u);
  }
}

// Keeps `awake` unhalted for the first `n` supersteps of every timestep
// without sending, and records which vertices computed in which superstep.
// Each vertex is written only by its owning partition's worker.
class StayAwakeProgram final : public TemporalVertexProgram {
 public:
  StayAwakeProgram(std::size_t num_vertices, std::set<VertexIndex> awake,
                   std::int32_t n)
      : awake_(std::move(awake)), n_(n), computed_(num_vertices) {}

  void compute(TemporalVertexContext& ctx) override {
    computed_[ctx.vertex()].emplace_back(ctx.timestep(), ctx.superstep());
    if (awake_.count(ctx.vertex()) == 0 || ctx.superstep() >= n_) {
      ctx.voteToHalt();
    }
  }

  // Vertices that computed at (t, s), ascending.
  [[nodiscard]] std::set<VertexIndex> computedAt(Timestep t,
                                                 std::int32_t s) const {
    std::set<VertexIndex> out;
    for (VertexIndex v = 0; v < computed_.size(); ++v) {
      for (const auto& [ct, cs] : computed_[v]) {
        if (ct == t && cs == s) {
          out.insert(v);
        }
      }
    }
    return out;
  }

 private:
  std::set<VertexIndex> awake_;
  std::int32_t n_;
  std::vector<std::vector<std::pair<Timestep, std::int32_t>>> computed_;
};

class VertexCentricSchedule : public ::testing::TestWithParam<Schedule> {};

TEST_P(VertexCentricSchedule, UnhaltedVerticesAloneKeepTheTimestepRunning) {
  // The halting test reads each worker's count of vertices it left
  // unhalted. Awake vertices sit in two of three partitions, so under the
  // wave schedule the third is skipped once it quiesces.
  auto tmpl = smallRoad(8, 8);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = roadCollection(tmpl, 2);
  DirectInstanceProvider provider(pg, coll);
  const std::set<VertexIndex> awake = {
      pg.partition(0).vertices.front(), pg.partition(0).vertices.back(),
      pg.partition(2).vertices[pg.partition(2).vertices.size() / 2]};
  constexpr std::int32_t kAwakeSupersteps = 4;
  StayAwakeProgram program(tmpl->numVertices(), awake, kAwakeSupersteps);
  TemporalVcConfig config;
  config.schedule = GetParam();
  TemporalVertexEngine engine(pg, provider);
  const auto result = engine.run(program, config);

  ASSERT_EQ(result.timesteps_executed, 2);
  const auto& records = result.stats.supersteps();
  ASSERT_EQ(records.size(), 2u * (kAwakeSupersteps + 1));
  std::set<VertexIndex> all;
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    all.insert(v);
  }
  for (Timestep t = 0; t < 2; ++t) {
    EXPECT_EQ(program.computedAt(t, 0), all) << "t=" << t;
    for (std::int32_t s = 1; s <= kAwakeSupersteps; ++s) {
      EXPECT_EQ(program.computedAt(t, s), awake) << "t=" << t << " s=" << s;
      const auto& rec = records[static_cast<std::size_t>(
          t * (kAwakeSupersteps + 1) + s)];
      ASSERT_EQ(rec.timestep, t);
      ASSERT_EQ(rec.superstep, s);
      EXPECT_EQ(rec.parts[0].subgraphs_computed, 2u);
      EXPECT_EQ(rec.parts[1].subgraphs_computed, 0u);
      EXPECT_EQ(rec.parts[2].subgraphs_computed, 1u);
    }
    EXPECT_TRUE(program.computedAt(t, kAwakeSupersteps + 1).empty());
  }
  EXPECT_EQ(result.stats.totalMessages(), 0u);
}

TEST_P(VertexCentricSchedule, SendIsMeteredAtTheFlush) {
  // A send is an append charged to compute; send_ns is the flush of the
  // partition's outboxes, so it is positive wherever the partition sent.
  auto tmpl = smallRoad(8, 8);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = roadCollection(tmpl, 4);
  DirectInstanceProvider provider(pg, coll);
  VertexTdspOptions options;
  options.source = 0;
  options.latency_attr = tmpl->edgeSchema().requireIndex("latency");
  options.schedule = GetParam();
  const auto run = runVertexTdsp(pg, provider, options);

  std::size_t sending_rows = 0;
  for (const auto& rec : run.exec.stats.supersteps()) {
    for (std::size_t p = 0; p < rec.parts.size(); ++p) {
      const auto& ps = rec.parts[p];
      EXPECT_GE(ps.compute_ns, 0);
      EXPECT_GE(ps.send_ns, 0);
      if (ps.messages_sent > 0) {
        ++sending_rows;
        EXPECT_GT(ps.send_ns, 0) << "t=" << rec.timestep
                                 << " s=" << rec.superstep << " p=" << p;
      } else {
        EXPECT_EQ(ps.send_ns, 0) << "t=" << rec.timestep
                                 << " s=" << rec.superstep << " p=" << p;
      }
    }
  }
  EXPECT_GT(sending_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothSchedules, VertexCentricSchedule,
                         ::testing::Values(Schedule::kBsp, Schedule::kAsync),
                         [](const auto& param_info) {
                           return param_info.param == Schedule::kBsp
                                      ? std::string("Bsp")
                                      : std::string("Async");
                         });

}  // namespace
}  // namespace tsg
