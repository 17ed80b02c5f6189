#include "vertexcentric/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/reference.h"
#include "test_util.h"
#include "vertexcentric/programs.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::smallRoad;
using testing::smallSocial;
using vertexcentric::BfsVertexProgram;
using vertexcentric::SsspVertexProgram;
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

}  // namespace
}  // namespace tsg
