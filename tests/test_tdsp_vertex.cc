// Vertex-centric TI-BSP TDSP (the "Giraph port" of §IV-C) must produce
// results identical to the subgraph-centric version and the sequential
// reference — while paying the superstep/message costs the paper predicts.
#include "algorithms/tdsp_vertex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "algorithms/reference.h"
#include "algorithms/tdsp.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::roadCollection;
using testing::smallRoad;

class VertexTdspProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t, int>> {};

TEST_P(VertexTdspProperty, MatchesReference) {
  const auto [size, k, seed] = GetParam();
  auto tmpl = smallRoad(size, size, seed);
  const auto pg = partitionGraph(tmpl, k, seed + 1);
  const auto coll = roadCollection(tmpl, 10, seed + 2);
  DirectInstanceProvider provider(pg, coll);

  const std::size_t latency = tmpl->edgeSchema().requireIndex("latency");
  const VertexIndex source =
      static_cast<VertexIndex>((seed * 13) % tmpl->numVertices());

  VertexTdspOptions options;
  options.source = source;
  options.latency_attr = latency;
  const auto run = runVertexTdsp(pg, provider, options);
  const auto expected =
      reference::timeDependentShortestPath(*tmpl, coll, latency, source);

  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    ASSERT_EQ(run.finalized_at[v], expected.finalized_at[v])
        << "vertex " << v << " size=" << size << " k=" << k;
    if (expected.finalized_at[v] >= 0) {
      ASSERT_NEAR(run.tdsp[v], expected.tdsp[v], 1e-9) << v;
    } else {
      ASSERT_TRUE(std::isinf(run.tdsp[v])) << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VertexTdspProperty,
    ::testing::Combine(::testing::Values(5, 8), ::testing::Values(1u, 3u),
                       ::testing::Values(4, 19)),
    [](const auto& param_info) {
      return "g" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(VertexTdsp, AgreesWithSubgraphCentricAndCostsMoreSupersteps) {
  auto tmpl = smallRoad(10, 10, 6);
  const auto pg = partitionGraph(tmpl, 3);
  // Fast latencies so the frontier crosses many hops per timestep — the
  // regime where the engines' superstep counts diverge most.
  RoadInstanceOptions rio;
  rio.num_timesteps = 8;
  rio.min_latency = 0.2;
  rio.max_latency = 1.5;
  rio.seed = 7;
  const auto coll = testing::unwrap(makeRoadInstances(tmpl, rio));
  DirectInstanceProvider provider(pg, coll);
  const std::size_t latency = tmpl->edgeSchema().requireIndex("latency");

  VertexTdspOptions voptions;
  voptions.source = 0;
  voptions.latency_attr = latency;
  const auto vertex_run = runVertexTdsp(pg, provider, voptions);

  TdspOptions soptions;
  soptions.source = 0;
  soptions.latency_attr = latency;
  soptions.while_mode = false;
  const auto subgraph_run = runTdsp(pg, provider, soptions);

  EXPECT_EQ(vertex_run.finalized_at, subgraph_run.finalized_at);
  EXPECT_EQ(vertex_run.tdsp, subgraph_run.tdsp);
  // The §IV-C cost prediction: per-vertex-hop propagation needs more
  // supersteps than whole-subgraph Dijkstra sweeps.
  EXPECT_GT(vertex_run.exec.stats.totalSupersteps(),
            subgraph_run.exec.stats.totalSupersteps());
}

TEST(VertexTdsp, SubRangeOfInstances) {
  auto tmpl = smallRoad(6, 6, 3);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 10, 5);
  DirectInstanceProvider provider(pg, coll);
  VertexTdspOptions options;
  options.source = 0;
  options.latency_attr = 0;
  options.first_timestep = 0;
  options.num_timesteps = 3;
  const auto run = runVertexTdsp(pg, provider, options);
  EXPECT_EQ(run.exec.timesteps_executed, 3);
  for (const auto t : run.finalized_at) {
    EXPECT_LT(t, 3);
  }
}

}  // namespace
}  // namespace tsg
