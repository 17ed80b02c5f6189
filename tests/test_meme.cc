#include "algorithms/meme.h"

#include <gtest/gtest.h>

#include <tuple>

#include "algorithms/reference.h"
#include "generators/topology.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::share;
using testing::smallSocial;
using testing::tweetCollection;
using testing::unwrap;

// Hand-built scenario mirroring the paper's Fig. 4: meme starts at A,
// spreads A→D, then A→E and D→B, then B|D→C across four instances.
class FigureFour : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphTemplateBuilder builder(/*directed=*/false);
    builder.vertexSchema().add("tweets", AttrType::kStringList);
    for (VertexId id = 0; id < 5; ++id) {  // A,B,C,D,E = 0..4
      builder.addVertex(id);
    }
    builder.addUndirectedEdge(0, kA, kD);
    builder.addUndirectedEdge(1, kA, kE);
    builder.addUndirectedEdge(2, kD, kB);
    builder.addUndirectedEdge(3, kB, kC);
    builder.addUndirectedEdge(4, kD, kC);
    tmpl_ = share(unwrap(builder.build()));

    collection_ = TimeSeriesCollection(tmpl_, 0, 5);
    addInstance({kA});              // g0: A tweets the meme
    addInstance({kA, kD});          // g1: spreads to D
    addInstance({kD, kE, kB});      // g2: E and B join
    addInstance({kB, kC});          // g3: C reached
  }

  void addInstance(const std::vector<VertexIndex>& carriers) {
    auto& inst = collection_.appendInstance();
    auto& tweets = inst.vertexCol(0).asStringList();
    for (const auto v : carriers) {
      tweets[v].push_back("#meme");
    }
  }

  static constexpr VertexIndex kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;
  GraphTemplatePtr tmpl_;
  TimeSeriesCollection collection_;
};

TEST_F(FigureFour, SpreadMatchesThePaperTimeline) {
  for (const std::uint32_t k : {1u, 2u, 3u}) {
    const auto pg = partitionGraph(tmpl_, k);
    DirectInstanceProvider provider(pg, collection_);
    MemeOptions options;
    options.meme = "#meme";
    options.tweets_attr = 0;
    const auto run = runMemeTracking(pg, provider, options);
    EXPECT_EQ(run.colored_at[kA], 0) << "k=" << k;
    EXPECT_EQ(run.colored_at[kD], 1) << "k=" << k;
    EXPECT_EQ(run.colored_at[kE], 2) << "k=" << k;
    EXPECT_EQ(run.colored_at[kB], 2) << "k=" << k;
    EXPECT_EQ(run.colored_at[kC], 3) << "k=" << k;
  }
}

TEST_F(FigureFour, VerticesNeverCarryingMemeStayUncolored) {
  // E stops tweeting after g2; it stays colored (colored sets only grow),
  // but a vertex that never tweets is never colored. Add such a vertex by
  // restricting the meme to a different tag.
  const auto pg = partitionGraph(tmpl_, 2);
  DirectInstanceProvider provider(pg, collection_);
  MemeOptions options;
  options.meme = "#different";
  options.tweets_attr = 0;
  const auto run = runMemeTracking(pg, provider, options);
  for (VertexIndex v = 0; v < tmpl_->numVertices(); ++v) {
    EXPECT_EQ(run.colored_at[v], -1);
  }
}

// Property sweep: distributed meme tracking == sequential temporal BFS on
// SIR-generated tweet streams.
class MemeProperty
    : public ::testing::TestWithParam<
          std::tuple<int, std::uint32_t, int, double>> {};

TEST_P(MemeProperty, MatchesReference) {
  const auto [n, k, seed, hit] = GetParam();
  auto tmpl = smallSocial(n, seed);
  const auto pg = partitionGraph(tmpl, k, seed + 1);
  const auto coll = tweetCollection(tmpl, 15, hit, seed + 2);
  DirectInstanceProvider provider(pg, coll);

  SirTweetOptions gen_defaults;  // meme tag defaults align
  MemeOptions options;
  options.meme = gen_defaults.meme;
  options.tweets_attr = tmpl->vertexSchema().requireIndex("tweets");
  const auto run = runMemeTracking(pg, provider, options);
  const auto expected =
      reference::memeSpread(*tmpl, coll, options.tweets_attr, options.meme);

  ASSERT_EQ(run.colored_at.size(), expected.size());
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    ASSERT_EQ(run.colored_at[v], expected[v])
        << "vertex " << v << " n=" << n << " k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MemeProperty,
    ::testing::Combine(::testing::Values(40, 120), ::testing::Values(1u, 3u),
                       ::testing::Values(3, 17), ::testing::Values(0.1, 0.5)),
    [](const auto& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param)) + "_h" +
             std::to_string(static_cast<int>(std::get<3>(param_info.param) * 10));
    });

TEST(Meme, ColoredCounterMatchesTotalColored) {
  auto tmpl = smallSocial(100);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = tweetCollection(tmpl, 12, 0.4);
  DirectInstanceProvider provider(pg, coll);
  MemeOptions options;
  options.tweets_attr = 0;
  const auto run = runMemeTracking(pg, provider, options);

  std::uint64_t colored = 0;
  for (const auto t : run.colored_at) {
    colored += t >= 0 ? 1 : 0;
  }
  EXPECT_EQ(run.exec.stats.counterTotal(kMemeColoredCounter), colored);
  EXPECT_GT(colored, 0u);
}

TEST(Meme, OutputsListNewlyColoredPerTimestep) {
  auto tmpl = smallSocial(60);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 8, 0.5);
  DirectInstanceProvider provider(pg, coll);
  MemeOptions options;
  options.tweets_attr = 0;
  options.emit_outputs = true;
  const auto run = runMemeTracking(pg, provider, options);
  std::uint64_t colored = 0;
  for (const auto t : run.colored_at) {
    colored += t >= 0 ? 1 : 0;
  }
  EXPECT_EQ(run.exec.outputs.size(), colored);
}

}  // namespace
}  // namespace tsg
