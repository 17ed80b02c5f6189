// Incremental TI-BSP over the streaming front door: for every shipped
// algorithm and both superstep schedules, running against sealed timesteps
// as they stream in must produce byte-identical semantic outputs to the
// cold batch run. Also covers the incremental-skip accounting on a sparse
// stream and worker-kill recovery while the stream is live.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/hashtag.h"
#include "algorithms/meme.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/tdsp.h"
#include "algorithms/tdsp_vertex.h"
#include "algorithms/topn.h"
#include "algorithms/wcc.h"
#include "check/digest.h"
#include "common/metrics.h"
#include "gofs/checkpoint.h"
#include "gofs/instance_provider.h"
#include "runtime/fault_injector.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "stream/source.h"
#include "vertexcentric/engine.h"
#include "vertexcentric/programs.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::roadCollection;
using testing::smallRoad;
using testing::smallSocial;
using testing::tweetCollection;

constexpr std::uint32_t kPartitions = 3;
constexpr std::uint32_t kTimesteps = 5;

struct RoadEnv {
  GraphTemplatePtr tmpl = smallRoad(8, 8);
  PartitionedGraph pg = partitionGraph(tmpl, kPartitions);
  TimeSeriesCollection coll = roadCollection(tmpl, kTimesteps);
  std::size_t latency_attr = tmpl->edgeSchema().requireIndex("latency");
};

struct SocialEnv {
  GraphTemplatePtr tmpl = smallSocial(64);
  PartitionedGraph pg = partitionGraph(tmpl, kPartitions);
  TimeSeriesCollection coll = tweetCollection(tmpl, kTimesteps);
  std::size_t tweets_attr = tmpl->vertexSchema().requireIndex("tweets");
};

// Canonical semantic digest of one run over an arbitrary provider — the
// same values tsgcli's check harness hashes, never timings or metrics.
std::string algoDigest(const std::string& algo, const PartitionedGraph& pg,
                       InstanceProvider& provider, Schedule schedule,
                       TimestepStream* stream, CheckpointStore* store,
                       std::size_t attr) {
  check::Digest d;
  if (algo == "tdsp") {
    TdspOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.checkpoint_store = store;
    options.latency_attr = attr;
    const auto run = runTdsp(pg, provider, options);
    d.addDoubles(run.tdsp);
    d.addVector(run.finalized_at,
                [](check::Digest& dd, Timestep t) { dd.addI64(t); });
    d.addI64(run.exec.timesteps_executed);
  } else if (algo == "meme") {
    MemeOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.checkpoint_store = store;
    options.tweets_attr = attr;
    const auto run = runMemeTracking(pg, provider, options);
    d.addVector(run.colored_at,
                [](check::Digest& dd, Timestep t) { dd.addI64(t); });
  } else if (algo == "hashtag") {
    HashtagOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.checkpoint_store = store;
    options.tweets_attr = attr;
    const auto run = runHashtagAggregation(pg, provider, options);
    d.addU64s(run.counts);
    d.addI64s(run.rate_of_change);
  } else if (algo == "pagerank") {
    PageRankOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.checkpoint_store = store;
    const auto run = runSubgraphPageRank(pg, provider, options);
    d.addDoubles(run.ranks);
  } else if (algo == "sssp") {
    SsspOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.checkpoint_store = store;
    options.latency_attr = attr;
    const auto run = runSubgraphSssp(pg, provider, options);
    d.addDoubles(run.distances);
  } else if (algo == "wcc") {
    WccOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.checkpoint_store = store;
    const auto run = runSubgraphWcc(pg, provider, options);
    d.addVector(run.component,
                [](check::Digest& dd, VertexIndex v) { dd.addU64(v); });
    d.addU64(run.num_components);
  } else if (algo == "topn") {
    TopNOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.checkpoint_store = store;
    if (stream != nullptr) {
      options.temporal_mode = TemporalMode::kSerial;
    }
    options.tweets_attr = attr;
    const auto run = runTopActiveVertices(pg, provider, options);
    d.addU64(run.top.size());
    for (const auto& per_t : run.top) {
      d.addVector(per_t,
                  [](check::Digest& dd, VertexIndex v) { dd.addU64(v); });
    }
  } else if (algo == "tdsp-vertex") {
    VertexTdspOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.checkpoint_store = store;
    options.latency_attr = attr;
    const auto run = runVertexTdsp(pg, provider, options);
    d.addDoubles(run.tdsp);
    d.addVector(run.finalized_at,
                [](check::Digest& dd, Timestep t) { dd.addI64(t); });
  } else if (algo == "sssp-vertex") {
    // Reads no instances, so there is nothing to stream: the streamed
    // path's contract is simply "identical to itself" — documented by the
    // CLI falling back to the batch run.
    vertexcentric::SsspVertexProgram program(0);
    vertexcentric::VertexCentricEngine engine(pg);
    const auto run =
        engine.run(program, vertexcentric::VcConfig{},
                   [](VertexIndex) { return vertexcentric::kInf; });
    d.addDoubles(run.values);
    d.addI64(run.supersteps);
  } else {
    ADD_FAILURE() << "unknown algo " << algo;
  }
  return d.hex();
}

std::string batchDigest(const std::string& algo, const PartitionedGraph& pg,
                        const TimeSeriesCollection& coll, Schedule schedule,
                        std::size_t attr) {
  DirectInstanceProvider provider(pg, coll);
  return algoDigest(algo, pg, provider, schedule, /*stream=*/nullptr,
                    /*store=*/nullptr, attr);
}

// Runs the algorithm against a live ingest thread: events replayed through
// a bounded seal queue, engine awaiting each timestep as it seals.
std::string streamedDigest(const std::string& algo,
                           const PartitionedGraph& pg,
                           const TimeSeriesCollection& coll,
                           Schedule schedule, std::size_t attr,
                           CheckpointStore* store = nullptr) {
  stream::SealQueue queue(3);
  stream::IngestorOptions options;
  options.planned_timesteps =
      static_cast<std::int32_t>(coll.numInstances());
  stream::StreamIngestor ingestor(pg.templatePtr(), pg, coll.t0(),
                                  coll.delta(), queue, options);
  stream::StreamingInstanceProvider provider(pg, pg.templatePtr(),
                                             coll.numInstances(), coll.t0(),
                                             coll.delta(), queue);
  stream::MemoryEventSource source;
  source.push(stream::eventsFromCollection(coll));
  source.close();

  stream::IngestThread thread(ingestor, source);
  const std::string digest =
      algoDigest(algo, pg, provider, schedule, &provider, store, attr);
  // Drain seals the run never consumed (while-mode early exit, engines
  // that ignore the provider) so the ingest thread's push unblocks.
  stream::SealedTimestep leftover;
  while (queue.pop(leftover)) {
  }
  EXPECT_TRUE(thread.join().isOk());
  return digest;
}

TEST(IncrementalDigestMatrix, StreamedMatchesBatchForEveryAlgorithm) {
  RoadEnv road;
  SocialEnv social;
  struct Cell {
    const char* algo;
    bool social;
  };
  const Cell cells[] = {
      {"tdsp", false},    {"sssp", false},   {"tdsp-vertex", false},
      {"sssp-vertex", false}, {"pagerank", false}, {"wcc", false},
      {"meme", true},     {"hashtag", true}, {"topn", true},
  };
  for (const Cell& cell : cells) {
    const auto& pg = cell.social ? social.pg : road.pg;
    const auto& coll = cell.social ? social.coll : road.coll;
    const std::size_t attr =
        cell.social ? social.tweets_attr : road.latency_attr;
    const std::string reference =
        batchDigest(cell.algo, pg, coll, Schedule::kBsp, attr);
    ASSERT_FALSE(reference.empty());
    for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
      SCOPED_TRACE(std::string(cell.algo) + " " +
                   (schedule == Schedule::kBsp ? "bsp" : "async"));
      EXPECT_EQ(streamedDigest(cell.algo, pg, coll, schedule, attr),
                reference);
    }
  }
}

TEST(IncrementalSkip, SparseMemeStreamSkipsCleanSubgraphsBothSchedules) {
  // hit probability 0: the meme never spreads past the seeds, so after the
  // first timestep most subgraphs receive no messages and stay clean —
  // exactly the subgraphs the incremental skip must elide.
  auto tmpl = smallSocial(64);
  const auto pg = partitionGraph(tmpl, kPartitions);
  const auto coll = tweetCollection(tmpl, 6, /*hit_probability=*/0.0);
  const std::size_t tweets_attr =
      tmpl->vertexSchema().requireIndex("tweets");

  const std::string reference =
      batchDigest("meme", pg, coll, Schedule::kBsp, tweets_attr);
  auto& skipped =
      MetricsRegistry::global().counter("engine.subgraphs_skipped_incremental");
  for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
    SCOPED_TRACE(schedule == Schedule::kBsp ? "bsp" : "async");
    const std::uint64_t before = skipped.value();
    EXPECT_EQ(streamedDigest("meme", pg, coll, schedule, tweets_attr),
              reference);
    EXPECT_GT(skipped.value(), before);
  }
}

TEST(IncrementalSkip, BatchRunsNeverSkip) {
  // Without a stream attached there is no dirty oracle, so the batch path
  // must not touch the skip counter even for a skippable program.
  SocialEnv env;
  auto& skipped =
      MetricsRegistry::global().counter("engine.subgraphs_skipped_incremental");
  const std::uint64_t before = skipped.value();
  batchDigest("meme", env.pg, env.coll, Schedule::kBsp, env.tweets_attr);
  EXPECT_EQ(skipped.value(), before);
}

TEST(IncrementalFaultRecovery, KillAtComputeMidStreamRecoversAndMatches) {
  // A worker dies at the compute site while later timesteps are still
  // streaming in. The rollback replays from the checkpoint; the provider
  // retains sealed timesteps, so the replayed awaits are re-entrant and
  // the digest stays byte-identical to the fault-free batch run.
  RoadEnv road;
  SocialEnv social;
  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const std::string tdsp_baseline =
      batchDigest("tdsp", road.pg, road.coll, Schedule::kBsp,
                  road.latency_attr);
  const std::string meme_baseline =
      batchDigest("meme", social.pg, social.coll, Schedule::kBsp,
                  social.tweets_attr);

  for (const PartitionId victim : {PartitionId{0}, PartitionId{2}}) {
    SCOPED_TRACE("victim partition " + std::to_string(victim));
    fault::FaultSpec spec;
    spec.site = fault::Site::kCompute;
    spec.action = fault::Action::kKill;
    spec.partition = victim;
    spec.timestep = 2;

    {
      MemoryCheckpointStore store;
      injector.arm({spec}, 7);
      const std::string digest =
          streamedDigest("tdsp", road.pg, road.coll, Schedule::kBsp,
                         road.latency_attr, &store);
      injector.disarm();
      EXPECT_EQ(digest, tdsp_baseline);
    }
    {
      // The skippable program recovers too: skipped subgraphs voted halt
      // before the kill, and the replay re-derives the same skips.
      MemoryCheckpointStore store;
      injector.arm({spec}, 7);
      const std::string digest =
          streamedDigest("meme", social.pg, social.coll, Schedule::kBsp,
                         social.tweets_attr, &store);
      injector.disarm();
      EXPECT_EQ(digest, meme_baseline);
    }
  }
}

}  // namespace
}  // namespace tsg
