// tsg_ledger — the end-to-end performance ledger of tsgraph.
//
//   tsg_ledger --workload=tdsp-road|vsssp-road|stream-meme --seed=N
//              --seconds=S --trace=0|1 [--work-dir=DIR] [--spans-out=FILE]
//
// One process runs one workload: it generates the inputs from the seed,
// sets up the GoFS dataset several times (setup_s is the median), computes
// a reference digest with a cold batch BSP run, discards one warm-up job
// and then runs jobs in a closed loop for S seconds. Every job's output
// digest is checked against the reference. The last stdout line is one
// JSON object: correct / attempted / failed and the metrics — the
// end-to-end set when --trace=0, the per-layer set when --trace=1. A
// human summary with sample counts goes to stderr.
//
// Every layer is timed from outside, around calls into public tsgraph
// functions and through forwarding wrappers (probes.h); nothing in the
// library is instrumented for this.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include "algorithms/meme.h"
#include "algorithms/tdsp.h"
#include "check/bsp_checker.h"
#include "check/digest.h"
#include "common/prof_hooks.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/trace.h"
#include "generators/instances.h"
#include "generators/topology.h"
#include "gofs/dataset.h"
#include "paced_source.h"
#include "partition/partitioner.h"
#include "probes.h"
#include "profile/profiler.h"
#include "runtime/fault_injector.h"
#include "spans.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "vertexcentric/programs.h"

namespace ledger {
namespace {

namespace fs = std::filesystem;
using tsg::Result;
using tsg::Status;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string spans_out;
};

// ---------------------------------------------------------------------------
// Sample statistics.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// A percentile is reported only when at least 10 samples lie beyond it.
bool percentileSupported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

// fsync()s every file and directory under `dir`, and `dir` itself.
Status fsyncTree(const std::string& dir) {
  std::vector<fs::path> paths{dir};
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    paths.push_back(it->path());
  }
  if (ec) {
    return Status::ioError("cannot list " + dir + ": " + ec.message());
  }
  for (const fs::path& path : paths) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::ioError("cannot open " + path.string());
    }
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    if (!synced) {
      return Status::ioError("fsync failed: " + path.string());
    }
  }
  return Status::ok();
}

double sec(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// stream-meme releases one timestep of events per period, on a 1 ms tick.
// Fed as fast as it can go, seed 1 takes ~34 ms per timestep, so 100 ms is
// about a third of that capacity (see NOTES.md); BENCHMARK.json states the
// period in the workload's why.
constexpr std::int64_t kPaceTickNs = 1'000'000;
constexpr std::int64_t kStreamPeriodMs = 100;

// ---------------------------------------------------------------------------
// What one set-up repetition and one job report.

struct SetupRep {
  std::int64_t write_ns = 0;  // pack write through fsync
  std::int64_t open_ns = 0;
  std::int64_t encode_ns = 0;  // stream-meme: event log diff + encode
  std::int64_t decode_ns = 0;  // traced runs: GraphTemplate::deserialize
  std::int64_t build_ns = 0;   // traced runs: PartitionedGraph::build
  [[nodiscard]] std::int64_t setupNs() const {
    return write_ns + open_ns + encode_ns;
  }
};

struct JobRecord {
  bool ok = false;
  bool traced = false;
  std::int64_t wall_ns = 0;
  double peak_rss_mb = 0;      // VmHWM over the job, reset at its start
  std::vector<double> lag_ms;  // one per finished timestep
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t xpart_messages = 0;
  std::int64_t sync_ns = 0;
  std::int64_t compute_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t queue_max_depth = 0;
  std::uint64_t skipped = 0;
  std::int64_t ingest_wait_ns = 0;  // ingest thread blocked on the pacer
  std::vector<double> wake_late_ms;  // how late each pacer wake-up was
};

void fillRunStats(const tsg::RunStats& stats, JobRecord& rec) {
  rec.supersteps = stats.totalSupersteps();
  rec.messages = stats.totalMessages();
  rec.bytes = stats.totalBytes();
  rec.xpart_messages = stats.totalCrossPartitionMessages();
  for (const auto& u : stats.partitionUtilization()) {
    rec.sync_ns += u.sync_ns;
    rec.compute_ns += u.compute_ns;
  }
  for (const auto& point : stats.metrics()) {
    if (point.name == "engine.subgraphs_skipped_incremental") {
      rec.skipped += static_cast<std::uint64_t>(point.value);
    }
  }
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the in-memory inputs from the seed (input fabrication; untimed).
  virtual Status generate(std::uint64_t seed) = 0;
  // One set-up into `dir`: GoFS pack write of the generated collection,
  // made durable with fsync, and GofsDataset::open.
  virtual Result<SetupRep> setupOnce(const std::string& dir,
                                     const SpanScope& scope) {
    return writeAndOpen(dir, scope);
  }
  // Frees the generated inputs once set-up is done.
  void dropGenerated() {
    pg_.reset();
    coll_.reset();
  }
  // Cold batch BSP run over the opened dataset: the reference digest.
  virtual Result<std::uint64_t> reference(std::uint64_t* supersteps) = 0;
  virtual JobRecord runJob(const SpanScope& scope) = 0;
  // Threads a job keeps busy (they must fit on the usable CPUs).
  [[nodiscard]] virtual int busyThreads() const = 0;

  // Times GraphTemplate::deserialize and PartitionedGraph::build on the
  // opened dataset's own bytes (traced runs only).
  Status timeDecodeAndBuild(const std::string& dir, const SpanScope& scope,
                            SetupRep& rep) {
    auto bytes = tsg::readFileBytes(dir + "/template.bin");
    if (!bytes.isOk()) {
      return bytes.status();
    }
    std::int64_t t0 = nowNs();
    {
      const ScopedSpan span(scope, "graph.template_decode");
      tsg::BinaryReader reader(bytes.value());
      auto tmpl = tsg::GraphTemplate::deserialize(reader);
      if (!tmpl.isOk()) {
        return tmpl.status();
      }
    }
    rep.decode_ns = nowNs() - t0;
    const auto& pg = ds_->partitionedGraph();
    t0 = nowNs();
    {
      const ScopedSpan span(scope, "partition.build");
      auto built = tsg::PartitionedGraph::build(
          pg.templatePtr(), pg.assignment(), pg.numPartitions());
      if (!built.isOk()) {
        return built.status();
      }
    }
    rep.build_ns = nowNs() - t0;
    return Status::ok();
  }

 protected:
  Result<SetupRep> writeAndOpen(const std::string& dir,
                                const SpanScope& scope) {
    SetupRep rep;
    std::error_code ec;
    fs::remove_all(dir, ec);
    // Every repetition starts with no dirty pages, so its write does not
    // wait on the previous one's write-back, and ends with its own packs on
    // disk: write-back is timed, not left to land in a later measurement.
    ::sync();
    std::int64_t t0 = nowNs();
    {
      const ScopedSpan span(scope, "gofs.write");
      const Status st =
          tsg::writeGofsDataset(dir, "ledger", *pg_, *coll_, {});
      if (!st.isOk()) {
        return st;
      }
      TSG_RETURN_IF_ERROR(fsyncTree(dir));
    }
    rep.write_ns = nowNs() - t0;
    ds_.reset();
    t0 = nowNs();
    {
      const ScopedSpan span(scope, "gofs.open");
      auto ds = tsg::GofsDataset::open(dir);
      if (!ds.isOk()) {
        return ds.status();
      }
      ds_.emplace(std::move(ds).value());
    }
    rep.open_ns = nowNs() - t0;
    return rep;
  }

  // Generated inputs (until dropGenerated), the opened dataset and the
  // reference digest every job must reproduce.
  std::unique_ptr<tsg::PartitionedGraph> pg_;
  std::unique_ptr<tsg::TimeSeriesCollection> coll_;
  std::optional<tsg::GofsDataset> ds_;
  std::uint64_t reference_ = 0;

  Status partitionInputs(tsg::GraphTemplatePtr tmpl,
                         tsg::TimeSeriesCollection coll, std::uint64_t seed,
                         std::uint32_t partitions) {
    const tsg::BfsPartitioner partitioner(seed + 2);
    auto pg = tsg::PartitionedGraph::build(
        tmpl, partitioner.assign(*tmpl, partitions), partitions);
    if (!pg.isOk()) {
      return pg.status();
    }
    pg_ = std::make_unique<tsg::PartitionedGraph>(std::move(pg).value());
    coll_ = std::make_unique<tsg::TimeSeriesCollection>(std::move(coll));
    return Status::ok();
  }

  // 447 x 447 perturbed lattice (199,809 vertices) with road latencies.
  Status generateRoad(std::uint64_t seed, std::uint32_t timesteps,
                      std::uint32_t partitions) {
    tsg::RoadNetworkOptions topo;
    topo.width = topo.height = 447;
    topo.seed = seed;
    auto tmpl = tsg::makeRoadNetwork(topo, {}, tsg::roadEdgeSchema());
    if (!tmpl.isOk()) {
      return tmpl.status();
    }
    auto tptr =
        std::make_shared<tsg::GraphTemplate>(std::move(tmpl).value());
    tsg::RoadInstanceOptions inst;
    inst.num_timesteps = timesteps;
    inst.seed = seed + 1;
    auto coll = tsg::makeRoadInstances(tptr, inst);
    if (!coll.isOk()) {
      return coll.status();
    }
    return partitionInputs(tptr, std::move(coll).value(), seed, partitions);
  }
};

std::uint64_t tdspDigest(const tsg::TdspRun& run) {
  tsg::check::Digest d;
  d.addDoubles(run.tdsp);
  d.addVector(run.finalized_at,
              [](tsg::check::Digest& dd, tsg::Timestep t) { dd.addI64(t); });
  d.addI64(run.exec.timesteps_executed);
  return d.value();
}

// tdsp-road: runTdsp, BSP + while-mode, 50 timesteps, 4 partitions. Reads
// GoFS packs hard (a new provider per job), barely uses the fabric.
class TdspRoad final : public Workload {
 public:
  Status generate(std::uint64_t seed) override {
    return generateRoad(seed, kTimesteps, kPartitions);
  }

  Result<std::uint64_t> reference(std::uint64_t* supersteps) override {
    auto provider = ds_->makeProvider();
    const auto run = tsg::runTdsp(ds_->partitionedGraph(), *provider,
                                  options());
    *supersteps = run.exec.stats.totalSupersteps();
    reference_ = tdspDigest(run);
    return reference_;
  }

  JobRecord runJob(const SpanScope& scope) override {
    JobRecord rec;
    const auto& pg = ds_->partitionedGraph();
    const std::int64_t start = nowNs();
    std::int64_t end = 0;
    std::optional<tsg::TdspRun> run;
    std::vector<std::int64_t> first_call_ns;
    {
      const ScopedSpan span(scope, "core.runTdsp");
      auto provider = ds_->makeProvider();
      TimedProvider timed(*provider, pg.numPartitions(), span.child());
      run.emplace(tsg::runTdsp(pg, timed, options()));
      end = nowNs();
      for (tsg::Timestep t = 0; t < run->exec.timesteps_executed; ++t) {
        first_call_ns.push_back(timed.firstCallNs(t));
      }
    }
    rec.wall_ns = end - start;
    // Batch input is all due at job start; timestep t is finished when the
    // engine first asks for t+1 (or returns).
    const auto executed = first_call_ns.size();
    for (std::size_t t = 0; t < executed; ++t) {
      const std::int64_t done = t + 1 < executed ? first_call_ns[t + 1] : end;
      rec.lag_ms.push_back(ms(done - start));
    }
    fillRunStats(run->exec.stats, rec);
    rec.ok = tdspDigest(*run) == reference_;
    return rec;
  }
  [[nodiscard]] int busyThreads() const override { return kPartitions; }

 private:
  static constexpr std::uint32_t kTimesteps = 50;
  static constexpr std::uint32_t kPartitions = 4;

  [[nodiscard]] tsg::TdspOptions options() const {
    tsg::TdspOptions o;
    o.source = 0;
    o.latency_attr =
        ds_->partitionedGraph().graphTemplate().edgeSchema().requireIndex(
            tsg::kLatencyAttr);
    o.while_mode = true;
    o.schedule = tsg::Schedule::kBsp;
    return o;
  }

};

std::uint64_t vcDigest(const tsg::vertexcentric::VcResult& run) {
  tsg::check::Digest d;
  d.addDoubles(run.values);
  d.addI64(run.supersteps);
  return d.value();
}

// vsssp-road: VertexCentricEngine + SsspVertexProgram(0) on the same
// lattice (one instance), 4 partitions. ~800 barriered supersteps of
// per-vertex messages and no instance loading.
class VssspRoad final : public Workload {
 public:
  Status generate(std::uint64_t seed) override {
    return generateRoad(seed, 1, kPartitions);
  }

  Result<std::uint64_t> reference(std::uint64_t* supersteps) override {
    const auto run = runOnce(SpanScope{});
    *supersteps = static_cast<std::uint64_t>(run.supersteps);
    reference_supersteps_ = run.supersteps;
    reference_ = vcDigest(run);
    return reference_;
  }

  JobRecord runJob(const SpanScope& scope) override {
    JobRecord rec;
    const std::int64_t start = nowNs();
    const auto run = runOnce(scope);
    rec.wall_ns = nowNs() - start;
    rec.lag_ms.push_back(ms(rec.wall_ns));  // one instance, due at start
    fillRunStats(run.stats, rec);
    rec.ok = vcDigest(run) == reference_ &&
             run.supersteps == reference_supersteps_;
    return rec;
  }
  [[nodiscard]] int busyThreads() const override { return kPartitions; }

 private:
  static constexpr std::uint32_t kPartitions = 4;

  tsg::vertexcentric::VcResult runOnce(const SpanScope& scope) {
    const ScopedSpan span(scope, "vertexcentric.run");
    tsg::vertexcentric::VertexCentricEngine engine(ds_->partitionedGraph());
    tsg::vertexcentric::SsspVertexProgram program(0);
    return engine.run(program, tsg::vertexcentric::VcConfig{},
                      [](tsg::VertexIndex) {
                        return tsg::vertexcentric::kInf;
                      });
  }

  std::int32_t reference_supersteps_ = 0;
};

std::uint64_t memeDigest(const tsg::MemeRun& run) {
  tsg::check::Digest d;
  d.addVector(run.colored_at,
              [](tsg::check::Digest& dd, tsg::Timestep t) { dd.addI64(t); });
  return d.value();
}

// Runs a callable when the scope ends, on every exit path.
class ScopeExit {
 public:
  explicit ScopeExit(std::function<void()> fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  std::function<void()> fn_;
};

// stream-meme: meme tracking over a 200k social graph, 3 partitions, fed
// by an open-loop paced event source through StreamIngestor. The ingest
// thread plus 3 workers fill 4 CPUs.
class StreamMeme final : public Workload {
 public:
  Status generate(std::uint64_t seed) override {
    tsg::PreferentialAttachmentOptions topo;
    topo.num_vertices = 200000;
    topo.seed = seed;
    auto tmpl = tsg::makePreferentialAttachment(
        topo, tsg::tweetVertexSchema(), {});
    if (!tmpl.isOk()) {
      return tmpl.status();
    }
    auto tptr = std::make_shared<tsg::GraphTemplate>(std::move(tmpl).value());
    tsg::SirTweetOptions sir;
    sir.num_timesteps = kTimesteps;
    sir.seed = seed + 1;
    // tsgcli's spreading regime (hit 0.1, background 0.01). 1024 seed
    // vertices start the epidemic at once, so its curve (peak ~16,500 meme
    // and background events at timestep 10, ~213,000 per job) is nearly
    // the same for every seed instead of taking off at a random timestep.
    sir.num_seed_vertices = 1024;
    sir.hit_probability = 0.1;
    sir.background_probability = 0.01;
    auto coll = tsg::makeSirTweetInstances(tptr, sir);
    if (!coll.isOk()) {
      return coll.status();
    }
    return partitionInputs(tptr, std::move(coll).value(), seed, kPartitions);
  }

  Result<SetupRep> setupOnce(const std::string& dir,
                             const SpanScope& scope) override {
    auto rep = writeAndOpen(dir, scope);
    if (!rep.isOk()) {
      return rep;
    }
    const std::int64_t t0 = nowNs();
    {
      const ScopedSpan span(scope, "stream.encode_log");
      encodeLog();
    }
    rep.value().encode_ns = nowNs() - t0;
    return rep;
  }
  Result<std::uint64_t> reference(std::uint64_t* supersteps) override {
    auto provider = ds_->makeProvider();
    const auto run = tsg::runMemeTracking(ds_->partitionedGraph(), *provider,
                                          options(nullptr));
    *supersteps = run.exec.stats.totalSupersteps();
    reference_ = memeDigest(run);
    return reference_;
  }

  JobRecord runJob(const SpanScope& scope) override {
    JobRecord rec;
    const auto& pg = ds_->partitionedGraph();
    const auto t0 = ds_->manifest().t0;
    const auto delta = ds_->manifest().delta;
    const std::int64_t start = nowNs();
    tsg::stream::SealQueue queue(4);
    tsg::stream::IngestorOptions io;
    io.planned_timesteps = kTimesteps;
    tsg::stream::StreamIngestor ingestor(pg.templatePtr(), pg, t0, delta,
                                         queue, io);
    tsg::stream::StreamingInstanceProvider sp(pg, pg.templatePtr(),
                                              kTimesteps, t0, delta, queue);
    // The schedule starts once the pipeline exists, so building the
    // ingestor is not charged to the first timestep's lag.
    const std::int64_t origin = nowNs();
    PacedEventSource source(log_, schedule_, origin);
    Status ingest_status;
    std::optional<tsg::MemeRun> run;
    std::optional<TimedStream> timed_stream;
    {
      std::thread ingest([&] {
        const ScopedSpan span(scope, "stream.ingest");
        ingest_status = ingestor.run(source);
      });
      // Joins on every exit path; draining first releases a backpressure
      // block if the engine stopped before the planned horizon.
      const ScopeExit join([&] {
        tsg::stream::SealedTimestep leftover;
        while (queue.pop(leftover)) {
        }
        ingest.join();
      });
      const ScopedSpan span(scope, "core.runMemeTracking");
      TimedProvider timed(sp, pg.numPartitions(), span.child());
      timed_stream.emplace(sp, kTimesteps, span.child());
      run.emplace(tsg::runMemeTracking(pg, timed, options(&*timed_stream)));
      rec.wall_ns = nowNs() - start;
    }
    rec.ingest_wait_ns = source.waitNs();
    for (const std::int64_t ns : source.wakeLateNs()) {
      rec.wake_late_ms.push_back(ms(ns));
    }
    rec.events = ingestor.eventsIngested();
    rec.queue_max_depth = queue.maxDepth();
    // Timestep t is finished when the engine asks for t+1 (or returns); its
    // lag runs from the due time of its last event.
    const std::int64_t end = start + rec.wall_ns;
    for (tsg::Timestep t = 0; t < run->exec.timesteps_executed; ++t) {
      const std::int64_t asked = timed_stream->enterNs(t + 1);
      const std::int64_t done = asked >= 0 ? asked : end;
      rec.lag_ms.push_back(ms(done - (origin + schedule_.last_due_ns[t])));
    }
    fillRunStats(run->exec.stats, rec);
    rec.ok = ingest_status.isOk() && memeDigest(*run) == reference_ &&
             run->exec.timesteps_executed == kTimesteps;
    return rec;
  }
  [[nodiscard]] int busyThreads() const override { return kPartitions + 1; }

 private:
  static constexpr std::int32_t kTimesteps = 20;
  static constexpr std::uint32_t kPartitions = 3;

  [[nodiscard]] tsg::MemeOptions options(tsg::TimestepStream* stream) const {
    tsg::MemeOptions o;
    o.tweets_attr =
        ds_->partitionedGraph().graphTemplate().vertexSchema().requireIndex(
            tsg::kTweetsAttr);
    o.schedule = tsg::Schedule::kBsp;
    o.stream = stream;
    return o;
  }

  // Diffs the collection into the carry-forward event stream and encodes
  // it as TSEV frames, recording where each frame ends.
  void encodeLog() {
    const auto events = tsg::stream::eventsFromCollection(*coll_);
    tsg::BinaryWriter w;
    std::vector<std::size_t> frame_ends;
    std::vector<std::int32_t> timestep_of;
    frame_ends.reserve(events.size());
    timestep_of.reserve(events.size());
    for (const auto& ev : events) {
      tsg::stream::encodeEvent(ev, w);
      frame_ends.push_back(w.size());
      timestep_of.push_back(static_cast<std::int32_t>(
          (ev.timestamp - coll_->t0()) / coll_->delta()));
    }
    tsg::stream::encodeEndOfStream(w);
    log_ = w.takeBuffer();
    schedule_ = makePaceSchedule(
        frame_ends, timestep_of, log_.size(), kTimesteps,
        kStreamPeriodMs * 1'000'000, kPaceTickNs);
  }

  std::vector<std::uint8_t> log_;
  PaceSchedule schedule_;
};

// ---------------------------------------------------------------------------
// Run validity: instrumentation inside the library must be off.

Status checkValidity() {
  if (std::getenv("TSG_INJECT") != nullptr) {
    return Status::failedPrecondition("TSG_INJECT is set");
  }
  if (tsg::check::enabled()) {
    return Status::failedPrecondition(
        "the BSP protocol checker is on (TSG_CHECK build or environment)");
  }
  if (tsg::Tracer::enabled()) {
    return Status::failedPrecondition("the trace-event tracer is armed");
  }
  if (tsg::Profiler::enabled() || tsg::prof::armed()) {
    return Status::failedPrecondition("the cost-attribution profiler is armed");
  }
  if (tsg::fault::FaultInjector::global().armed()) {
    return Status::failedPrecondition("the fault injector is armed");
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int fail(const std::string& what) {
  std::fprintf(stderr, "tsg_ledger: %s\n", what.c_str());
  return 1;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (arg == "--workload") {
      a.workload = value;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      a.trace = value == "1";
    } else if (arg == "--work-dir") {
      a.work_dir = value;
    } else if (arg == "--spans-out") {
      a.spans_out = value;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

constexpr int kSetupReps = 7;
// Host steal share of all CPU time over the job loop above which a run is
// refused. Over 30 s windows the calibration host's steal reached 21 % at
// most (median 0.9 %); see NOTES.md.
constexpr double kMaxStealPct = 25.0;

std::unique_ptr<Workload> makeWorkload(const Args& args) {
  if (args.workload == "tdsp-road") {
    return std::make_unique<TdspRoad>();
  }
  if (args.workload == "vsssp-road") {
    return std::make_unique<VssspRoad>();
  }
  if (args.workload == "stream-meme") {
    return std::make_unique<StreamMeme>();
  }
  return nullptr;
}

// What the timed loop produced.
struct Loop {
  std::vector<JobRecord> jobs;
  std::size_t attempted = 0;
  std::size_t failed = 0;  // digest mismatch or non-OK Status
  double cpu_s = 0;
  int threads_max = 0;
  double steal_pct = 0;  // host steal share of all CPU time during the loop
};

// One discarded warm-up job, then jobs in a closed loop for args.seconds.
Result<Loop> runJobs(Workload& w, const Args& args, SpanLog& log) {
  Loop loop;
  auto count = [&loop](const JobRecord& rec) {
    ++loop.attempted;
    loop.failed += rec.ok ? 0 : 1;
  };
  malloc_trim(0);
  count(w.runJob(SpanScope{}));

  const ThreadProbe probe(20);
  const double cpu0 = processCpuSeconds();
  const CpuTicks host0 = hostCpuTicks();
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (loop.jobs.empty() || nowNs() < deadline) {
    const auto index = static_cast<std::int32_t>(loop.jobs.size());
    // Traced runs alternate untraced and traced jobs so the tracing
    // overhead is measured inside one process.
    const bool traced = args.trace && index % 2 == 1;
    const SpanScope scope{traced ? &log : nullptr, index, 0};
    // Every job starts from a trimmed heap, so neither its page faults nor
    // VmHWM depend on how fragmented earlier jobs left the allocator.
    // VmHWM is reset here and read after the job: each job's own peak.
    malloc_trim(0);
    if (!resetPeakRss()) {
      return Status::failedPrecondition(
          "cannot reset VmHWM through /proc/self/clear_refs");
    }
    JobRecord rec;
    {
      const ScopedSpan job_span(scope, "job");
      rec = w.runJob(job_span.child());
    }
    rec.peak_rss_mb = peakRssMb();
    rec.traced = traced;
    count(rec);
    loop.jobs.push_back(std::move(rec));
  }
  loop.cpu_s = processCpuSeconds() - cpu0;
  loop.threads_max = probe.maxThreads();
  const CpuTicks host1 = hostCpuTicks();
  if (host1.total > host0.total) {
    loop.steal_pct = 100.0 * static_cast<double>(host1.steal - host0.steal) /
                     static_cast<double>(host1.total - host0.total);
  }
  return loop;
}

template <typename T, typename Fn>
double medianOf(const std::vector<T>& items, Fn value) {
  std::vector<double> v;
  v.reserve(items.size());
  for (const T& item : items) {
    v.push_back(static_cast<double>(value(item)));
  }
  return median(v);
}

// The jobs the end-to-end metrics are taken from: every untraced timed job.
std::vector<const JobRecord*> measuredJobs(const Loop& loop) {
  std::vector<const JobRecord*> jobs;
  for (const auto& j : loop.jobs) {
    if (!j.traced) {
      jobs.push_back(&j);
    }
  }
  return jobs;
}

std::vector<double> jobSeconds(const std::vector<const JobRecord*>& jobs) {
  std::vector<double> v;
  for (const JobRecord* j : jobs) {
    v.push_back(sec(j->wall_ns));
  }
  return v;
}

std::vector<double> lagMs(const std::vector<const JobRecord*>& jobs) {
  std::vector<double> v;
  for (const JobRecord* j : jobs) {
    v.insert(v.end(), j->lag_ms.begin(), j->lag_ms.end());
  }
  return v;
}

std::vector<Metric> endToEndMetrics(const std::vector<SetupRep>& reps,
                                    const Loop& loop) {
  const auto measured = measuredJobs(loop);
  return {
      {"setup_s", medianOf(reps, [](const SetupRep& r) {
         return sec(r.setupNs());
       }), "s"},
      {"job_p50_s", median(jobSeconds(measured)), "s"},
      {"result_lag_p50_ms", median(lagMs(measured)), "ms"},
      {"peak_rss_mb", medianOf(measured, [](const JobRecord* j) {
         return j->peak_rss_mb;
       }), "MB"},
  };
}

// Per-job layer times from a traced job's spans.
struct JobLayers {
  std::int64_t load_ns = 0;      // Σ instanceFor
  std::int64_t load_max_ns = 0;  // Σ over timesteps of the slowest partition
  std::size_t load_calls = 0;
  std::int64_t await_ns = 0;     // Σ awaitTimestep
  std::int64_t core_ns = 0;      // runTdsp / runMemeTracking span
  std::int64_t vc_ns = 0;        // VertexCentricEngine::run span
  std::int64_t ingest_ns = 0;    // StreamIngestor::run span
};

JobLayers layersOf(const std::vector<Span>& spans) {
  JobLayers l;
  std::map<std::int32_t, std::map<std::int32_t, std::int64_t>> load_by_tp;
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    const std::int64_t dur = s.end_ns - s.start_ns;
    if (name == "gofs.instanceFor") {
      l.load_ns += dur;
      ++l.load_calls;
      load_by_tp[s.timestep][s.partition] += dur;
    } else if (name == "stream.awaitTimestep") {
      l.await_ns += dur;
    } else if (name == "core.runTdsp" || name == "core.runMemeTracking") {
      l.core_ns = dur;
    } else if (name == "vertexcentric.run") {
      l.vc_ns = dur;
    } else if (name == "stream.ingest") {
      l.ingest_ns = dur;
    }
  }
  for (const auto& [t, parts] : load_by_tp) {
    std::int64_t worst = 0;
    for (const auto& [p, ns] : parts) {
      worst = std::max(worst, ns);
    }
    l.load_max_ns += worst;
  }
  return l;
}

std::vector<Metric> perLayerMetrics(const std::vector<SetupRep>& reps,
                                    const Loop& loop,
                                    const std::vector<Span>& spans) {
  std::map<std::int32_t, std::vector<Span>> by_job;
  for (const Span& s : spans) {
    if (s.job >= 0) {
      by_job[s.job].push_back(s);
    }
  }
  struct Traced {
    JobLayers layers;
    std::int64_t ingest_wait_ns;
  };
  std::vector<Traced> traced;
  for (const auto& [job, js] : by_job) {
    const JobRecord& rec = loop.jobs[static_cast<std::size_t>(job)];
    traced.push_back({layersOf(js), rec.ingest_wait_ns});
  }
  auto setup = [&reps](std::int64_t SetupRep::*field) {
    return medianOf(reps, [field](const SetupRep& r) { return sec(r.*field); });
  };
  auto layer = [&traced](auto fn) { return medianOf(traced, fn); };
  auto job = [&loop](auto fn) { return medianOf(loop.jobs, fn); };

  std::uint64_t queue_max = 0;
  double late_max_ms = 0;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  for (const auto& j : loop.jobs) {
    queue_max = std::max(queue_max, j.queue_max_depth);
    for (const double late : j.wake_late_ms) {
      late_max_ms = std::max(late_max_ms, late);
    }
    (j.traced ? traced_s : untraced_s).push_back(sec(j.wall_ns));
  }
  const double untraced_p50 = median(untraced_s);
  const double overhead_pct =
      untraced_p50 > 0 ? (median(traced_s) / untraced_p50 - 1.0) * 100.0 : 0;
  return {
      {"gofs.write_s", setup(&SetupRep::write_ns), "s"},
      {"gofs.open_s", setup(&SetupRep::open_ns), "s"},
      {"graph.template_decode_s", setup(&SetupRep::decode_ns), "s"},
      {"partition.build_s", setup(&SetupRep::build_ns), "s"},
      {"stream.encode_s", setup(&SetupRep::encode_ns), "s"},
      {"gofs.load_s",
       layer([](const Traced& t) { return sec(t.layers.load_ns); }), "s"},
      {"gofs.load_max_part_s",
       layer([](const Traced& t) { return sec(t.layers.load_max_ns); }), "s"},
      {"gofs.load_calls",
       layer([](const Traced& t) { return t.layers.load_calls; }), "count"},
      // The engine's own time: the algorithm call minus what it spent
      // waiting on the slowest partition's loads and on the stream.
      {"core.self_s", layer([](const Traced& t) {
         const JobLayers& l = t.layers;
         return l.core_ns > 0 ? sec(l.core_ns - l.load_max_ns - l.await_ns)
                              : 0.0;
       }), "s"},
      {"runtime.supersteps",
       job([](const JobRecord& j) { return j.supersteps; }), "count"},
      {"runtime.messages", job([](const JobRecord& j) { return j.messages; }),
       "count"},
      {"runtime.bytes", job([](const JobRecord& j) { return j.bytes; }),
       "count"},
      {"runtime.xpart_messages",
       job([](const JobRecord& j) { return j.xpart_messages; }), "count"},
      {"runtime.sync_s",
       job([](const JobRecord& j) { return sec(j.sync_ns); }), "s"},
      {"runtime.compute_s",
       job([](const JobRecord& j) { return sec(j.compute_ns); }), "s"},
      {"vertexcentric.job_s",
       layer([](const Traced& t) { return sec(t.layers.vc_ns); }), "s"},
      {"process.cpu_s_per_job",
       loop.cpu_s / static_cast<double>(loop.jobs.size()), "s"},
      // Ingest busy time: the StreamIngestor::run span minus the time the
      // source slept for the pacer.
      {"stream.ingest_s", layer([](const Traced& t) {
         return sec(t.layers.ingest_ns - t.ingest_wait_ns);
       }), "s"},
      {"stream.await_s",
       layer([](const Traced& t) { return sec(t.layers.await_ns); }), "s"},
      {"stream.queue_max_depth", static_cast<double>(queue_max), "count"},
      {"stream.events", job([](const JobRecord& j) { return j.events; }),
       "count"},
      {"stream.subgraphs_skipped",
       job([](const JobRecord& j) { return j.skipped; }), "count"},
      {"stream.gen_late_max_ms", late_max_ms, "ms"},
      {"process.threads_max", static_cast<double>(loop.threads_max), "count"},
      {"host.steal_pct", loop.steal_pct, "%"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

// Prints the tail percentile to stderr where the samples support it.
void printTail(const char* name, const std::vector<double>& v, double q) {
  if (percentileSupported(v.size(), q)) {
    std::fprintf(stderr, "ledger: %s = %.6g (n=%zu)\n", name, quantile(v, q),
                 v.size());
  } else {
    std::fprintf(stderr,
                 "ledger: %s not reported: n=%zu leaves fewer than 10 "
                 "samples beyond it\n",
                 name, v.size());
  }
}

int run(const Args& args) {
  if (const Status st = checkValidity(); !st.isOk()) {
    return fail("invalid run: " + st.message());
  }
  const std::unique_ptr<Workload> w = makeWorkload(args);
  if (w == nullptr) {
    return fail("unknown workload '" + args.workload + "'");
  }
  const int cpus = usableCpus();
  if (w->busyThreads() > cpus) {
    return fail("workload keeps " + std::to_string(w->busyThreads()) +
                " threads busy but only " + std::to_string(cpus) +
                " CPUs are usable");
  }

  SpanLog log;
  const SpanScope setup_scope{args.trace ? &log : nullptr, -1, 0};
  const std::string dir = args.work_dir + "/" + args.workload + "-" +
                          std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  const ScopeExit cleanup([&dir] {
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  });

  if (const Status st = w->generate(args.seed); !st.isOk()) {
    return fail("generate: " + st.message());
  }
  std::vector<SetupRep> reps;
  std::string setup_list;
  for (int r = 0; r < kSetupReps; ++r) {
    auto rep = w->setupOnce(dir, setup_scope);
    if (!rep.isOk()) {
      return fail("set-up: " + rep.status().message());
    }
    if (args.trace) {
      if (const Status st = w->timeDecodeAndBuild(dir, setup_scope,
                                                  rep.value());
          !st.isOk()) {
        return fail("decode/build: " + st.message());
      }
    }
    reps.push_back(rep.value());
    setup_list += " " + std::to_string(sec(rep.value().setupNs()));
  }
  w->dropGenerated();

  std::uint64_t ref_supersteps = 0;
  auto ref = w->reference(&ref_supersteps);
  if (!ref.isOk()) {
    return fail("reference run: " + ref.status().message());
  }
  std::fprintf(stderr,
               "ledger: workload=%s seed=%llu digest=%016llx "
               "supersteps=%llu\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(ref.value()),
               static_cast<unsigned long long>(ref_supersteps));

  auto ran = runJobs(*w, args, log);
  if (!ran.isOk()) {
    return fail(ran.status().message());
  }
  const Loop& loop = ran.value();
  if (const Status st = checkValidity(); !st.isOk()) {
    return fail("invalid run: " + st.message());
  }
  // A stolen slice on any shared CPU stalls every partition at the next
  // barrier, so under heavy steal the jobs time the host's other tenants.
  if (loop.steal_pct > kMaxStealPct) {
    return fail("host steal was " + std::to_string(loop.steal_pct) +
                "% of CPU time during the jobs (limit " +
                std::to_string(kMaxStealPct) + "%)");
  }
  // The busy threads of a job fit on the usable CPUs. Besides them only the
  // blocked coordinator (main) and the probe exist.
  if (loop.threads_max - 2 > cpus) {
    return fail("saw " + std::to_string(loop.threads_max) +
                " threads during jobs on " + std::to_string(cpus) + " CPUs");
  }
  std::vector<double> wake_late_ms;
  for (const auto& j : loop.jobs) {
    wake_late_ms.insert(wake_late_ms.end(), j.wake_late_ms.begin(),
                        j.wake_late_ms.end());
  }
  // The pacer must keep its schedule. Late wake-ups delay reading, and the
  // lag, timed from due times, rightly charges them to the run; but when
  // the p99 wake-up is late by more than half a timestep window the host
  // could not run the pacer on time and the lag would measure that.
  if (!wake_late_ms.empty()) {
    const double p99 = quantile(wake_late_ms, 0.99);
    std::fprintf(stderr, "ledger: pacer wake-ups n=%zu, p99 %.3f ms late\n",
                 wake_late_ms.size(), p99);
    if (p99 > static_cast<double>(kStreamPeriodMs) / 2) {
      return fail("event pacer p99 wake-up was " + std::to_string(p99) +
                  " ms late (limit half a period)");
    }
  }

  const auto measured = measuredJobs(loop);
  const std::vector<double> job_s = jobSeconds(measured);
  const std::vector<double> lag_ms = lagMs(measured);
  std::fprintf(stderr, "ledger: set-ups (s):%s\n", setup_list.c_str());
  std::fprintf(stderr,
               "ledger: %zu timed jobs; %zu untraced; host steal %.2f%% of "
               "CPU time over the loop; %zu lag samples\n",
               loop.jobs.size(), measured.size(), loop.steal_pct,
               lag_ms.size());
  printTail("job_p90_s", job_s, 0.9);
  printTail("result_lag_p90_ms", lag_ms, 0.9);

  std::vector<Metric> metrics;
  if (args.trace) {
    const std::vector<Span> spans = log.take();
    if (!args.spans_out.empty() && !writeSpansJson(args.spans_out, spans)) {
      return fail("cannot write " + args.spans_out);
    }
    metrics = perLayerMetrics(reps, loop, spans);
  } else {
    metrics = endToEndMetrics(reps, loop);
  }
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  %-26s %14zu\n  %-26s %14zu\n", "jobs_attempted",
               loop.attempted, "jobs_failed", loop.failed);
  printResult(loop.failed == 0, loop.attempted, loop.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  ledger::Args args;
  if (!ledger::parseArgs(argc, argv, args)) {
    std::fputs(
        "usage: tsg_ledger --workload=tdsp-road|vsssp-road|stream-meme "
        "--seed=N --seconds=S --trace=0|1 [--work-dir=DIR] "
        "[--spans-out=FILE]\n",
        stderr);
    return 2;
  }
  return ledger::run(args);
}
