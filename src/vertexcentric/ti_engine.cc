#include "vertexcentric/ti_engine.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>

#include "check/bsp_checker.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "gofs/checkpoint.h"
#include "profile/profiler.h"
#include "runtime/cluster.h"
#include "runtime/fault_injector.h"
#include "runtime/ready_tracker.h"

namespace tsg {
namespace vertexcentric {

namespace {
struct TvMessage {
  VertexIndex dst;
  double value;
};

// Adapter so the wave callbacks can live as lambdas inside run() instead of
// a second engine class; see the subgraph engine's WaveDriver for the
// sealing contract.
class CallbackWaveDriver final : public AsyncCluster::Driver {
 public:
  std::function<void(PartitionId, const AsyncCluster::TaskInfo&)> run_task;
  std::function<std::vector<PartitionId>(std::int32_t)> seal;

  void runTask(PartitionId p, const AsyncCluster::TaskInfo& info) override {
    run_task(p, info);
  }
  std::vector<PartitionId> sealWave(std::int32_t s) override {
    return seal(s);
  }
};
}  // namespace

// Per-partition worker state; thread-confined during a round. Cache-line
// aligned: workers sit side by side in one vector, and each one bumps its
// traffic counters per message.
struct alignas(64) TvWorker {
  const PartitionedGraph* pg = nullptr;
  const PartitionInstanceData* instance = nullptr;
  PartitionId partition = 0;
  std::vector<std::vector<TvMessage>> outbox;  // by destination partition
  std::vector<TvMessage> incoming;
  std::vector<TvMessage> next_timestep;  // deferred to t+1
  std::vector<std::vector<double>> vertex_msgs;  // by local vertex index
  std::vector<std::uint8_t> has_msgs;
  // Vertices this worker's last round left unhalted; a skipped (wave)
  // partition keeps its 0 from the round that quiesced it.
  std::uint64_t unhalted = 0;
  std::int64_t load_ns = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t vertices_computed = 0;
  // Protocol checking (null = off). The stamps record when incoming was
  // filled: (t, s) at the barrier exchange, (t, -1) for inter-timestep
  // seeds injected before superstep 0.
  check::BspChecker* checker = nullptr;
  Timestep incoming_stamp_t = -1;
  std::int32_t incoming_stamp_s = -1;
};

namespace {
// One superstep's record, draining every worker's meters into its row;
// timings[p] is partition p's round (barrier) or wave-task timing. Sends are
// buffered appends charged to compute; send_ns is filled in by the flush
// (sealDelivery).
SuperstepRecord closeRecord(std::vector<TvWorker>& workers, Timestep t,
                            std::int32_t s,
                            const std::vector<Cluster::RoundTiming>& timings) {
  SuperstepRecord rec;
  rec.timestep = t;
  rec.superstep = s;
  rec.parts.resize(workers.size());
  for (std::size_t p = 0; p < workers.size(); ++p) {
    auto& w = workers[p];
    auto& ps = rec.parts[p];
    ps.load_ns = std::exchange(w.load_ns, 0);
    ps.compute_ns =
        std::max<std::int64_t>(0, timings[p].busy_ns - ps.load_ns);
    ps.sync_ns = timings[p].sync_ns;
    ps.messages_sent = std::exchange(w.msgs_sent, 0);
    ps.bytes_sent = std::exchange(w.bytes_sent, 0);
    ps.subgraphs_computed = std::exchange(w.vertices_computed, 0);
  }
  return rec;
}
}  // namespace

double TemporalVertexContext::edgeDouble(std::size_t attr,
                                         EdgeIndex e) const {
  const auto& worker = *worker_;
  TSG_CHECK(worker.instance != nullptr);
  TSG_CHECK(attr < worker.instance->edge_cols.size());
  TSG_CHECK(worker.pg->partitionOfVertex(tmpl_->edgeSrc(e)) ==
            worker.partition);
  return worker.instance->edge_cols[attr]
      .asDouble()[worker.pg->localIndexOfEdge(e)];
}

// tsg:hot — once per message; a buffered append, metered at the flush.
void TemporalVertexContext::sendTo(VertexIndex dst, double value) {
  auto& worker = *worker_;
  const PartitionId to = worker.pg->partitionOfVertex(dst);
  if (worker.checker != nullptr) {
    worker.checker->onSend(worker.partition, to, sizeof(TvMessage));
  }
  worker.outbox[to].push_back({dst, value});
  ++worker.msgs_sent;
  worker.bytes_sent += sizeof(TvMessage);
  if (Profiler::enabled()) [[unlikely]] {
    Profiler::global().recordSend(worker.pg->subgraphOfVertex(vertex_),
                                  worker.pg->subgraphOfVertex(dst),
                                  timestep_, sizeof(TvMessage));
  }
}

// tsg:hot — once per carried message.
void TemporalVertexContext::sendToNextTimestep(VertexIndex dst,
                                               double value) {
  auto& worker = *worker_;
  // Deliberately not reported to the protocol checker here: this is the
  // carried (inter-timestep) channel. The checker accounts for it as an
  // injection when the coordinator seeds it before t+1's superstep 0.
  worker.next_timestep.push_back({dst, value});
  ++worker.msgs_sent;
  worker.bytes_sent += sizeof(TvMessage);
  if (Profiler::enabled()) [[unlikely]] {
    Profiler::global().recordSend(worker.pg->subgraphOfVertex(vertex_),
                                  worker.pg->subgraphOfVertex(dst),
                                  timestep_, sizeof(TvMessage));
  }
}

TemporalVertexEngine::TemporalVertexEngine(const PartitionedGraph& pg,
                                           InstanceProvider& provider)
    : pg_(pg), provider_(&provider) {}

TemporalVertexEngine::TemporalVertexEngine(const PartitionedGraph& pg)
    : pg_(pg), provider_(nullptr) {}

TemporalVcResult TemporalVertexEngine::run(TemporalVertexProgram& program,
                                           const TemporalVcConfig& config) {
  const GraphTemplate& tmpl = pg_.graphTemplate();
  const auto k = pg_.numPartitions();
  const std::size_t n = tmpl.numVertices();

  const Timestep first = config.first_timestep;
  TSG_CHECK(first >= 0);
  const auto available =
      static_cast<std::int64_t>(
          provider_ != nullptr ? provider_->numInstances() : 1) -
      first;
  TSG_CHECK(available >= 0);
  const auto count = static_cast<std::int32_t>(
      config.num_timesteps < 0
          ? available
          : std::min<std::int64_t>(config.num_timesteps, available));
  const std::int64_t delta = provider_ != nullptr ? provider_->delta() : 1;

  std::vector<std::uint8_t> halted(n, 0);
  std::vector<TvWorker> workers(k);
  for (PartitionId p = 0; p < k; ++p) {
    auto& w = workers[p];
    w.pg = &pg_;
    w.partition = p;
    w.outbox.resize(k);
    const std::size_t local = pg_.partition(p).vertices.size();
    w.vertex_msgs.resize(local);
    w.has_msgs.assign(local, 0);
  }

  TemporalVcResult result;
  result.stats = RunStats(k);
  Tracer::setCurrentThreadName("coordinator");
  TraceSpan run_span("vc", "tvc.run", "timesteps", count);
  if (Profiler::enabled()) {
    Profiler::global().beginRun(pg_, first, count);
  }
  const auto metrics_before = MetricsRegistry::global().snapshot();
  const auto hists_before = MetricsRegistry::global().histogramSnapshot();
  Stopwatch wall;
  const bool use_async = config.schedule == Schedule::kAsync;
  std::unique_ptr<Cluster> bsp_cluster;
  std::unique_ptr<AsyncCluster> async_cluster;
  if (use_async) {
    async_cluster = std::make_unique<AsyncCluster>(k);
  } else {
    bsp_cluster = std::make_unique<Cluster>(k);
  }

  // Protocol checking: one checker per run; no registry reconciliation (the
  // bus.* counters belong to MessageBus, which this engine does not use).
  std::unique_ptr<check::BspChecker> checker;
  if (check::enabled()) {
    checker = std::make_unique<check::BspChecker>(k);
    for (auto& w : workers) {
      w.checker = checker.get();
    }
  }

  // Deferred messages from timestep t, routed before t+1's superstep 0.
  std::vector<TvMessage> pending_next;

  CheckpointStore* const store = config.checkpoint_store;
  std::int32_t recoveries = 0;

  // Runs one barriered round; a worker killed by fault injection surfaces
  // here as RecoveryNeeded (same contract as the subgraph engine). Under
  // the async schedule full rounds (end-of-timestep) go through
  // AsyncCluster::runAll, which has the same timing/fault contract.
  const auto runRound = [&](const std::function<void(PartitionId)>& job)
      -> const std::vector<Cluster::RoundTiming>& {
    const auto& timings =
        use_async ? async_cluster->runAll(job) : bsp_cluster->run(job);
    const bool faulted =
        use_async ? async_cluster->hasFaults() : bsp_cluster->hasFaults();
    if (faulted) [[unlikely]] {
      std::string detail;
      const auto faults =
          use_async ? async_cluster->takeFaults() : bsp_cluster->takeFaults();
      for (const auto& f : faults) {
        if (!detail.empty()) {
          detail += "; ";
        }
        detail += f.detail;
      }
      throw fault::RecoveryNeeded(std::move(detail));
    }
    return timings;
  };

  // The cut after `completed`: program state plus deferred messages
  // (TvMessages travel as Checkpoint Messages with an 8-byte payload).
  const auto saveCheckpoint = [&](Timestep completed,
                                  std::int32_t executed) {
    TraceSpan ckpt_span("vc", "tvc.checkpoint", "t", completed);
    Checkpoint ckpt;
    ckpt.timestep = completed;
    ckpt.timesteps_executed = executed;
    ckpt.partitions.resize(1);
    BinaryWriter w;
    program.saveState(w);
    ckpt.partitions[0].program_state = w.takeBuffer();
    ckpt.pending_next.reserve(pending_next.size());
    for (const auto& msg : pending_next) {
      Message m;
      m.dst = msg.dst;
      BinaryWriter pw;
      pw.writeDouble(msg.value);
      m.payload = PayloadBuffer(pw.buffer().data(), pw.buffer().size());
      ckpt.pending_next.push_back(std::move(m));
    }
    const Status saved = store->save(ckpt);
    TSG_CHECK_MSG(saved.isOk(), saved.toString());
    MetricsRegistry::global().counter("engine.checkpoints").increment();
  };

  // One timestep's BSP; throws fault::RecoveryNeeded when a worker dies.
  const auto runTimestep = [&](std::int32_t i) {
    const Timestep t = first + i;
    TraceSpan timestep_span("vc", "tvc.timestep", "t", t);
    if (checker != nullptr) {
      checker->beginTimestep(t);
      if (!pending_next.empty()) {
        checker->onInject(pending_next.size(),
                          pending_next.size() * sizeof(TvMessage));
      }
      for (auto& w : workers) {
        w.incoming_stamp_t = t;
        w.incoming_stamp_s = -1;
      }
    }
    // Seed inter-timestep messages into the owning partitions' inboxes.
    for (auto& msg : pending_next) {
      workers[pg_.partitionOfVertex(msg.dst)].incoming.push_back(msg);
    }
    pending_next.clear();
    std::fill(halted.begin(), halted.end(), 0);

    // Per-partition compute for superstep s — shared verbatim between the
    // barriered loop and the wave tasks, so both schedules replay the same
    // send sequence.
    const auto partition_job = [&, t](PartitionId p, std::int32_t s) {
      auto& w = workers[p];
      auto& inj = fault::FaultInjector::global();
      if (w.checker != nullptr) {
        w.checker->enterCompute(p);
        if (!w.incoming.empty()) {
          w.checker->onConsume(p, w.incoming.size(), w.incoming_stamp_t,
                               w.incoming_stamp_s, 0);
        }
      }
      if (s == 0) {
        if (inj.armed() &&
            inj.fire(fault::Site::kSliceLoad, p, t, fault::Action::kKill))
            [[unlikely]] {
          throw fault::WorkerFault(p, t, fault::Site::kSliceLoad);
        }
        if (provider_ != nullptr) {
          w.instance = &provider_->instanceFor(p, t);
          w.load_ns += provider_->takeLoadNs(p);
        }
      }
      const Partition& part = pg_.partition(p);
      w.unhalted = 0;
      for (const auto& msg : w.incoming) {
        const std::uint32_t local = pg_.localIndexOfVertex(msg.dst);
        w.vertex_msgs[local].push_back(msg.value);
        w.has_msgs[local] = 1;
      }
      w.incoming.clear();
      if (inj.armed()) [[unlikely]] {
        if (const auto spec = inj.fire(fault::Site::kCompute, p, t)) {
          if (spec->action == fault::Action::kKill) {
            throw fault::WorkerFault(p, t, fault::Site::kCompute);
          }
          std::this_thread::sleep_for(
              std::chrono::microseconds(spec->delay_us));
        }
      }

      TemporalVertexContext ctx;
      ctx.timestep_ = t;
      ctx.superstep_ = s;
      ctx.tmpl_ = &tmpl;
      ctx.delta_ = delta;
      ctx.worker_ = &w;
      for (std::uint32_t l = 0; l < part.vertices.size(); ++l) {
        const VertexIndex v = part.vertices[l];
        const bool active = s == 0 || w.has_msgs[l] != 0 || halted[v] == 0;
        if (!active) {
          continue;
        }
        if (w.checker != nullptr) {
          w.checker->onComputeUnit(p, v, halted[v] != 0,
                                   s == 0 || w.has_msgs[l] != 0);
        }
        halted[v] = 0;
        ctx.vertex_ = v;
        ctx.halted_ = &halted[v];
        ctx.messages_ = w.vertex_msgs[l];
        if (Profiler::enabled()) [[unlikely]] {
          auto& prof = Profiler::global();
          const std::uint64_t msgs_before = w.msgs_sent;
          const std::int64_t unit_start = steadyNowNs();
          program.compute(ctx);
          const std::int64_t unit_ns = steadyNowNs() - unit_start;
          prof.recordCompute(pg_.subgraphOfVertex(v), t, unit_ns);
          if (w.vertices_computed % prof.sampleEvery() == 0) {
            prof.recordVertexSample(p, v, unit_ns, w.msgs_sent - msgs_before);
          }
        } else {
          program.compute(ctx);
        }
        ++w.vertices_computed;
        if (halted[v] == 0) {
          ++w.unhalted;
        }
        w.vertex_msgs[l].clear();
        w.has_msgs[l] = 0;
      }
      if (inj.armed() &&
          inj.fire(fault::Site::kBarrier, p, t, fault::Action::kKill))
          [[unlikely]] {
        throw fault::WorkerFault(p, t, fault::Site::kBarrier);
      }
      if (w.checker != nullptr) {
        w.checker->exitCompute(p);
      }
    };

    // Delivery, checker accounting, vc.* metrics and the record commit —
    // shared between the barrier and the wave seal. Takes rec with its
    // parts[] timing rows already filled, and fills each row's send_ns with
    // the steady time spent flushing that partition's k outboxes (0 for a
    // row with nothing to flush); returns the delivered count.
    // Throws RecoveryNeeded on an injected drop (rec is discarded: the
    // exchange never happened).
    const auto sealDelivery = [&, t](SuperstepRecord rec,
                                     std::int32_t s) -> std::uint64_t {
      {
        auto& inj = fault::FaultInjector::global();
        if (inj.armed()) [[unlikely]] {
          if (const auto spec =
                  inj.fire(fault::Site::kDeliver, kInvalidPartition, t)) {
            if (spec->action == fault::Action::kDrop) {
              // The exchange is lost in flight; recovery clears the boxes.
              throw fault::RecoveryNeeded(
                  "delivery exchange dropped at timestep " +
                  std::to_string(t) + " superstep " + std::to_string(s));
            }
            std::this_thread::sleep_for(
                std::chrono::microseconds(spec->delay_us));
            MetricsRegistry::global()
                .counter("fault.delivery_delays")
                .increment();
          }
        }
      }
      auto& registry = MetricsRegistry::global();
      auto& h_batch = registry.histogram("vc.batch_messages");
      std::uint64_t delivered = 0;
      for (PartitionId p = 0; p < k; ++p) {
        const std::int64_t flush_start = steadyNowNs();
        std::uint64_t flushed = 0;
        for (PartitionId q = 0; q < k; ++q) {
          auto& box = workers[p].outbox[q];
          if (!box.empty()) {
            h_batch.record(box.size());
          }
          flushed += box.size();
          rec.delivered_bytes += box.size() * sizeof(TvMessage);
          if (p != q) {
            rec.cross_partition_messages += box.size();
            rec.cross_partition_bytes += box.size() * sizeof(TvMessage);
          }
          auto& inbox = workers[q].incoming;
          if (inbox.empty()) {
            // Whole-vector splice; the swap also recycles the inbox's old
            // capacity back into the outbox slot.
            std::swap(inbox, box);
          } else {
            inbox.insert(inbox.end(), std::make_move_iterator(box.begin()),
                         std::make_move_iterator(box.end()));
            box.clear();
          }
        }
        if (flushed != 0) {
          rec.parts[p].send_ns = steadyNowNs() - flush_start;
        }
        delivered += flushed;
      }
      rec.delivered_messages = delivered;
      if (checker != nullptr) {
        // The swap loop above is this engine's barrier delivery; incoming
        // is always fully drained at the next round start.
        for (auto& w : workers) {
          w.incoming_stamp_t = t;
          w.incoming_stamp_s = s;
        }
        checker->onDeliver(delivered, delivered * sizeof(TvMessage), 0, 0);
      }
      traceCounter("vc.delivered_messages",
                   static_cast<std::int64_t>(delivered));
      {
        registry.counter("vc.supersteps").increment();
        // Live-progress gauges (series names shared with the core engine).
        registry.gauge("engine.current_timestep")
            .set(static_cast<std::int64_t>(t));
        registry.gauge("engine.current_superstep")
            .set(static_cast<std::int64_t>(s));
        std::uint64_t computed = 0;
        auto& h_compute = registry.histogram("vc.superstep_compute_ns");
        auto& h_send = registry.histogram("vc.superstep_send_ns");
        auto& h_sync = registry.histogram("vc.superstep_sync_ns");
        for (const auto& ps : rec.parts) {
          computed += ps.subgraphs_computed;
          h_compute.record(static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, ps.compute_ns)));
          h_send.record(static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, ps.send_ns)));
          h_sync.record(static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, ps.sync_ns)));
        }
        registry.counter("vc.vertices_computed").add(computed);
        registry.counter("vc.messages_delivered").add(delivered);
      }
      result.stats.addSuperstep(std::move(rec));
      return delivered;
    };

    std::int32_t s = 0;
    if (!use_async) {
      while (true) {
        TraceSpan superstep_span("vc", "tvc.superstep", "t", t, "s", s);
        if (checker != nullptr) {
          checker->beginSuperstep(s);
        }
        const auto& timings =
            runRound([&, s](PartitionId p) { partition_job(p, s); });

        const std::uint64_t delivered =
            sealDelivery(closeRecord(workers, t, s, timings), s);

        const bool all_halted =
            std::all_of(workers.begin(), workers.end(),
                        [](const TvWorker& w) { return w.unhalted == 0; });
        ++s;
        if (all_halted && delivered == 0) {
          break;
        }
        if (s >= config.max_supersteps_per_timestep) {
          if (checker != nullptr) {
            // Cap abort abandons delivered-but-unconsumed traffic by design.
            checker->onReset();
          }
          break;
        }
      }
    } else {
      // Wave schedule: only partitions with pending messages or unhalted
      // vertices run each superstep; the last finisher seals the wave with
      // the same swap-loop exchange. Termination (all halted, nothing
      // delivered) falls out of the tracker: a seal that records universal
      // quiesce and empty inboxes reports terminated().
      if (checker != nullptr) {
        checker->beginSuperstep(0);
      }
      ReadyTracker tracker(static_cast<std::int32_t>(k));
      tracker.beginTimestep();
      // Per-task timing of the current wave; zero for skipped partitions.
      std::vector<Cluster::RoundTiming> wave_timings(k);
      auto& m_skips =
          MetricsRegistry::global().counter("cluster.barrier_skips");
      CallbackWaveDriver driver;
      driver.run_task = [&](PartitionId p,
                            const AsyncCluster::TaskInfo& info) {
        const std::int64_t cpu_start = threadCpuNowNs();
        partition_job(p, info.wave);
        wave_timings[p] = {threadCpuNowNs() - cpu_start, info.ready_wait_ns};
      };
      driver.seal = [&](std::int32_t sw) -> std::vector<PartitionId> {
        SuperstepRecord rec = closeRecord(workers, t, sw, wave_timings);
        std::fill(wave_timings.begin(), wave_timings.end(),
                  Cluster::RoundTiming{});
        for (PartitionId p = 0; p < k; ++p) {
          tracker.recordQuiesce(p, workers[p].unhalted == 0);
        }
        sealDelivery(std::move(rec), sw);
        s = sw + 1;
        // Post-splice inbox sizes are the ground-truth inbound set for the
        // next wave (partitions that ran drained theirs at task start).
        for (PartitionId p = 0; p < k; ++p) {
          tracker.recordDelivery(
              p, static_cast<std::uint64_t>(workers[p].incoming.size()));
        }
        if (tracker.terminated()) {
          return {};
        }
        if (sw + 1 >= config.max_supersteps_per_timestep) {
          if (checker != nullptr) {
            // Cap abort abandons delivered-but-unconsumed traffic by design.
            checker->onReset();
          }
          return {};
        }
        std::vector<PartitionId> next = tracker.advance();
        if (next.size() < k) {
          m_skips.add(k - static_cast<std::uint64_t>(next.size()));
          if (checker != nullptr) {
            // Cross-check every skip against the actual inbox contents;
            // `next` is ascending, so a two-pointer sweep walks the
            // complement.
            std::size_t j = 0;
            for (PartitionId p = 0; p < k; ++p) {
              if (j < next.size() && next[j] == p) {
                ++j;
                continue;
              }
              checker->onSkipRound(
                  p, static_cast<std::uint64_t>(workers[p].incoming.size()));
            }
          }
        }
        if (checker != nullptr) {
          checker->beginSuperstep(sw + 1);
        }
        return next;
      };
      std::vector<PartitionId> all(k);
      std::iota(all.begin(), all.end(), PartitionId{0});
      async_cluster->runWaves(driver, all, /*first_wave=*/0);
    }

    // End of timestep: per-vertex hook, then collect deferred messages.
    if (checker != nullptr) {
      checker->beginSuperstep(s);
    }
    runRound([&, t](PartitionId p) {
      if (checker != nullptr) {
        checker->enterCompute(p);
      }
      for (const VertexIndex v : pg_.partition(p).vertices) {
        program.endOfTimestep(v, t);
      }
      if (checker != nullptr) {
        checker->exitCompute(p);
      }
    });
    for (auto& w : workers) {
      std::move(w.next_timestep.begin(), w.next_timestep.end(),
                std::back_inserter(pending_next));
      w.next_timestep.clear();
    }
    ++result.timesteps_executed;
  };

  std::int32_t i = 0;
  bool done = false;
  if (store != nullptr) {
    saveCheckpoint(first - 1, 0);  // initial cut: pristine program state
  }
  while (!done) {
    try {
      while (i < count) {
        // Streaming: block until the instance for this timestep is sealed
        // (cf. TiBspEngine's serial loop). False = source ended early.
        if (config.stream != nullptr &&
            !config.stream->awaitTimestep(first + i)) {
          break;
        }
        runTimestep(i);
        if (store != nullptr) {
          saveCheckpoint(first + i, result.timesteps_executed);
        }
        ++i;
      }
      done = true;
    } catch (const fault::RecoveryNeeded& fault_cause) {
      TSG_CHECK_MSG(store != nullptr,
                    std::string("worker fault without a checkpoint store: ") +
                        fault_cause.what());
      ++recoveries;
      TSG_CHECK_MSG(recoveries <= config.max_recoveries,
                    "recovery limit exhausted; last fault: " +
                        std::string(fault_cause.what()));
      TraceSpan rec_span("vc", "tvc.recovery");
      TSG_LOG(Warn) << "recovering from fault (" << recoveries << "/"
                    << config.max_recoveries << "): " << fault_cause.what();
      MetricsRegistry::global().counter("engine.recoveries").increment();
      if (checker != nullptr) {
        checker->onRecovery();
      }
      if (use_async) {
        async_cluster->respawnDead();
      } else {
        bsp_cluster->respawnDead();
      }
      auto loaded = store->loadLatest();
      TSG_CHECK_MSG(loaded.isOk(), loaded.status().toString());
      Checkpoint ckpt = std::move(loaded).value();
      TSG_CHECK(ckpt.partitions.size() == 1);
      BinaryReader state_reader(ckpt.partitions[0].program_state);
      const Status restored = program.loadState(state_reader);
      TSG_CHECK_MSG(restored.isOk(), restored.toString());
      for (auto& w : workers) {
        for (auto& box : w.outbox) {
          box.clear();
        }
        w.incoming.clear();
        w.next_timestep.clear();
        for (auto& msgs : w.vertex_msgs) {
          msgs.clear();
        }
        std::fill(w.has_msgs.begin(), w.has_msgs.end(), 0);
        w.load_ns = 0;
        w.msgs_sent = 0;
        w.bytes_sent = 0;
        w.vertices_computed = 0;
        w.instance = nullptr;
      }
      pending_next.clear();
      for (const auto& m : ckpt.pending_next) {
        BinaryReader payload_reader(
            std::span<const std::uint8_t>(m.payload.data(), m.payload.size()));
        double value = 0;
        const Status read = payload_reader.readDouble(value);
        TSG_CHECK_MSG(read.isOk(), read.toString());
        pending_next.push_back({m.dst, value});
      }
      result.timesteps_executed = ckpt.timesteps_executed;
      if (Profiler::enabled()) {
        // Rolled-back timesteps re-run from the cut; drop their rows.
        Profiler::global().resetRowsFrom(ckpt.timestep + 1);
      }
      i = (ckpt.timestep - first) + 1;
    }
  }
  if (checker != nullptr) {
    checker->endRun();
  }

  result.stats.setWallClockNs(wall.elapsedNs());
  result.stats.setMetrics(
      snapshotDelta(metrics_before, MetricsRegistry::global().snapshot()));
  result.stats.setHistograms(histogramDelta(
      hists_before, MetricsRegistry::global().histogramSnapshot()));
  if (Profiler::enabled()) {
    result.stats.setAttribution(Profiler::global().take());
  }
  return result;
}

}  // namespace vertexcentric
}  // namespace tsg
