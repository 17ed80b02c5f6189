// MessageBus — bulk message exchange between partitions, BSP style.
//
// During a superstep, worker p enqueues into its own outbox row
// (row p, destination q); rows are thread-confined so sends are lock-free.
// Between supersteps the coordinator calls deliver(), which *splices* every
// non-empty outbox vector into the destination inbox as one batch — O(k²)
// pointer swaps at the barrier instead of O(messages) per-message moves —
// and returns traffic stats that were already accumulated at send time on
// the worker threads, so the coordinator does no per-message work at all.
// Spent batch vectors are recycled back into outbox slots, making the
// fabric allocation-free at steady state.
//
// Ordering contract (FIFO per sender):
//   * Messages from sender partition s to receiver r are observed by r in
//     exactly the order s sent them within a superstep (one outbox vector
//     becomes one batch, order preserved end to end).
//   * Batches within an inbox are ordered by sender partition id, injected
//     batches first (injection only happens before superstep 0). No order is
//     guaranteed *between* different senders — same as any BSP fabric.
//
// Thread-safety contract (phase-confined, deliberately lock-free):
//   * During a round: worker p may call send(p, …) and consume inbox(p);
//     no two workers touch the same row or inbox.
//   * Between rounds (coordinator only, after the barrier): deliver(),
//     inject(), anyPending(), clearAll(). The barrier provides the
//     happens-before edge between the two phases.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "graph/types.h"
#include "runtime/message.h"

namespace tsg {

namespace check {
class BspChecker;
}  // namespace check

class MessageBus {
 public:
  struct DeliveryStats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t cross_partition_messages = 0;
    std::uint64_t cross_partition_bytes = 0;
  };

  // A worker's inbox: the batches spliced to it by the last deliver() (plus
  // any injected seeds). The owning worker iterates batches() and moves the
  // messages out, then calls clear(); batch vectors are recycled by the bus
  // on the next deliver().
  class Inbox {
   public:
    [[nodiscard]] std::size_t size() const { return total_; }
    [[nodiscard]] bool empty() const { return total_ == 0; }
    [[nodiscard]] std::span<std::vector<Message>> batches() {
      return batches_;
    }
    [[nodiscard]] std::span<const std::vector<Message>> batches() const {
      return batches_;
    }
    // Flow ids parallel to batches(): entry i links batch i back to its
    // send-side trace flow (0 = untracked, e.g. injected seeds).
    [[nodiscard]] std::span<const std::uint64_t> flowIds() const {
      return flow_ids_;
    }

    // Drops the messages but keeps the spent batch vectors for recycling.
    // This is the drain point of a batch's trace flow: with tracing on, each
    // tracked batch emits its flow-finish here, on the consuming thread.
    // With a protocol checker attached this is also the consume hook: the
    // checker sees how many messages were drained and when they were
    // delivered (the stamp), so same-superstep reads are caught.
    void clear();

   private:
    friend class MessageBus;
    std::vector<std::vector<Message>> batches_;
    std::vector<std::uint64_t> flow_ids_;  // parallel to batches_
    std::size_t total_ = 0;
    // Protocol-checker state: which partition owns this inbox and when its
    // current content was delivered ((timestep, superstep); superstep -1 =
    // injected before superstep 0). Null checker = checking off.
    check::BspChecker* checker_ = nullptr;
    PartitionId owner_ = kInvalidPartition;
    Timestep stamp_t_ = -1;
    std::int32_t stamp_s_ = -1;
    // The bus-wide bus.inflight_messages gauge (attached at construction,
    // like checker_): clear() subtracts what it drains so the live level
    // stays truthful from the consuming thread.
    MetricsRegistry::Gauge* inflight_ = nullptr;
  };

  explicit MessageBus(std::uint32_t num_partitions);

  // Called by worker `from` only (thread-confinement contract). Delivery
  // stats are accumulated here, on the worker thread.
  void send(PartitionId from, PartitionId to, Message msg);

  // Coordinator-only, between supersteps: splices outbox vectors into the
  // destination inboxes and reports the traffic accumulated since the last
  // deliver(). Undelivered inbox content from the previous superstep is
  // dropped (the engine has already consumed or abandoned it).
  DeliveryStats deliver();

  // Steady-clock time the last deliver() spent splicing sender row `from`
  // into the inboxes: the row's send cost, metered once per flush (0 for a
  // row with nothing to splice).
  [[nodiscard]] std::int64_t rowSpliceNs(PartitionId from) const;

  // Worker p's inbox for the current superstep (valid until next deliver()).
  [[nodiscard]] Inbox& inbox(PartitionId p);

  // Injects messages directly into an inbox as one batch (application inputs
  // and next-timestep messages are seeded this way before superstep 0).
  // Injected traffic is not counted in DeliveryStats.
  void inject(PartitionId to, std::vector<Message> msgs);

  // True if any outbox or inbox still holds messages. O(k) — maintained
  // counters, not a scan of the k² boxes.
  [[nodiscard]] bool anyPending() const;

  void clearAll();

  // Attaches a BSP protocol checker for the duration of a run (nullptr to
  // detach). Coordinator-only, between rounds. Every hook site on the hot
  // path gates on the pointer, so a detached bus pays one null check.
  void attachChecker(check::BspChecker* checker);

  [[nodiscard]] std::uint32_t numPartitions() const {
    return static_cast<std::uint32_t>(inboxes_.size());
  }

 private:
  // One sender's thread-confined state: its k outbox vectors plus the
  // traffic counters it accumulates at send time.
  struct SenderRow {
    std::vector<std::vector<Message>> boxes;  // by destination partition
    // Trace flow id of the batch building in boxes[to] (0 = none). Allocated
    // on the first send into an empty box, handed to the inbox at deliver().
    std::vector<std::uint64_t> flow_ids;
    DeliveryStats stats;
    std::uint64_t pending = 0;
    std::int64_t splice_ns = 0;  // set by the last deliver()
  };

  std::vector<Message> takeSpare();

  std::vector<SenderRow> rows_;
  std::vector<Inbox> inboxes_;
  check::BspChecker* checker_ = nullptr;
  // Spent batch vectors (coordinator-owned); reused as fresh outbox slots so
  // steady-state supersteps allocate nothing.
  std::vector<std::vector<Message>> spares_;

  // MetricsRegistry handles, resolved once at construction so deliver()'s
  // feed is a handful of relaxed atomic adds, not name lookups.
  MetricsRegistry::Counter& m_messages_;
  MetricsRegistry::Counter& m_bytes_;
  MetricsRegistry::Counter& m_xpart_messages_;
  MetricsRegistry::Counter& m_xpart_bytes_;
  MetricsRegistry::Counter& m_batches_;
  MetricsRegistry::Counter& m_spare_hits_;
  MetricsRegistry::Counter& m_spare_misses_;
  Histogram& h_batch_messages_;  // messages per spliced batch
  // Live backlog level for the telemetry sampler: messages sent or injected
  // and not yet drained (outboxes + inboxes). +1 per send (one relaxed RMW
  // on the hot path), -n at the drain/abandon/reset points.
  MetricsRegistry::Gauge& g_inflight_;
};

}  // namespace tsg
