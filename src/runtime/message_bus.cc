#include "runtime/message_bus.h"

#include <algorithm>

#include "check/bsp_checker.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace tsg {

MessageBus::MessageBus(std::uint32_t num_partitions)
    : rows_(num_partitions),
      inboxes_(num_partitions),
      m_messages_(MetricsRegistry::global().counter("bus.messages_delivered")),
      m_bytes_(MetricsRegistry::global().counter("bus.bytes_delivered")),
      m_xpart_messages_(
          MetricsRegistry::global().counter("bus.cross_partition_messages")),
      m_xpart_bytes_(
          MetricsRegistry::global().counter("bus.cross_partition_bytes")),
      m_batches_(MetricsRegistry::global().counter("bus.batches_spliced")),
      m_spare_hits_(MetricsRegistry::global().counter("bus.spare_pool_hits")),
      m_spare_misses_(
          MetricsRegistry::global().counter("bus.spare_pool_misses")),
      h_batch_messages_(
          MetricsRegistry::global().histogram("bus.batch_messages")),
      g_inflight_(MetricsRegistry::global().gauge("bus.inflight_messages")) {
  TSG_CHECK(num_partitions > 0);
  for (auto& row : rows_) {
    row.boxes.resize(num_partitions);
    row.flow_ids.resize(num_partitions, 0);
  }
  for (auto& inbox : inboxes_) {
    inbox.inflight_ = &g_inflight_;
  }
  // Pre-warm the spare pool to one vector per partition: the first
  // deliver() splices batches before any inbox vector has been recycled,
  // so a cold pool would record one miss per initial batch (3 at run start
  // in the k=4 baseline). The vectors are empty — only the pool slots are
  // warm — so this costs k empty vectors, not memory.
  spares_.resize(num_partitions);
}

// tsg:hot — per-message fast path; called once per edge activation.
void MessageBus::send(PartitionId from, PartitionId to, Message msg) {
  TSG_CHECK(from < rows_.size());
  TSG_CHECK(to < rows_.size());
  auto& row = rows_[from];
  const std::uint64_t size = msg.byteSize();
  if (checker_ != nullptr) {
    checker_->onSend(from, to, size);
  }
  ++row.stats.messages;
  row.stats.bytes += size;
  if (from != to) {
    ++row.stats.cross_partition_messages;
    row.stats.cross_partition_bytes += size;
  }
  ++row.pending;
  g_inflight_.add(1);
  auto& box = row.boxes[to];
  // First message into an empty box opens the batch: start its trace flow
  // here on the sending thread, so the viewer can draw send → deliver →
  // drain arrows. Per-batch, not per-message — the hot path stays at one
  // relaxed load and a branch when tracing is off.
  if (box.empty() && Tracer::enabled()) {
    row.flow_ids[to] = nextFlowId();
    traceFlowStart("bus", "bus.batch", row.flow_ids[to]);
  }
  box.push_back(std::move(msg));
}

std::vector<Message> MessageBus::takeSpare() {
  if (spares_.empty()) {
    m_spare_misses_.increment();
    return {};
  }
  m_spare_hits_.increment();
  auto spare = std::move(spares_.back());
  spares_.pop_back();
  return spare;
}

MessageBus::DeliveryStats MessageBus::deliver() {
  TraceSpan span("bus", "bus.deliver");
  // Tally what still sits undrained before the recycle destroys the
  // evidence: abandoned traffic breaks conservation (checker) and must come
  // off the in-flight level (telemetry). O(k) either way.
  std::uint64_t leftover_messages = 0;
  std::uint64_t leftover_flow = 0;
  for (auto& inbox : inboxes_) {
    leftover_messages += inbox.total_;
    if (checker_ != nullptr && leftover_flow == 0) {
      for (const std::uint64_t f : inbox.flow_ids_) {
        if (f != 0 && inbox.total_ != 0) {
          leftover_flow = f;
          break;
        }
      }
    }
  }
  if (leftover_messages != 0) {
    g_inflight_.add(-static_cast<std::int64_t>(leftover_messages));
  }
  // Recycle last superstep's batch vectors (consumed or abandoned alike).
  // Abandoned batches drop their flow ids without a finish event: the arrow
  // simply ends at its last observed hand-off, which is the truth.
  for (auto& inbox : inboxes_) {
    for (auto& batch : inbox.batches_) {
      batch.clear();
      spares_.push_back(std::move(batch));
    }
    inbox.batches_.clear();
    inbox.flow_ids_.clear();
    inbox.total_ = 0;
  }

  DeliveryStats stats;
  std::uint64_t batches = 0;
  for (PartitionId from = 0; from < rows_.size(); ++from) {
    auto& row = rows_[from];
    row.splice_ns = 0;
    if (row.pending == 0) {
      continue;
    }
    const std::int64_t splice_start = steadyNowNs();
    for (PartitionId to = 0; to < row.boxes.size(); ++to) {
      auto& box = row.boxes[to];
      if (box.empty()) {
        continue;
      }
      auto& inbox = inboxes_[to];
      h_batch_messages_.record(box.size());
      const std::uint64_t flow_id = row.flow_ids[to];
      row.flow_ids[to] = 0;
      if (flow_id != 0) {
        traceFlowStep("bus", "bus.batch", flow_id);
      }
      inbox.total_ += box.size();
      inbox.batches_.push_back(std::move(box));
      inbox.flow_ids_.push_back(flow_id);
      box = takeSpare();
      ++batches;
    }
    stats.messages += row.stats.messages;
    stats.bytes += row.stats.bytes;
    stats.cross_partition_messages += row.stats.cross_partition_messages;
    stats.cross_partition_bytes += row.stats.cross_partition_bytes;
    row.stats = DeliveryStats{};
    row.pending = 0;
    row.splice_ns = steadyNowNs() - splice_start;
  }
  m_messages_.add(stats.messages);
  m_bytes_.add(stats.bytes);
  m_xpart_messages_.add(stats.cross_partition_messages);
  m_xpart_bytes_.add(stats.cross_partition_bytes);
  m_batches_.add(batches);
  if (checker_ != nullptr) {
    // Stamp the freshly spliced inboxes with *when* they were delivered —
    // the current superstep — so the consuming side can prove it only reads
    // strictly-earlier batches.
    for (auto& inbox : inboxes_) {
      inbox.stamp_t_ = checker_->timestep();
      inbox.stamp_s_ = checker_->superstep();
    }
    checker_->onDeliver(stats.messages, stats.bytes, leftover_messages,
                        leftover_flow);
  }
  return stats;
}

std::int64_t MessageBus::rowSpliceNs(PartitionId from) const {
  TSG_CHECK(from < rows_.size());
  return rows_[from].splice_ns;
}

MessageBus::Inbox& MessageBus::inbox(PartitionId p) {
  TSG_CHECK(p < inboxes_.size());
  return inboxes_[p];
}

void MessageBus::inject(PartitionId to, std::vector<Message> msgs) {
  TSG_CHECK(to < inboxes_.size());
  if (msgs.empty()) {
    return;
  }
  auto& inbox = inboxes_[to];
  if (checker_ != nullptr) {
    std::uint64_t bytes = 0;
    for (const auto& m : msgs) {
      bytes += m.byteSize();
    }
    checker_->onInject(msgs.size(), bytes);
    // Injection happens before superstep 0: stamp as superstep -1 so the
    // first round is allowed to consume it.
    inbox.stamp_t_ = checker_->timestep();
    inbox.stamp_s_ = -1;
  }
  g_inflight_.add(static_cast<std::int64_t>(msgs.size()));
  inbox.total_ += msgs.size();
  inbox.batches_.push_back(std::move(msgs));
  inbox.flow_ids_.push_back(0);  // seeds have no send-side flow
}

// tsg:hot — runs on the worker thread at the top of every round.
void MessageBus::Inbox::clear() {
  std::uint64_t drained_flow = 0;
  for (std::size_t i = 0; i < batches_.size(); ++i) {
    if (i < flow_ids_.size() && flow_ids_[i] != 0) {
      if (drained_flow == 0) {
        drained_flow = flow_ids_[i];
      }
      if (Tracer::enabled()) {
        traceFlowFinish("bus", "bus.batch", flow_ids_[i]);
      }
      flow_ids_[i] = 0;
    }
    batches_[i].clear();
  }
  if (checker_ != nullptr && total_ != 0) {
    checker_->onConsume(owner_, total_, stamp_t_, stamp_s_, drained_flow);
  }
  if (inflight_ != nullptr && total_ != 0) {
    inflight_->add(-static_cast<std::int64_t>(total_));
  }
  total_ = 0;
}

bool MessageBus::anyPending() const {
  for (const auto& row : rows_) {
    if (row.pending != 0) {
      return true;
    }
  }
  for (const auto& inbox : inboxes_) {
    if (inbox.total_ != 0) {
      return true;
    }
  }
  return false;
}

void MessageBus::clearAll() {
  std::int64_t discarded = 0;
  for (auto& row : rows_) {
    discarded += static_cast<std::int64_t>(row.pending);
    for (auto& box : row.boxes) {
      box.clear();
    }
    std::fill(row.flow_ids.begin(), row.flow_ids.end(), 0);
    row.stats = DeliveryStats{};
    row.pending = 0;
  }
  for (auto& inbox : inboxes_) {
    discarded += static_cast<std::int64_t>(inbox.total_);
  }
  if (discarded != 0) {
    g_inflight_.add(-discarded);
  }
  for (auto& inbox : inboxes_) {
    for (auto& batch : inbox.batches_) {
      batch.clear();
      spares_.push_back(std::move(batch));
    }
    inbox.batches_.clear();
    inbox.flow_ids_.clear();
    inbox.total_ = 0;
  }
  if (checker_ != nullptr) {
    // A fabric reset (superstep-cap abort) legitimately drops traffic in
    // flight; forgive the accounting rather than report phantom losses.
    checker_->onReset();
  }
}

void MessageBus::attachChecker(check::BspChecker* checker) {
  checker_ = checker;
  for (PartitionId p = 0; p < inboxes_.size(); ++p) {
    inboxes_[p].checker_ = checker;
    inboxes_[p].owner_ = p;
    inboxes_[p].stamp_t_ = -1;
    inboxes_[p].stamp_s_ = -1;
  }
}

}  // namespace tsg
