#include "runtime/ready_tracker.h"

#include "common/status.h"

namespace tsg {

ReadyTracker::ReadyTracker(std::int32_t num_partitions)
    : num_partitions_(num_partitions),
      pending_(static_cast<std::size_t>(num_partitions), 0),
      halted_(static_cast<std::size_t>(num_partitions), 0) {
  TSG_CHECK(num_partitions > 0);
}

void ReadyTracker::beginTimestep() {
  wave_ = 0;
  pending_.assign(pending_.size(), 0);
  halted_.assign(halted_.size(), 0);
}

void ReadyTracker::recordDelivery(PartitionId to, std::uint64_t messages) {
  TSG_CHECK(to < static_cast<PartitionId>(num_partitions_));
  pending_[static_cast<std::size_t>(to)] += messages;
}

void ReadyTracker::recordQuiesce(PartitionId p, bool halted) {
  TSG_CHECK(p < static_cast<PartitionId>(num_partitions_));
  halted_[static_cast<std::size_t>(p)] = halted ? 1 : 0;
}

std::vector<PartitionId> ReadyTracker::advance() {
  ++wave_;
  std::vector<PartitionId> eligible;
  eligible.reserve(pending_.size());
  for (std::int32_t p = 0; p < num_partitions_; ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (pending_[i] > 0 || halted_[i] == 0) {
      eligible.push_back(p);
    } else {
      ++skipped_;
    }
  }
  pending_.assign(pending_.size(), 0);
  return eligible;
}

bool ReadyTracker::terminated() const {
  for (std::int32_t p = 0; p < num_partitions_; ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (pending_[i] > 0 || halted_[i] == 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t ReadyTracker::pendingMessages(PartitionId p) const {
  TSG_CHECK(p < static_cast<PartitionId>(num_partitions_));
  return pending_[static_cast<std::size_t>(p)];
}

}  // namespace tsg
