// Circular hugeblock pool (§III-E "Hugeblocks").
//
// The SSD partition's data region is divided into hugeblocks (32 KiB by
// default, vs the 4 KiB ceiling of kernel filesystems). A circular free
// ring gives O(1) allocation and free, and — critically for recovery —
// *deterministic* allocation order: replaying the operation log re-issues
// the same allocations in the same order and reconstructs the identical
// block assignment (§III-E "Metadata Provenance").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace nvmecr::microfs {

class BlockPool {
 public:
  BlockPool() = default;
  explicit BlockPool(uint64_t block_count) { reset(block_count); }

  /// Re-initializes with all `block_count` blocks free, in index order.
  void reset(uint64_t block_count) {
    ring_.resize(block_count);
    for (uint64_t i = 0; i < block_count; ++i) ring_[i] = i;
    head_ = 0;
    live_ = block_count;
    total_ = block_count;
    allocated_.assign(block_count, false);
  }

  /// O(1) allocation from the ring head.
  StatusOr<uint64_t> alloc() {
    if (live_ == 0) return NoSpaceError("hugeblock pool exhausted");
    const uint64_t block = ring_[head_];
    if (++head_ == total_) head_ = 0;
    --live_;
    NVMECR_CHECK(!allocated_[block]);
    allocated_[block] = true;
    return block;
  }

  /// O(1) free to the ring tail.
  Status free(uint64_t block) {
    if (block >= total_) return InvalidArgumentError("block out of range");
    if (!allocated_[block]) return InternalError("double free of hugeblock");
    allocated_[block] = false;
    // head_ < total_ and live_ < total_ (`block` was allocated), so one
    // subtraction wraps the tail index.
    uint64_t tail = head_ + live_;
    if (tail >= total_) tail -= total_;
    ring_[tail] = block;
    ++live_;
    return OkStatus();
  }

  uint64_t free_count() const { return live_; }
  uint64_t total() const { return total_; }
  uint64_t allocated_count() const { return total_ - live_; }
  bool is_allocated(uint64_t block) const {
    return block < total_ && allocated_[block];
  }

  /// Approximate DRAM footprint (Table I accounting).
  size_t memory_footprint() const {
    return ring_.size() * sizeof(uint64_t) + allocated_.size() / 8;
  }

  // --- serialization into the internal state checkpoint ---------------
  void serialize(std::vector<std::byte>& out) const;
  /// Restores from `in`; returns bytes consumed or kCorruption.
  StatusOr<size_t> deserialize(std::span<const std::byte> in);

 private:
  std::vector<uint64_t> ring_;  // [head_, head_+live_) mod total_ = free
  uint64_t head_ = 0;
  uint64_t live_ = 0;
  uint64_t total_ = 0;
  std::vector<bool> allocated_;
};

}  // namespace nvmecr::microfs
