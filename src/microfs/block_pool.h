// Circular hugeblock pool (§III-E "Hugeblocks").
//
// The SSD partition's data region is divided into hugeblocks (32 KiB by
// default, vs the 4 KiB ceiling of kernel filesystems). A circular free
// ring gives O(1) allocation and free, and — critically for recovery —
// *deterministic* allocation order: replaying the operation log re-issues
// the same allocations in the same order and reconstructs the identical
// block assignment (§III-E "Metadata Provenance").
//
// The ring is held as runs of consecutive hugeblocks, so taking or
// returning a file's blocks costs O(runs + bitmap words), not
// O(hugeblocks); the serialized image is still one entry per hugeblock.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/status.h"

namespace nvmecr::microfs {

/// `count` consecutive hugeblocks starting at `start`.
struct BlockRun {
  uint64_t start = 0;
  uint64_t count = 0;

  bool operator==(const BlockRun&) const = default;
};

/// Appends `run` to `runs`, extending the last run when `run` continues
/// it, so a list built only by this call holds maximal runs.
template <typename Runs>
void append_run(Runs& runs, BlockRun run) {
  if (run.count == 0) return;
  if (!runs.empty() && runs.back().start + runs.back().count == run.start) {
    runs.back().count += run.count;
  } else {
    runs.push_back(run);
  }
}

class BlockPool {
 public:
  BlockPool() = default;
  explicit BlockPool(uint64_t block_count) { reset(block_count); }

  /// Re-initializes with all `block_count` blocks free, in index order.
  void reset(uint64_t block_count);

  /// Takes `n` blocks from the ring head, in ring order, and appends them
  /// to `runs` (see append_run). kNoSpace, with nothing changed, when
  /// fewer than `n` are free.
  Status alloc(uint64_t n, std::vector<BlockRun>& runs);

  /// Returns `runs` to the ring tail, in order. All or nothing: a run out
  /// of range is kInvalidArgument, a run holding a free block kInternal,
  /// and either leaves the pool unchanged.
  Status free(std::span<const BlockRun> runs);

  uint64_t free_count() const { return live_; }
  uint64_t total() const { return total_; }
  uint64_t allocated_count() const { return total_ - live_; }
  bool is_allocated(uint64_t block) const {
    return block < total_ && ((bitmap_[block / 64] >> (block % 64)) & 1);
  }

  /// DRAM footprint for Table I. It models the paper's per-hugeblock
  /// metadata (a ring entry and an allocation bit per hugeblock), not the
  /// size of the run queues this class holds.
  size_t memory_footprint() const {
    return total_ * sizeof(uint64_t) + total_ / 8;
  }

  // --- serialization into the internal state checkpoint ---------------
  /// Writes total, head, live, the `total` ring entries in position order
  /// and the allocation bitmap: the image of a flat per-hugeblock ring.
  void serialize(std::vector<std::byte>& out) const;
  /// Restores from `in`; returns bytes consumed or kCorruption.
  StatusOr<size_t> deserialize(std::span<const std::byte> in);

 private:
  /// Whether every block of `run` is allocated (or, for false, free).
  bool all_marked(BlockRun run, bool allocated) const;
  void mark(BlockRun run, bool allocated);

  // The ring read from position head_: first the free window (live_
  // blocks), then the allocated window (total_ - live_ entries), which
  // still holds the blocks last handed out from those positions. alloc
  // moves runs from the front of free_ to the back of handed_out_; free
  // appends to free_ and drops as many entries from handed_out_'s front.
  std::deque<BlockRun> free_;
  std::deque<BlockRun> handed_out_;
  uint64_t head_ = 0;
  uint64_t live_ = 0;
  uint64_t total_ = 0;
  std::vector<uint64_t> bitmap_;  // bit b of word w: block 64w+b allocated
};

}  // namespace nvmecr::microfs
