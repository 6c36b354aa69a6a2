// Sparse content store backing simulated devices.
//
// Stores an ordered interval map of extents. An extent is either real
// bytes (metadata, small test data) or a pattern seed (bulk checkpoint
// payload). Overlapping writes split/trim older extents exactly like a
// physical medium would overwrite sectors; adjacent same-seed extents
// merge so a sequentially written checkpoint file costs one map entry.
//
// Host cost (DESIGN.md §11):
// - A pattern write that starts inside or at the end of an extent of its
//   own seed grows that extent in place: it erases the extents it fully
//   covers and re-keys the one it ends inside, allocating no map node.
//   A per-store table remembers the extent each seed last grew (indexed
//   by the seed's low bits), so a stream's next write needs no tree
//   descent. Every other write carves the overlap and inserts a node.
// - Pattern block tags form a geometric sequence per seed, so the tag of
//   a block range costs O(log n) multiplications, not one hash per block.
// - bytes_stored() is maintained incrementally.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/status.h"

namespace nvmecr::hw {

class PayloadStore {
 public:
  explicit PayloadStore(uint32_t block_size) : block_size_(block_size) {}

  // The seed table holds iterators into this store's map; a copy or a
  // move would leave them pointing into another map.
  PayloadStore(const PayloadStore&) = delete;
  PayloadStore& operator=(const PayloadStore&) = delete;

  /// Stores real bytes at [offset, offset+data.size()).
  void write_bytes(uint64_t offset, std::span<const std::byte> data);

  /// Reads real bytes. Unwritten gaps read as zero. Reading a region held
  /// by a pattern extent is a usage error and returns kCorruption.
  Status read_bytes(uint64_t offset, std::span<std::byte> out) const;

  /// Stores a pattern extent: conceptual content of each covered hardware
  /// block i is pattern(seed, i). Offset and len must be block-aligned.
  Status write_pattern(uint64_t offset, uint64_t len, uint64_t seed);

  /// Combined tag over [offset, offset+len): the wrapping sum of each
  /// covered block's tag. Pattern blocks contribute block_tag(seed, idx);
  /// real-byte blocks contribute the FNV-1a of their contents; unwritten
  /// blocks contribute 0. Offset/len must be block-aligned.
  StatusOr<uint64_t> read_combined_tag(uint64_t offset, uint64_t len) const;

  /// The per-block tag a pattern write produces: h(seed)·r^block_index
  /// mod 2^64, with h(seed) = mix64(seed) | 1 and a fixed odd ratio r.
  /// Exposed so workloads can precompute the tag they expect to read back.
  static uint64_t block_tag(uint64_t seed, uint64_t block_index);

  /// Expected combined tag for a pattern extent (what read_combined_tag
  /// returns if [offset, offset+len) is covered by `seed` pattern data).
  /// O(log) in the block count.
  static uint64_t expected_tag(uint64_t seed, uint64_t offset, uint64_t len,
                               uint32_t block_size);

  /// Total bytes currently represented (real + pattern). O(1).
  uint64_t bytes_stored() const { return total_bytes_; }

  /// Number of extents (memory-footprint observability; merging keeps
  /// this small for sequential workloads).
  size_t extent_count() const { return extents_.size(); }

  /// Total read_combined_tag calls (exported as payload.tag_reads).
  uint64_t tag_reads() const { return tag_reads_; }

  /// Drops all content (device reformat).
  void clear() {
    extents_.clear();
    seed_hints_.clear();
    total_bytes_ = 0;
  }

  uint32_t block_size() const { return block_size_; }

 private:
  struct Extent {
    uint64_t len = 0;
    // Exactly one of: pattern extent (is_pattern) with `seed`, or real
    // bytes in `bytes` (bytes.size() == len).
    bool is_pattern = false;
    uint64_t seed = 0;
    std::vector<std::byte> bytes;
  };

  using ExtentMap = std::map<uint64_t, Extent>;  // key: start offset
  using Iter = ExtentMap::iterator;

  /// First extent starting after `offset` (upper_bound), in O(1) when
  /// `offset` lies at or past the end of the last extent.
  Iter upper(uint64_t offset);

  /// First extent that ends after `offset`.
  ExtentMap::const_iterator first_overlap(uint64_t offset) const;

  /// Removes/overwrite-trims everything intersecting [start, start+len),
  /// where `ub` is upper(start). Returns the position where a new extent
  /// at `start` belongs, usable as an insertion hint.
  Iter carve(Iter ub, uint64_t start, uint64_t len);

  /// Inserts at `hint` (from carve()) and merges with neighbors when
  /// possible. Returns the extent that now holds [start, ...).
  Iter insert_extent(Iter hint, uint64_t start, Extent e);

  /// Extends same-seed pattern extent `it` to end at `end`: erases the
  /// extents the growth fully covers, trims the head of the one it ends
  /// inside and absorbs a same-seed successor. Allocates nothing.
  void grow(Iter it, uint64_t end);

  /// Moves extent `it`'s start forward to `new_start`, dropping its head,
  /// by re-keying its node (no allocation). Returns the moved extent.
  Iter trim_head(Iter it, uint64_t new_start);

  /// Erases `it` (clearing a seed-table slot that points at it); returns
  /// the next extent.
  Iter erase(Iter it);

  /// The seed table's guess for `seed`'s stream, or end().
  Iter hinted(uint64_t seed);

  /// Records `it` as the extent its seed last grew, first sizing the
  /// table to the store.
  void remember(Iter it);

  /// Clears the seed-table slot that points at `it`, if any.
  void forget(Iter it);

  /// Combined tag of extent `e` (starting at `e_start`) restricted to
  /// [ov_start, ov_end), which must lie within the extent.
  uint64_t tag_of_range(uint64_t e_start, const Extent& e, uint64_t ov_start,
                        uint64_t ov_end) const;

  static bool mergeable(uint64_t a_start, const Extent& a, uint64_t b_start,
                        const Extent& b);

  uint32_t block_size_;
  ExtentMap extents_;
  /// Seed table: slot (seed & (size - 1)) holds the pattern extent that
  /// seed last grew, or end(). Empty until the first pattern write; grows
  /// with the store up to 4,096 slots.
  std::vector<Iter> seed_hints_;
  uint64_t total_bytes_ = 0;
  mutable uint64_t tag_reads_ = 0;
};

}  // namespace nvmecr::hw
