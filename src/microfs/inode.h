// Inodes and the DRAM inode table (§III-E "POSIX Semantics", "Metadata
// Provenance": metadata lives entirely in compute-node DRAM; durability
// comes from the operation log, not from writing inodes to the device).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "microfs/block_pool.h"
#include "microfs/codec.h"

namespace nvmecr::microfs {

using Ino = uint64_t;
inline constexpr Ino kRootIno = 1;
inline constexpr Ino kInvalidIno = 0;

enum class InodeType : uint8_t { kFile = 0, kDirectory = 1 };

/// What kind of payload a file holds; byte and tagged IO cannot mix
/// within one file (tagged content is pattern-defined, see PayloadStore).
enum class ContentKind : uint8_t { kNone = 0, kBytes = 1, kTagged = 2 };

/// A file's hugeblock map: file hugeblock i lives in device hugeblock
/// at(i). Held as maximal runs of consecutive device hugeblocks, in file
/// order, each with its end in file hugeblocks, so growing and releasing
/// the map cost O(runs) and finding a hugeblock's run O(log runs).
class BlockMap {
 public:
  /// Hugeblocks mapped.
  uint64_t size() const { return ends_.empty() ? 0 : ends_.back(); }
  const std::vector<BlockRun>& runs() const { return runs_; }
  /// Index of the run holding file hugeblock `hb` (< size()).
  size_t run_of(uint64_t hb) const {
    return static_cast<size_t>(
        std::upper_bound(ends_.begin(), ends_.end(), hb) - ends_.begin());
  }
  /// File hugeblocks [run_begin(r), run_end(r)) live in run `r`.
  uint64_t run_begin(size_t r) const { return r == 0 ? 0 : ends_[r - 1]; }
  uint64_t run_end(size_t r) const { return ends_[r]; }
  /// Device hugeblock holding file hugeblock `hb` (< size()).
  uint64_t at(uint64_t hb) const {
    const size_t r = run_of(hb);
    return runs_[r].start + (hb - run_begin(r));
  }

  /// Maps `n` more hugeblocks taken from `pool`'s head. On kNoSpace
  /// neither the pool nor the map has changed.
  Status grow(BlockPool& pool, uint64_t n) {
    const uint64_t have = size();
    const size_t old_runs = runs_.size();
    NVMECR_RETURN_IF_ERROR(pool.alloc(n, runs_));
    if (have + n > slots_) slots_ = std::max(have + n, 2 * have);
    sync_ends(old_runs);
    return OkStatus();
  }
  /// Returns every hugeblock to `pool` in map order and empties the map;
  /// all or nothing. The slots stay, as a cleared vector's capacity did.
  Status release(BlockPool& pool) {
    NVMECR_RETURN_IF_ERROR(pool.free(runs_));
    runs_.clear();
    ends_.clear();
    return OkStatus();
  }
  /// Maps one more hugeblock, `block` (decoding and tests).
  void push_back(uint64_t block) {
    const size_t old_runs = runs_.size();
    append_run(runs_, {block, 1});
    sync_ends(old_runs);
  }

  /// Table I models the paper's per-hugeblock map: this many 8-byte
  /// slots, grown as a std::vector<uint64_t> resized to the mapped count
  /// grows (on overflow to max(needed, 2 * mapped)). It is not the size
  /// of the run lists.
  uint64_t slots() const { return slots_; }

  /// Writes the block count and every block index, one per hugeblock.
  void serialize(Encoder& enc) const {
    enc.u64(size());
    for (const BlockRun& run : runs_) enc.u64_run(run.start, run.count);
  }
  Status deserialize(Decoder& dec) {
    uint64_t nblocks = 0;
    NVMECR_RETURN_IF_ERROR(dec.u64(nblocks));
    // The count comes from the device: bound it by the buffer first.
    if (nblocks > dec.remaining() / 8) {
      return CorruptionError("inode block map overruns buffer");
    }
    *this = BlockMap();
    for (uint64_t i = 0; i < nblocks; ++i) {
      uint64_t block = 0;
      NVMECR_RETURN_IF_ERROR(dec.u64(block));
      push_back(block);
    }
    slots_ = nblocks;
    return OkStatus();
  }

 private:
  /// Brings ends_ up to date after runs were appended to a map of
  /// `old_runs` runs (its last run may have grown).
  void sync_ends(size_t old_runs) {
    ends_.resize(runs_.size());
    for (size_t r = old_runs == 0 ? 0 : old_runs - 1; r < runs_.size(); ++r) {
      ends_[r] = run_begin(r) + runs_[r].count;
    }
  }

  std::vector<BlockRun> runs_;
  std::vector<uint64_t> ends_;
  uint64_t slots_ = 0;
};

struct Inode {
  Ino ino = kInvalidIno;
  InodeType type = InodeType::kFile;
  uint32_t mode = 0644;
  uint32_t uid = 0;
  uint64_t size = 0;
  /// Pattern seed for tagged content (whole-file identity).
  uint64_t seed = 0;
  ContentKind content = ContentKind::kNone;
  /// Hugeblocks, one per hugeblock_size of file extent.
  BlockMap blocks;

  void serialize(Encoder& enc) const {
    enc.u64(ino);
    enc.u8(static_cast<uint8_t>(type));
    enc.u32(mode);
    enc.u32(uid);
    enc.u64(size);
    enc.u64(seed);
    enc.u8(static_cast<uint8_t>(content));
    blocks.serialize(enc);
  }

  Status deserialize(Decoder& dec) {
    uint8_t t = 0, c = 0;
    NVMECR_RETURN_IF_ERROR(dec.u64(ino));
    NVMECR_RETURN_IF_ERROR(dec.u8(t));
    NVMECR_RETURN_IF_ERROR(dec.u32(mode));
    NVMECR_RETURN_IF_ERROR(dec.u32(uid));
    NVMECR_RETURN_IF_ERROR(dec.u64(size));
    NVMECR_RETURN_IF_ERROR(dec.u64(seed));
    NVMECR_RETURN_IF_ERROR(dec.u8(c));
    if (t > 1 || c > 2) return CorruptionError("bad inode enums");
    type = static_cast<InodeType>(t);
    content = static_cast<ContentKind>(c);
    return blocks.deserialize(dec);
  }
};

/// DRAM inode table with deterministic id assignment (replay-stable).
class InodeTable {
 public:
  /// Allocates the next inode number and default-initializes the inode.
  Inode& alloc(InodeType type) {
    const Ino ino = next_ino_++;
    Inode& inode = inodes_[ino];
    inode.ino = ino;
    inode.type = type;
    return inode;
  }

  /// Inserts an inode with a specific id (log replay path). The id must
  /// be unused; next_ino advances past it.
  StatusOr<Inode*> insert_with_ino(Ino ino, InodeType type) {
    auto [it, inserted] = inodes_.try_emplace(ino);
    if (!inserted) return CorruptionError("duplicate ino in replay");
    it->second.ino = ino;
    it->second.type = type;
    if (ino >= next_ino_) next_ino_ = ino + 1;
    return &it->second;
  }

  Inode* get(Ino ino) {
    auto it = inodes_.find(ino);
    return it == inodes_.end() ? nullptr : &it->second;
  }
  const Inode* get(Ino ino) const {
    auto it = inodes_.find(ino);
    return it == inodes_.end() ? nullptr : &it->second;
  }

  Status free(Ino ino) {
    return inodes_.erase(ino) > 0 ? OkStatus()
                                  : NotFoundError("no such inode");
  }

  size_t count() const { return inodes_.size(); }
  Ino next_ino() const { return next_ino_; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [ino, inode] : inodes_) fn(inode);
  }

  /// DRAM footprint for Table I. It models the paper's inode, whose block
  /// map is a per-hugeblock array (BlockMap::slots), not the size of the
  /// run lists held here.
  size_t memory_footprint() const {
    constexpr size_t kInodeBytes =
        sizeof(Inode) - sizeof(BlockMap) + sizeof(std::vector<uint64_t>);
    size_t bytes = inodes_.size() * (kInodeBytes + 48 /* map node */);
    for (const auto& [ino, inode] : inodes_) {
      bytes += inode.blocks.slots() * sizeof(uint64_t);
    }
    return bytes;
  }

  void serialize(std::vector<std::byte>& out) const {
    Encoder enc(out);
    enc.u64(next_ino_);
    enc.u64(inodes_.size());
    for (const auto& [ino, inode] : inodes_) inode.serialize(enc);
  }

  StatusOr<size_t> deserialize(std::span<const std::byte> in) {
    Decoder dec(in);
    uint64_t next = 0, count = 0;
    NVMECR_RETURN_IF_ERROR(dec.u64(next));
    NVMECR_RETURN_IF_ERROR(dec.u64(count));
    inodes_.clear();
    for (uint64_t i = 0; i < count; ++i) {
      Inode inode;
      NVMECR_RETURN_IF_ERROR(inode.deserialize(dec));
      inodes_.emplace(inode.ino, std::move(inode));
    }
    next_ino_ = next;
    return dec.consumed();
  }

  void clear() {
    inodes_.clear();
    next_ino_ = kRootIno;
  }

 private:
  std::map<Ino, Inode> inodes_;
  Ino next_ino_ = kRootIno;
};

}  // namespace nvmecr::microfs
