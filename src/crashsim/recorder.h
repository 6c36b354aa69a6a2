// Persistence-boundary recorder: a BlockDevice interposer that journals
// every successful mutation and marks every point where the hardware
// state could be frozen by a crash.
//
// A *boundary* is a moment at which power loss yields a well-defined
// device state: the completion of a write command (all content of that
// command durable — the simulated SSD's RAM is capacitor-backed, so
// acknowledged means durable), the completion of a flush, and queue
// teardown. Between two boundaries the only additional states are the
// *torn* variants of the in-flight write: an arbitrary prefix of its
// hardware sectors made it to the medium, the rest did not. The recorder
// captures enough to reconstruct every one of those states:
//
//   journal:   ordered list of successful mutations (bytes or pattern)
//   boundaries: (kind, #mutations durable at that point)
//
// materialize(b, torn) replays mutations [0, b.mutations) into a fresh
// RamDevice image; a nonzero `torn` instead replays [0, b.mutations-1) fully
// plus only the first `torn` hardware sectors of the last one — the
// state "the crash hit mid-command". The explorer (explore.h) walks all
// of these and runs recovery + fsck on each.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/block_device.h"
#include "hw/ram_device.h"

namespace nvmecr::crashsim {

enum class BoundaryKind : uint8_t {
  kWrite = 1,     // a write command completed
  kFlush = 2,     // a durability barrier completed
  kTeardown = 3,  // the queue was torn down cleanly (end of recording)
};

struct Boundary {
  BoundaryKind kind = BoundaryKind::kWrite;
  /// Number of journal mutations durable at this point.
  size_t mutations = 0;
};

class RecordingDevice final : public hw::BlockDevice {
 public:
  explicit RecordingDevice(hw::BlockDevice& inner) : inner_(inner) {}

  uint64_t capacity() const override { return inner_.capacity(); }
  uint32_t hw_block_size() const override { return inner_.hw_block_size(); }
  uint64_t tag_origin() const override { return inner_.tag_origin(); }

  /// Forwards `cmd`; a successful write is journaled as one mutation
  /// with one kWrite boundary (a batch is a single simulated completion —
  /// partial states are covered by the torn variants), a successful flush
  /// adds a kFlush boundary, and reads record nothing.
  sim::Task<Status> submit(hw::IoCmd cmd, uint64_t* tag = nullptr) override;

  /// Marks the clean end of the recorded run (close of the workload).
  void record_teardown() {
    boundaries_.push_back({BoundaryKind::kTeardown, journal_.size()});
  }

  const std::vector<Boundary>& boundaries() const { return boundaries_; }
  size_t journal_size() const { return journal_.size(); }

  /// Hardware sectors the boundary's last mutation spans (0 for a
  /// zero-length write); tearing is only meaningful for boundaries whose
  /// final write covers > 1 sector.
  uint64_t last_mutation_sectors(const Boundary& b) const;

  /// Device state at `boundary`, optionally torn: `torn_sectors` > 0
  /// replays only the first `torn_sectors` hardware sectors of the
  /// boundary's final mutation (must be < last_mutation_sectors).
  /// The image has the recorded device's geometry; the recorded device
  /// must have tag_origin() == 0 (checked), so device-side pattern
  /// verification of the image sees the same absolute blocks.
  std::unique_ptr<hw::RamDevice> materialize(const Boundary& boundary,
                                             uint64_t torn_sectors = 0) const;

 private:
  struct Mutation {
    uint64_t offset = 0;  // device-local offset
    uint64_t len = 0;
    bool is_pattern = false;
    uint64_t seed = 0;                // pattern mutations
    std::vector<std::byte> bytes;     // byte mutations (bytes.size() == len)
  };

  hw::BlockDevice& inner_;
  std::vector<Mutation> journal_;
  std::vector<Boundary> boundaries_;
};

}  // namespace nvmecr::crashsim
