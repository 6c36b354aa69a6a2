// Abstract awaitable block device.
//
// Everything that stores bytes in the system — the simulated NVMe SSD seen
// through one hardware queue, a RAM device for tests/examples, the NVMf
// remote device, a partition view, and the decorators that add software
// cost, retries or crash recording — implements this interface. Every IO
// is one IoCmd handed to submit(), modelled on an NVMe submission queue
// entry; write/read/write_tagged/read_tagged/flush are helpers that build
// the command. Two IO flavors are provided:
//
//  * byte IO (write/read): moves real bytes; used for all metadata
//    (directory files, operation log, state checkpoints) and by tests
//    that verify byte-exact persistence.
//  * tagged IO (write_tagged/read_tagged): timing-identical to byte IO
//    but the content is a deterministic pattern identified by a seed, so
//    simulating a 700 GB checkpoint costs O(extents) host memory. The
//    device derives a per-block tag from (seed, absolute block index);
//    readers verify by recomputing the same combination (see
//    PayloadStore::combine_tags).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"
#include "simcore/task.h"

namespace nvmecr::hw {

/// One device command.
struct IoCmd {
  enum class Op : uint8_t { kWrite, kRead, kFlush };

  Op op = Op::kWrite;
  uint64_t offset = 0;  // relative to the receiving device
  uint64_t len = 0;
  // Payload: byte writes carry write_data, byte reads fill read_out;
  // tagged IO carries neither (reads return the tag through submit()).
  std::span<const std::byte> write_data;
  std::span<std::byte> read_out;
  bool tagged = false;
  uint64_t seed = 0;
  /// Number of host commands this submission stands for (batched tagged
  /// IO): semantically `subcmds` back-to-back equal-share commands over
  /// [offset, offset+len) on the same queue, simulated as one event.
  /// Devices that model per-command costs charge them this many times.
  /// Lets the data plane submit hugeblock-granular IO without one
  /// simulation event per hugeblock.
  uint32_t subcmds = 1;

  /// Trace-span name of the op.
  const char* op_name() const {
    return op == Op::kWrite ? "write" : op == Op::kRead ? "read" : "flush";
  }
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Usable capacity in bytes of this view.
  virtual uint64_t capacity() const = 0;

  /// Hardware block size (tagged IO must be aligned to it).
  virtual uint32_t hw_block_size() const = 0;

  /// Absolute byte offset of this view's origin on the physical medium.
  /// Pattern tags are a function of the *absolute* block index (see
  /// PayloadStore::block_tag), so verifiers above a translated view add
  /// this to their local offsets when computing expected tags.
  virtual uint64_t tag_origin() const { return 0; }

  /// Submits one command and completes when the device acknowledges it.
  /// Tagged reads return the combined tag through `tag`. A flush is a
  /// durability barrier: it completes when previously acknowledged writes
  /// are on stable media (device RAM counts — capacitor-backed, §III-D).
  ///
  /// `cmd` is taken by value: tasks start lazily, so a reference to a
  /// command built by a non-coroutine caller would dangle by the time
  /// the task first runs.
  virtual sim::Task<Status> submit(IoCmd cmd, uint64_t* tag = nullptr) = 0;

  /// Writes real bytes at `offset`.
  sim::Task<Status> write(uint64_t offset, std::span<const std::byte> data) {
    IoCmd cmd;
    cmd.offset = offset;
    cmd.len = data.size();
    cmd.write_data = data;
    return submit(cmd);
  }

  /// Reads real bytes previously written with write().
  sim::Task<Status> read(uint64_t offset, std::span<std::byte> out) {
    IoCmd cmd;
    cmd.op = IoCmd::Op::kRead;
    cmd.offset = offset;
    cmd.len = out.size();
    cmd.read_out = out;
    return submit(cmd);
  }

  /// Writes `len` pattern bytes identified by `seed` (hw-block aligned)
  /// as `subcmds` host commands.
  sim::Task<Status> write_tagged(uint64_t offset, uint64_t len, uint64_t seed,
                                 uint32_t subcmds = 1) {
    return submit(tagged_cmd(IoCmd::Op::kWrite, offset, len, seed, subcmds));
  }

  /// Reads back the combined tag over [offset, offset+len) as `subcmds`
  /// host commands.
  sim::Task<StatusOr<uint64_t>> read_tagged(uint64_t offset, uint64_t len,
                                            uint32_t subcmds = 1) {
    uint64_t tag = 0;
    Status s = co_await submit(
        tagged_cmd(IoCmd::Op::kRead, offset, len, 0, subcmds), &tag);
    if (!s.ok()) co_return StatusOr<uint64_t>(s);
    co_return tag;
  }

  /// Durability barrier (see submit()).
  sim::Task<Status> flush() {
    IoCmd cmd;
    cmd.op = IoCmd::Op::kFlush;
    return submit(cmd);
  }

 private:
  static IoCmd tagged_cmd(IoCmd::Op op, uint64_t offset, uint64_t len,
                          uint64_t seed, uint32_t subcmds) {
    IoCmd cmd;
    cmd.op = op;
    cmd.offset = offset;
    cmd.len = len;
    cmd.tagged = true;
    cmd.seed = seed;
    cmd.subcmds = subcmds;
    return cmd;
  }
};

/// Bounded window [base, base+length) onto another device. Used to hand
/// each microfs instance its private partition of a shared SSD
/// (microfs Principle 2: integrity by partitioning).
class PartitionView final : public BlockDevice {
 public:
  PartitionView(BlockDevice& parent, uint64_t base, uint64_t length)
      : parent_(parent), base_(base), length_(length) {}

  uint64_t capacity() const override { return length_; }
  uint32_t hw_block_size() const override { return parent_.hw_block_size(); }
  uint64_t tag_origin() const override {
    return parent_.tag_origin() + base_;
  }

  // Forwards the parent's task directly: no frame of its own per IO.
  sim::Task<Status> submit(IoCmd cmd, uint64_t* tag = nullptr) override {
    if (cmd.offset + cmd.len > length_) return out_of_range(cmd.offset);
    cmd.offset += base_;
    return parent_.submit(cmd, tag);
  }

  uint64_t base() const { return base_; }

 private:
  static sim::Task<Status> out_of_range(uint64_t offset) {
    co_return InvalidArgumentError("partition IO out of range at offset " +
                                   std::to_string(offset));
  }

  BlockDevice& parent_;
  uint64_t base_;
  uint64_t length_;
};

}  // namespace nvmecr::hw
