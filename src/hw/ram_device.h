// Instant (zero simulated latency) block device backed by a PayloadStore.
//
// Used by microfs unit tests, the quickstart example, crash-state images
// (crashsim), and anywhere real byte-exact storage without a timing model
// is wanted. All awaitables complete without suspending, so a coroutine
// chain over a RamDevice runs to completion the moment it is resumed.
#pragma once

#include "hw/block_device.h"
#include "hw/payload_store.h"

namespace nvmecr::hw {

class RamDevice final : public BlockDevice {
 public:
  explicit RamDevice(uint64_t capacity, uint32_t block_size = 4096)
      : capacity_(capacity), store_(block_size) {}

  uint64_t capacity() const override { return capacity_; }
  uint32_t hw_block_size() const override { return store_.block_size(); }

  sim::Task<Status> submit(IoCmd cmd, uint64_t* tag = nullptr) override {
    if (cmd.op == IoCmd::Op::kFlush) co_return OkStatus();
    const bool is_read = cmd.op == IoCmd::Op::kRead;
    if (cmd.offset + cmd.len > capacity_) {
      co_return InvalidArgumentError(is_read ? "read beyond device end"
                                             : "write beyond device end");
    }
    if (is_read) {
      if (!cmd.tagged) co_return store_.read_bytes(cmd.offset, cmd.read_out);
      auto combined = store_.read_combined_tag(cmd.offset, cmd.len);
      if (!combined.ok()) co_return combined.status();
      if (tag != nullptr) *tag = *combined;
      co_return OkStatus();
    }
    if (cmd.tagged) {
      NVMECR_CO_RETURN_IF_ERROR(
          store_.write_pattern(cmd.offset, cmd.len, cmd.seed));
    } else {
      store_.write_bytes(cmd.offset, cmd.write_data);
    }
    bytes_written_ += cmd.len;
    co_return OkStatus();
  }

  /// Synchronous write hooks for building a device image outside the
  /// simulation (crash-state materialization replays a journal without
  /// spinning up an engine per state). Not counted in bytes_written().
  void write_bytes_raw(uint64_t offset, std::span<const std::byte> data) {
    store_.write_bytes(offset, data);
  }
  Status write_pattern_raw(uint64_t offset, uint64_t len, uint64_t seed) {
    return store_.write_pattern(offset, len, seed);
  }

  uint64_t bytes_written() const { return bytes_written_; }
  const PayloadStore& payload() const { return store_; }

 private:
  uint64_t capacity_;
  PayloadStore store_;
  uint64_t bytes_written_ = 0;
};

}  // namespace nvmecr::hw
