#include "crashsim/recorder.h"

#include <algorithm>

namespace nvmecr::crashsim {

sim::Task<Status> RecordingDevice::submit(hw::IoCmd cmd, uint64_t* tag) {
  Status s = co_await inner_.submit(cmd, tag);
  if (!s.ok() || cmd.op == hw::IoCmd::Op::kRead) co_return s;
  if (cmd.op == hw::IoCmd::Op::kWrite) {
    Mutation m;
    m.offset = cmd.offset;
    m.len = cmd.len;
    m.is_pattern = cmd.tagged;
    m.seed = cmd.seed;
    m.bytes.assign(cmd.write_data.begin(), cmd.write_data.end());
    journal_.push_back(std::move(m));
  }
  boundaries_.push_back({cmd.op == hw::IoCmd::Op::kWrite ? BoundaryKind::kWrite
                                                         : BoundaryKind::kFlush,
                         journal_.size()});
  co_return s;
}

uint64_t RecordingDevice::last_mutation_sectors(const Boundary& b) const {
  if (b.mutations == 0) return 0;
  const Mutation& m = journal_[b.mutations - 1];
  if (m.len == 0) return 0;
  const uint64_t bs = hw_block_size();
  const uint64_t first = m.offset / bs;
  const uint64_t last = (m.offset + m.len - 1) / bs;
  return last - first + 1;
}

std::unique_ptr<hw::RamDevice> RecordingDevice::materialize(
    const Boundary& boundary, uint64_t torn_sectors) const {
  // Pattern tags are a function of the absolute block index, and the
  // image stores at the recorded device's local offsets.
  NVMECR_CHECK(tag_origin() == 0);
  auto img = std::make_unique<hw::RamDevice>(capacity(), hw_block_size());
  const size_t full = (torn_sectors > 0 && boundary.mutations > 0)
                          ? boundary.mutations - 1
                          : boundary.mutations;
  auto apply = [&img](const Mutation& m, uint64_t len) {
    if (len == 0) return;
    if (m.is_pattern) {
      // Pattern extents are block-aligned by construction; a torn
      // prefix is re-aligned down by the caller.
      (void)img->write_pattern_raw(m.offset, len, m.seed);
    } else {
      img->write_bytes_raw(
          m.offset, std::span<const std::byte>(m.bytes.data(), len));
    }
  };
  for (size_t i = 0; i < full; ++i) apply(journal_[i], journal_[i].len);
  if (torn_sectors > 0 && boundary.mutations > 0) {
    const Mutation& m = journal_[boundary.mutations - 1];
    const uint64_t bs = hw_block_size();
    // The first `torn_sectors` hardware sectors the command touches made
    // it to the medium. For a command starting mid-sector the first
    // "sector" is the sub-sector head fragment.
    const uint64_t head = std::min<uint64_t>(
        m.len, bs - (m.offset % bs) + (torn_sectors - 1) * bs);
    uint64_t durable = head;
    if (m.is_pattern) {
      // Pattern writes are block-aligned; keep the torn prefix aligned
      // too (a half-written pattern sector reads as garbage either way,
      // and the store cannot represent partial pattern blocks).
      durable = (durable / bs) * bs;
    }
    apply(m, durable);
  }
  return img;
}

}  // namespace nvmecr::crashsim
