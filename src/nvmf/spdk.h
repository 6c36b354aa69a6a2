// SPDK-style local userspace NVMe driver (the "SPDK" series of Figure
// 7(c)): unprivileged direct device access via vfio-like mapping. In the
// model this is a thin ownership wrapper — a dedicated hardware queue,
// run-to-completion polling (no interrupt cost), and a sub-microsecond
// submit cost per command.
#pragma once

#include <memory>

#include "hw/nvme_ssd.h"
#include "nvmf/overhead_device.h"

namespace nvmecr::nvmf {

/// Owns a hardware queue on a local SSD and exposes it as a BlockDevice
/// with SPDK-calibre per-command software cost.
class SpdkLocalDevice final : public hw::BlockDevice {
 public:
  static StatusOr<std::unique_ptr<SpdkLocalDevice>> open(hw::NvmeSsd& ssd,
                                                          uint32_t nsid) {
    auto queue = ssd.alloc_queue();
    if (!queue.ok()) return queue.status();
    return std::unique_ptr<SpdkLocalDevice>(
        new SpdkLocalDevice(ssd, nsid, *queue));
  }

  ~SpdkLocalDevice() override { ssd_.free_queue(queue_id_); }

  uint64_t capacity() const override { return wrapped_->capacity(); }
  uint32_t hw_block_size() const override { return wrapped_->hw_block_size(); }
  uint64_t tag_origin() const override { return wrapped_->tag_origin(); }

  // Forwards the wrapped task directly: no frame of its own per IO.
  sim::Task<Status> submit(hw::IoCmd cmd, uint64_t* tag = nullptr) override {
    // A batch is issued as ONE command: the SPDK CPU and controller costs
    // are charged once, not per subcommand (see ROADMAP, "SpdkLocalDevice
    // charges a batch as one command").
    cmd.subcmds = 1;
    return wrapped_->submit(cmd, tag);
  }

  uint32_t queue_id() const { return queue_id_; }

 private:
  /// Driver CPU per submitted command (polled completion costs nothing).
  static constexpr SimDuration kPerCmdCpu = 300;  // ns

  SpdkLocalDevice(hw::NvmeSsd& ssd, uint32_t nsid, uint32_t queue_id)
      : ssd_(ssd),
        queue_id_(queue_id),
        raw_(ssd.open_queue(nsid, queue_id)),
        wrapped_(std::make_unique<OverheadDevice>(
            ssd.engine(), *raw_,
            OverheadCosts{.per_op_submit = kPerCmdCpu,
                          .per_op_complete = 0})) {}

  hw::NvmeSsd& ssd_;
  uint32_t queue_id_;
  std::unique_ptr<hw::BlockDevice> raw_;
  std::unique_ptr<OverheadDevice> wrapped_;
};

}  // namespace nvmecr::nvmf
