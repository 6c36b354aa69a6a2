// Per-operation software-cost wrapper around a BlockDevice.
//
// The same wrapper expresses both ends of Figure 2 vs Figure 4:
//  * SPDK userspace path: sub-microsecond submit cost, polling completion
//    (no interrupt), time attributed to userspace.
//  * kernel path: syscall trap + VFS + block layer + interrupt costs,
//    with the op's full duration attributed to a kernel-time accumulator
//    (reproduces the §IV-D kernel-time percentages).
#pragma once

#include "common/units.h"
#include "hw/block_device.h"
#include "simcore/engine.h"

namespace nvmecr::nvmf {

struct OverheadCosts {
  /// CPU charged before the inner op starts (submission path).
  SimDuration per_op_submit = 0;
  /// CPU charged after the inner op completes (completion path,
  /// e.g. interrupt handling + context switch back).
  SimDuration per_op_complete = 0;
};

class OverheadDevice final : public hw::BlockDevice {
 public:
  /// If `kernel_time` is non-null, the entire duration of every op
  /// (submit cost + inner op + completion cost) is added to it.
  OverheadDevice(sim::Engine& engine, hw::BlockDevice& inner,
                 OverheadCosts costs, SimDuration* kernel_time = nullptr)
      : engine_(engine), inner_(inner), costs_(costs),
        kernel_time_(kernel_time) {}

  uint64_t capacity() const override { return inner_.capacity(); }
  uint32_t hw_block_size() const override { return inner_.hw_block_size(); }
  uint64_t tag_origin() const override { return inner_.tag_origin(); }

  // A batch still pays the per-command software cost once per
  // represented command (the kernel path cannot amortize syscalls).
  sim::Task<Status> submit(hw::IoCmd cmd, uint64_t* tag = nullptr) override {
    const SimTime start = engine_.now();
    co_await engine_.delay(costs_.per_op_submit * cmd.subcmds);
    Status s = co_await inner_.submit(cmd, tag);
    co_await engine_.delay(costs_.per_op_complete * cmd.subcmds);
    if (kernel_time_ != nullptr) *kernel_time_ += engine_.now() - start;
    co_return s;
  }

 private:
  sim::Engine& engine_;
  hw::BlockDevice& inner_;
  OverheadCosts costs_;
  SimDuration* kernel_time_;
};

}  // namespace nvmecr::nvmf
