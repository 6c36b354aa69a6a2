// Retry with exponential backoff for the remote data path (DESIGN.md §13).
//
// RetryDevice wraps the per-rank NVMf qpair BlockDevice (deploy_resilient
// installs it through RuntimeConfig::device_wrapper) and retries
// RETRYABLE errors — transport timeouts, unreachable targets,
// typed-unavailable — with exponential backoff plus deterministic seeded
// jitter, under a per-operation deadline. Fatal errors (corruption,
// invalid argument, plain IO errors from fail_device-style injection)
// pass through on the first attempt: retrying those would only mask
// bugs.
//
// Every outcome feeds the HealthMonitor: success is proof of life
// (note_ok), a retryable failure is one miss (note_miss), and an
// exhausted retry budget escalates to note_exhausted — declaring the
// target dead so the failover layer (failover.h) can re-place the rank's
// extents in a partner domain instead of burning the checkpoint deadline
// on a corpse. Once the monitor says the target is dead, RetryDevice
// fails fast without sleeping: the first IO pays the detection cost, the
// rest of the checkpoint pivots immediately.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/units.h"
#include "hw/block_device.h"
#include "obs/observer.h"
#include "resilience/health.h"
#include "simcore/engine.h"

namespace nvmecr::resilience {

/// Total attempts per operation (first try + retries).
inline constexpr uint32_t kMaxAttempts = 4;
/// Cap of the exponential backoff (retry.cc), which is then jittered by
/// +/- kBackoffJitter.
inline constexpr SimDuration kMaxBackoff = 1'000'000;  // 1 ms
inline constexpr double kBackoffJitter = 0.25;

/// BlockDevice decorator: retry/backoff + health reporting.
class RetryDevice final : public hw::BlockDevice {
 public:
  RetryDevice(sim::Engine& engine, std::unique_ptr<hw::BlockDevice> inner,
              HealthMonitor& monitor, fabric::NodeId storage_node,
              uint64_t jitter_seed);

  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t hw_block_size() const override { return inner_->hw_block_size(); }
  uint64_t tag_origin() const override { return inner_->tag_origin(); }

  /// Submits `cmd` to the inner device, re-submitting the same command
  /// on retryable errors (every command is an idempotent write/read at a
  /// fixed offset, or a flush).
  sim::Task<Status> submit(hw::IoCmd cmd, uint64_t* tag = nullptr) override;

  fabric::NodeId storage_node() const { return node_; }
  uint64_t retries() const { return retries_; }

  void set_observer(const obs::Observer& o);

 private:
  /// Backoff before retry `attempt` (1-based retry index), jittered.
  SimDuration backoff_for(uint32_t attempt);

  sim::Engine& engine_;
  std::unique_ptr<hw::BlockDevice> inner_;
  HealthMonitor& monitor_;
  fabric::NodeId node_;
  Rng rng_;
  uint64_t retries_ = 0;
  obs::Counter* m_retries_ = nullptr;
};

}  // namespace nvmecr::resilience
