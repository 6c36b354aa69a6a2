#include "resilience/retry.h"

#include <algorithm>
#include <utility>

namespace nvmecr::resilience {

namespace {
/// Backoff before retry k (1-based): kBaseBackoff * kBackoffMultiplier^(k-1),
/// capped at kMaxBackoff.
constexpr SimDuration kBaseBackoff = 50'000;  // 50 us
constexpr double kBackoffMultiplier = 2.0;
/// Per-operation deadline: once an operation has spent this much sim time
/// across attempts and backoffs, the budget is exhausted even if attempts
/// remain. Keeps worst-case stall bounded against the checkpoint interval.
constexpr SimDuration kOpDeadline = 10'000'000;  // 10 ms
}  // namespace

RetryDevice::RetryDevice(sim::Engine& engine,
                         std::unique_ptr<hw::BlockDevice> inner,
                         HealthMonitor& monitor, fabric::NodeId storage_node,
                         uint64_t jitter_seed)
    : engine_(engine),
      inner_(std::move(inner)),
      monitor_(monitor),
      node_(storage_node),
      rng_(jitter_seed) {
  monitor_.track(node_);
}

void RetryDevice::set_observer(const obs::Observer& o) {
  m_retries_ =
      o.metrics != nullptr ? o.metrics->counter("resilience.retries") : nullptr;
}

SimDuration RetryDevice::backoff_for(uint32_t attempt) {
  double b = static_cast<double>(kBaseBackoff);
  for (uint32_t i = 1; i < attempt; ++i) b *= kBackoffMultiplier;
  b = std::min(b, static_cast<double>(kMaxBackoff));
  b *= rng_.jitter(kBackoffJitter);
  return static_cast<SimDuration>(b);
}

sim::Task<Status> RetryDevice::submit(hw::IoCmd cmd, uint64_t* tag) {
  const SimTime deadline = engine_.now() + kOpDeadline;
  for (uint32_t attempt = 1;; ++attempt) {
    if (monitor_.dead(node_)) {
      // Already declared dead (by us on an earlier op, the heartbeat, or
      // a sibling rank): don't burn the IO timeout again — fail fast so
      // the failover layer pivots immediately.
      co_return UnreachableError("target node " + std::to_string(node_) +
                                 " is dead (failing fast)");
    }
    Status s = co_await inner_->submit(cmd, tag);
    if (s.ok()) {
      monitor_.note_ok(node_);
      co_return s;
    }
    if (!is_retryable(s.code())) co_return s;  // fatal: surface immediately
    monitor_.note_miss(node_);
    const bool attempts_left = attempt < kMaxAttempts;
    const SimDuration backoff = backoff_for(attempt);
    const bool deadline_left = engine_.now() + backoff < deadline;
    if (!attempts_left || !deadline_left || monitor_.dead(node_)) {
      monitor_.note_exhausted(node_);
      co_return s;
    }
    ++retries_;
    if (m_retries_ != nullptr) m_retries_->add();
    co_await engine_.delay(backoff);
  }
}

}  // namespace nvmecr::resilience
