// Failure detection for the NVMe-oF data path (DESIGN.md §13).
//
// One HealthMonitor per job tracks the liveness of every storage target
// the job writes to, fed from two sides:
//
//   * data plane — the retrying device wrapper (retry.h) reports each IO
//     outcome: a completed IO (however slow) is proof of life, a
//     transport timeout is one miss;
//   * management plane — a lightweight sim-time heartbeat probes every
//     tracked target each period and reports the same way.
//
// Hysteresis: a target is only declared dead after kDeadAfterMisses
// CONSECUTIVE misses (or an explicit retry-budget exhaustion from the
// data plane). A single slow IO — a straggler SSD at 10x latency still
// completes — therefore never trips the detector; the false-positive
// tests pin this behavior.
//
// State machine (ISSUE 5 / DESIGN.md §13):
//
//   healthy --miss--> suspect --misses >= kDeadAfterMisses--> dead
//      ^                 |ok                                    |probe ok
//      |                 v                                      v
//      +-------------- healthy <----------heal complete---- healing
//
// A probe success on a dead target moves it to `healing` (the node is
// back, but data written elsewhere during the outage is still degraded);
// the healer (failover.cc) re-replicates that data and then reports
// note_healed(), closing the loop. Everything is deterministic: state
// lives in a std::map (sorted iteration) and transitions depend only on
// the DES event order.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.h"
#include "nvmecr/cluster.h"
#include "obs/observer.h"
#include "simcore/engine.h"

namespace nvmecr::resilience {

enum class TargetState { kHealthy, kSuspect, kDead, kHealing };

const char* target_state_name(TargetState s);

/// Consecutive misses (IO timeouts or heartbeat probe failures) before a
/// suspect target is declared dead. 1 would defeat the hysteresis.
inline constexpr uint32_t kDeadAfterMisses = 3;
/// Heartbeat probe period (sim time).
inline constexpr SimDuration kHeartbeatPeriod = 250'000;  // 250 us

class HealthMonitor {
 public:
  /// Watches `cluster`'s storage targets. Metric instruments
  /// ("resilience.*") and health instants go to the observer installed
  /// on the cluster at construction.
  explicit HealthMonitor(nvmecr_rt::Cluster& cluster);
  // Retrying devices keep a reference to the monitor they report into.
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Registers a storage node for tracking (idempotent).
  void track(fabric::NodeId node);
  bool tracked(fabric::NodeId node) const {
    return targets_.find(node) != targets_.end();
  }

  /// Data/management plane reports. note_ok on a dead target means the
  /// node answered a probe again: it moves to kHealing, not kHealthy —
  /// data lost to the outage is still degraded until the healer is done.
  void note_ok(fabric::NodeId node);
  void note_miss(fabric::NodeId node);
  /// Data plane escalation: the retry budget for one IO was exhausted on
  /// retryable errors — the target is dead regardless of the miss count.
  void note_exhausted(fabric::NodeId node);
  /// Healer report: all degraded data for `node` is re-replicated.
  void note_healed(fabric::NodeId node);

  TargetState state(fabric::NodeId node) const;
  bool dead(fabric::NodeId node) const {
    return state(node) == TargetState::kDead;
  }
  /// Sim time the target was declared dead (0 = never died).
  SimTime dead_since(fabric::NodeId node) const;

  /// Failure domains containing at least one currently-dead target,
  /// sorted ascending — the exclude_domains input for failover placement.
  std::vector<fabric::RackId> dead_domains() const;

  /// Refills `out` with the tracked nodes currently in `s`, sorted
  /// ascending (the healer scans for kHealing targets every tick and
  /// reuses one vector's capacity).
  void nodes_in_state(TargetState s, std::vector<fabric::NodeId>& out) const;

  /// Total state transitions (a cheap determinism fingerprint).
  uint64_t transitions() const { return transitions_; }

  /// Bounded heartbeat daemon: every kHeartbeatPeriod until sim-time
  /// `until`, probes each tracked target with
  /// Cluster::storage_node_up(node, now) and feeds the result in as
  /// note_ok / note_miss. Bounded so that the engine still reaches
  /// quiescence (Engine::run() runs until no events remain — a
  /// free-running periodic task would never let it return).
  sim::Task<void> heartbeat(SimTime until);

 private:
  struct Target {
    TargetState state = TargetState::kHealthy;
    uint32_t misses = 0;
    SimTime dead_since = 0;
  };

  void transition(fabric::NodeId node, Target& t, TargetState next);

  nvmecr_rt::Cluster& cluster_;
  std::map<fabric::NodeId, Target> targets_;  // sorted: deterministic scans
  uint64_t transitions_ = 0;

  obs::Counter* m_deaths_ = nullptr;
  obs::Counter* m_false_alarms_ = nullptr;  // suspect -> healthy recoveries
  obs::Observer obs_;
};

}  // namespace nvmecr::resilience
