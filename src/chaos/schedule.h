// Seeded failure-schedule generation (DESIGN.md §17).
//
// A FailureSchedule is a deterministic, timed list of fault events
// compiled from parametric per-failure-domain models — the chaos
// campaign's answer to hand-written fault scenarios. Every stochastic
// choice flows from ScheduleParams::seed through per-domain substreams
// (node i's arrival process is independent of how many events node i-1
// drew), so a schedule is reproducible from {seed, params} alone, and an
// event subset is addressable by stable event ids — what the shrinker
// needs to print a minimal {seed, event-subset} reproducer.
//
// Failure processes (EasyCrash's argument: resilience claims need
// realistic failure *processes*, not single injected faults):
//   * per-domain MTBF draws, exponential (memoryless) or Weibull with
//     shape < 1 (infant-mortality burstiness);
//   * transient vs. permanent outcomes (transient outages draw a repair
//     time; a permanent loss ends that domain's process);
//   * correlated rack bursts — a target crash takes its rack siblings
//     down in a short window (shared PDU / ToR failure);
//   * cascades — a failure triggers a follow-on on another domain
//     shortly after (load-shift-induced secondary failure);
//   * network partitions at rack granularity, link flaps per node,
//     straggler windows (GC pause / thermal throttle: slow, not dead);
//   * at most one process-level job kill per schedule (epoch +
//     kill point), exercising the kill-and-restart path under storage
//     faults.
//
// Schedules serialize to a line-oriented text format so a failing
// campaign run can be dumped to a file and replayed byte-identically by
// `chaos_campaign --replay`.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "workloads/app_driver.h"

namespace nvmecr::chaos {

enum class FaultKind : uint8_t {
  kTargetCrash,  // NVMe-oF target daemon crash (victim = storage index)
  kSsdCrash,     // device crash, content survives (victim = storage index)
  kLinkDown,     // fabric link down window (victim = storage index)
  kStraggler,    // SSD service-time inflation (victim = storage index)
  kPartition,    // rack-level network partition (victim = rack index)
  kJobKill,      // process kill (victim = epoch; kill_point set)
};

const char* fault_kind_name(FaultKind k);

struct FailureEvent {
  uint32_t id = 0;     // stable index within the schedule (shrinker key)
  FaultKind kind = FaultKind::kTargetCrash;
  uint32_t victim = 0;
  SimTime at = 0;
  SimTime until = 0;   // 0 = permanent (never recovers)
  double factor = 1.0; // straggler service-time inflation
  workloads::KillPoint kill_point = workloads::KillPoint::kNone;

  bool permanent() const { return until == 0; }
};

enum class MtbfDist : uint8_t { kExponential, kWeibull };

/// Failure process of one fault family across its domains (one arrival
/// stream per storage node / rack). mtbf == 0 disables the family.
struct DomainModel {
  MtbfDist dist = MtbfDist::kExponential;
  double mtbf = 0;            // mean time between failures, ns
  double weibull_shape = 0.7; // < 1 clusters failures (infant mortality)
  double transient_prob = 1.0;
  double repair_mean = 5.0 * kMillisecond;  // mean transient outage, ns
};

/// A straggler event's service-time inflation is drawn uniformly from
/// [kStragglerFactorMin, kStragglerFactorMax].
inline constexpr double kStragglerFactorMin = 2.0;
inline constexpr double kStragglerFactorMax = 8.0;

struct ScheduleParams {
  uint64_t seed = 1;
  SimTime horizon = 100 * kMillisecond;  // events drawn in [0, horizon)
  uint32_t storage_nodes = 8;
  uint32_t racks = 4;
  uint32_t epochs = 5;  // job-kill epoch domain

  DomainModel target;     // per-node target-daemon crashes
  DomainModel ssd;        // per-node device crashes
  DomainModel link;       // per-node link flaps (always transient)
  DomainModel straggler;  // per-node straggler windows
  DomainModel partition;  // per-rack partitions (always transient)

  /// A target/SSD crash drags the victim's rack siblings down with it.
  double rack_burst_prob = 0.0;
  /// A crash triggers a follow-on crash on the next domain shortly after.
  double cascade_prob = 0.0;
  /// Probability the schedule contains one process kill.
  double job_kill_prob = 0.0;

  /// Densest schedules are truncated to this many events (time order).
  uint32_t max_events = 64;
};

struct FailureSchedule {
  ScheduleParams params;
  std::vector<FailureEvent> events;  // sorted by (at, kind, victim), ids 0..n-1
};

/// Compiles the parametric models into a timed event list. Deterministic:
/// same params (incl. seed) -> byte-identical schedule.
FailureSchedule generate_schedule(const ScheduleParams& params);

/// Line-oriented text form, parseable by parse_schedule (what
/// `chaos_campaign --replay` reads).
std::string serialize_schedule(const FailureSchedule& sched);
StatusOr<FailureSchedule> parse_schedule(const std::string& text);

/// Mean time between *any* two failures of the schedule's crash families
/// (target + ssd + per-rack partitions), the M that feeds Young/Daly.
/// Falls back to the horizon when every family is disabled.
double schedule_mtbf(const ScheduleParams& params);

}  // namespace nvmecr::chaos
