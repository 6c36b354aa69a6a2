// Chaos campaign runner (DESIGN.md §17): sweeps many seeded failure
// schedules against an AppDriver workload on the full resilient stack
// (resilience::deploy_resilient: retry wrapper -> partner redundancy ->
// mid-checkpoint failover) and enforces the survival trichotomy on every
// run:
//
//   1. the run COMPLETES and a restart is verify_restart digest-identical
//      to the golden run, or
//   2. it FAILS WITH A TYPED ERROR (an explicit Status, e.g. the fast
//      tier is gone for good), but
//   3. it never HANGS (deadline-based deadlock detector on every engine
//      phase) and never CORRUPTS (post-run microfs fsck over the primary
//      deployment's live runtime instances and every failover spare; the
//      partner store is not scanned).
//
// Outcomes 1 and 2 are acceptable; a hang, corruption, or digest
// divergence is a violation. On the first violation the runner shrinks
// the schedule ddmin-style to a minimal reproducing event subset and
// reports {seed, event-subset} — the crash_explore reproducer contract.
#pragma once

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chaos/inject.h"
#include "chaos/schedule.h"

namespace nvmecr::chaos {

enum class Verdict : uint8_t {
  kCompleted,     // ran (or restarted) to completion, digest-identical
  kTypedFailure,  // failed with an explicit typed Status — acceptable
  kHang,          // VIOLATION: deadline cutoff with tasks pending
  kCorruption,    // VIOLATION: fsck found invariant issues
  kDivergence,    // VIOLATION: completed but digests/residuals differ
  kInfra,         // VIOLATION: harness could not even set up the run
};

const char* verdict_name(Verdict v);

// Unified process exit codes shared by chaos_campaign, fault_storm and
// restart_verify so CI can tell the outcome classes apart.
inline constexpr int kExitOk = 0;
inline constexpr int kExitInfra = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitTypedFailure = 3;
inline constexpr int kExitHang = 4;
inline constexpr int kExitDivergence = 5;
inline constexpr int kExitCorruption = 6;

int verdict_exit_code(Verdict v);

/// Per-phase hang cutoff of every campaign run (sim ns); must exceed the
/// daemon horizon (schedule horizon + kHealMargin, campaign.cc) or
/// daemons read as hung ranks.
inline constexpr SimDuration kPhaseDeadline = 1'000 * kMillisecond;

struct CampaignConfig {
  std::string app = "CoMD";
  uint32_t ranks = 4;
  uint32_t epochs = 5;
  /// Schedule model shared by every run; run i draws seed base.seed + i.
  ScheduleParams base;

  CampaignConfig();  // fills `base` with the default chaos mix
};

struct RunOutcome {
  Verdict verdict = Verdict::kInfra;
  uint64_t schedule_seed = 0;
  Status status;  // detail for non-completed verdicts
  InjectionStats faults;
  uint32_t restored_epoch = 0;
  bool from_initial = false;
  SimDuration run_time = 0;  // sim ns consumed by the whole trichotomy

  bool violation() const {
    return verdict != Verdict::kCompleted && verdict != Verdict::kTypedFailure;
  }
};

struct CampaignResult {
  uint32_t runs = 0;
  uint32_t completed = 0;
  uint32_t typed_failures = 0;
  uint32_t hangs = 0;
  uint32_t corruptions = 0;
  uint32_t divergences = 0;
  uint32_t infra = 0;
  /// First violating run (the campaign stops there), with its schedule
  /// and the shrunk minimal event subset reproducing the violation.
  std::optional<RunOutcome> first_violation;
  FailureSchedule violating_schedule;
  std::vector<uint32_t> minimal_subset;

  bool clean() const { return !first_violation.has_value(); }
  int exit_code() const {
    return clean() ? kExitOk : verdict_exit_code(first_violation->verdict);
  }
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig cfg);

  /// Schedule parameters for campaign run `index` (seed = base.seed + i).
  ScheduleParams schedule_params(uint32_t index) const;

  /// One schedule through the full trichotomy check, on a fresh
  /// simulation stack. `subset` restricts injection to those event ids
  /// (the shrinker's lever).
  RunOutcome run_schedule(const FailureSchedule& sched,
                          const std::vector<uint32_t>* subset = nullptr);

  /// Sweeps `schedules` generated schedules; stops at the first
  /// violation and (when `shrink`) ddmin-shrinks it. `csv` (optional)
  /// gets one line per run; `verbose` prints one line per run.
  CampaignResult run_campaign(uint32_t schedules, bool shrink = true,
                              std::FILE* csv = nullptr, bool verbose = false);

  /// The uninterrupted golden run (computed once; reused for every
  /// verify_restart — the solver state is sim-time-independent).
  const workloads::AppRunResult& golden();

 private:
  CampaignConfig cfg_;
  std::optional<workloads::AppRunResult> golden_;
};

/// Zeller/Hildebrandt ddmin over event ids: returns a locally minimal
/// subset for which `fails` still returns true. `fails(ids)` must be
/// true on entry; `fails` is invoked O(n^2) times worst case.
std::vector<uint32_t> ddmin(
    std::vector<uint32_t> ids,
    const std::function<bool(const std::vector<uint32_t>&)>& fails);

/// One-line reproducer (crash_explore parity): how to re-run exactly
/// this violation from the command line, with each of `cfg`'s app, ranks
/// and epochs that differs from the default.
std::string reproducer_line(const CampaignConfig& cfg,
                            const FailureSchedule& sched,
                            const std::vector<uint32_t>& subset);

/// The campaign a dumped schedule replays under: `cfg`'s app and ranks,
/// which the file does not carry, and the schedule's own epochs.
CampaignConfig replay_config(CampaignConfig cfg, const FailureSchedule& sched);

/// How to replay a schedule that a campaign over `cfg` dumped to `path`:
/// `chaos_campaign --replay PATH` with each of `cfg`'s app and ranks that
/// differs from the default (the file carries the epochs).
std::string replay_file_line(const CampaignConfig& cfg,
                             const std::string& path);

}  // namespace nvmecr::chaos
