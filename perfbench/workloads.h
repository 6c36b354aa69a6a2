// The benchmark's three workloads and their units of work:
//
//   nvmecr_weak448     one NVMe-CR CoMD weak-scaling job at 448 ranks (10
//                      checkpoints of ~149 MiB per rank, then restart), no
//                      PFS tier.
//   dfs_multilevel448  Table II's comparator arms on the same job,
//                      GlusterFS then OrangeFS, every 10th checkpoint on
//                      the Lustre model.
//   chaos_campaign     pinned-seed failure schedules, each through
//                      CampaignRunner::run_schedule.
//
// A traced CoMD job arms obs::Observer (dispatch + epoch profilers and a
// metrics registry) and decorates every storage system with
// TracedSystem; an untraced job runs the bare stack. Both report the same
// fingerprint of their simulated outputs, or the decorator is not a pure
// pass-through.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "workloads/comd.h"

namespace nvmecr::perfbench {

/// The seed that reproduces the paper's parameters exactly (and the
/// pinned chaos campaign's base seed).
inline constexpr uint64_t kDefaultSeed = 1;

/// weak_scaling_params(`nranks`) with atoms per rank drawn from `seed`
/// in [32768 - 512, 32768], which moves the checkpoint size against the
/// 32 KiB hugeblocks and the 4 MiB io_chunk. The paper's 32768 sits just
/// below a partition-size step (partition_for rounds to 64 MiB), so
/// drawing only below it keeps every seed on the paper's partition size
/// and memory footprint. kDefaultSeed keeps exactly 32768.
workloads::ComdParams comd_params(uint64_t seed, uint32_t nranks = 448);

struct JobResult {
  bool ok = false;
  std::string error;         // first failure, when !ok
  double setup_s = 0;        // host s: cluster, allocation, systems
  double wall_s = 0;         // host s: the run plus teardown
  /// wall_s split at every kWindowEvents-th event of each arm, in run
  /// order: the same stretches of work in every run of the same job.
  std::vector<double> pieces_s;
  std::vector<double> calib_s;  // calibrate() after each piece
  uint64_t events = 0;       // engine dispatches, all arms
  uint64_t fingerprint = 0;  // see job_fingerprint() in workloads.cc
  /// Per-layer values by metric name (traced jobs only).
  std::map<std::string, double> layers;
};

enum class ComdWorkload { kNvmecrWeak, kDfsMultilevel };

/// Engine events per timed piece of a CoMD job (a few milliseconds).
inline constexpr uint64_t kWindowEvents = 1u << 14;

/// Host seconds of a fixed dependent walk over a 64 KiB table (about
/// 25 us when the host is quiet): the host's speed right now. A shared
/// host's speed swings by tens of percent within milliseconds, so every
/// timed piece of a unit is followed by one calibration, and run.py
/// scales each piece by it.
double calibrate();

/// Runs one job. With `setup_only` the stack is built and torn down
/// without running (setup-time repetitions); only setup_s is set.
JobResult run_comd_job(ComdWorkload workload,
                       const workloads::ComdParams& params, bool traced,
                       bool setup_only = false);

/// chaos_campaign: the default campaign configuration (CoMD, 4 ranks x 5
/// epochs, full resilient stack) with schedule seeds base_seed + index.
class ChaosWorkload {
 public:
  /// Builds the runner and its golden run; setup_s() times exactly that.
  explicit ChaosWorkload(uint64_t base_seed);

  struct Unit {
    chaos::RunOutcome outcome;
    double wall_s = 0;  // host s: generate + run_schedule
    double calib_s = 0;  // calibrate() right after
  };
  Unit run(uint32_t index);

  double setup_s() const { return setup_s_; }
  const workloads::AppRunResult& golden() { return runner_.golden(); }

 private:
  chaos::CampaignRunner runner_;
  double setup_s_ = 0;
};

/// Fingerprint of one schedule's outcome (folded into the run's
/// fingerprint for the first schedules of a run).
uint64_t outcome_fingerprint(const chaos::RunOutcome& o);

/// Mixes `v` into `h` (FNV-1a over the 8 bytes).
uint64_t fold(uint64_t h, uint64_t v);
inline constexpr uint64_t kFoldBasis = 0xcbf29ce484222325ull;

}  // namespace nvmecr::perfbench
