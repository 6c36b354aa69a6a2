// AppDriver: the common application driver behind restart verification
// (DESIGN.md §16).
//
// Generalizes the ComdDriver pattern — BSP epochs of compute + N-N
// checkpointing through the minimpi + runtime stack — into a driver any
// registered AppSpec runs under, with the two pieces ComdDriver never
// had:
//
//   * real application state. Each rank owns an AppRankState advanced
//     by two global reductions per epoch (minimpi::allreduce_sum); the
//     simulated checkpoint stream carries AppRunParams::stream_bytes
//     per rank (the storage API is length-only), while the *actual*
//     serialized solver state + CRC64 digest + epoch residual are
//     recorded in a per-driver CheckpointLedger once the stream's
//     close() succeeded on the device. Every epoch's checkpoint is
//     kept, so any committed epoch is a restart candidate.
//
//   * kill-and-restore. run() can kill the application at a configured
//     epoch — before, in the middle of (half the stream written, fd
//     abandoned), or after its checkpoint. A kill ends the rank
//     coroutines but keeps the driver's storage sessions alive, exactly
//     modeling a process crash: memory is lost, flash is not. (Sessions
//     must survive — NvmecrClient::init() reformats the partition on
//     connect, so a reconnect would wipe the fast tier; see runtime.h
//     and the Reconstructor's online-rebuild contract.) restart() then
//     probes the newest epoch committed by *every* rank against a
//     tier-tagged restore chain (fast session / XOR-reconstruction /
//     PFS — nvmecr_rt::RestoreSource), replays the checkpoint read,
//     rebuilds the solver state from the ledger snapshot, verifies its
//     digest, and resumes compute to the end.
//
// Verification contract (verify_restart): a restored run must finish
// with every rank's state digest and every post-restore residual
// bit-identical to an uninterrupted golden run of the same spec + seed.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/storage_api.h"
#include "minimpi/comm.h"
#include "nvmecr/cluster.h"
#include "nvmecr/multilevel.h"
#include "workloads/apps.h"

namespace nvmecr::workloads {

/// Where in an epoch the application dies. Kills are global — every
/// rank stops at the same point, the way a job-wide SIGKILL lands
/// between collectives — which keeps minimpi's rendezvous balanced.
enum class KillPoint : uint8_t {
  kNone,
  kBeforeCheckpoint,  // after the epoch's compute + reductions
  kMidCheckpoint,     // half the checkpoint stream written, fd abandoned
  kAfterCheckpoint,   // checkpoint committed, then death
};

struct KillSpec {
  uint32_t epoch = 0;
  KillPoint point = KillPoint::kNone;
  bool armed() const { return point != KillPoint::kNone; }
};

const char* kill_point_name(KillPoint p);

/// What the application-layer side channel records per (rank, epoch).
/// The simulation's storage API carries no payload bytes, so the real
/// serialized solver state lives here — the stand-in for what a
/// checkpoint library would read back from the verified stream.
/// An entry exists only once the epoch's stream was closed on the device.
struct CheckpointRecord {
  uint64_t digest = 0;   // CRC64 of `snapshot`, rank-seeded
  double residual = 0.0; // epoch residual at checkpoint time
  bool on_pfs = false;   // routed to the PFS tier (multi-level policy)
  std::vector<std::byte> snapshot;
};

class CheckpointLedger {
 public:
  CheckpointRecord& entry(uint32_t rank, uint32_t epoch) {
    return entries_[key(rank, epoch)];
  }
  const CheckpointRecord* find(uint32_t rank, uint32_t epoch) const {
    auto it = entries_.find(key(rank, epoch));
    return it == entries_.end() ? nullptr : &it->second;
  }
  /// Epochs committed by every one of `nranks` ranks, newest first —
  /// the restart candidates.
  std::vector<uint32_t> committed_epochs(uint32_t nranks) const;

 private:
  static uint64_t key(uint32_t rank, uint32_t epoch) {
    return (static_cast<uint64_t>(rank) << 32) | epoch;
  }
  std::map<uint64_t, CheckpointRecord> entries_;
};

struct AppRunParams {
  uint32_t ranks = 4;
  /// Epochs per run; each ends in one checkpoint per rank.
  uint32_t epochs = 5;
  /// Simulated checkpoint body per rank per epoch (after a fixed
  /// header). The verified solver state is independent of it.
  uint64_t stream_bytes = 2_MiB;
  /// Compute phase per epoch, scaled per rank by the spec's jitter.
  SimDuration compute_per_period = 2 * kMillisecond;
  uint64_t seed = 0x5EED;
  /// Every `pfs_interval`-th checkpoint routes to the PFS system passed
  /// to the constructor (0 = fast tier only).
  uint32_t pfs_interval = 0;
  /// Hang detector (chaos campaigns): when nonzero, run()/restart() stop
  /// advancing the simulation `deadline` ns after they start. Rank
  /// coroutines still pending at the cutoff — with no typed error
  /// recorded — make the call fail with kDeadlineExceeded instead of
  /// spinning forever. The engine is poisoned after a hit (stuck frames
  /// reclaimed only by its destructor): discard the whole stack. Any
  /// background daemons sharing the engine (heartbeat/healer) must be
  /// bounded by a horizon shorter than the deadline, or they read as
  /// hung application ranks.
  SimDuration deadline = 0;
};

inline constexpr uint32_t kNoRestoreEpoch = UINT32_MAX;

struct AppRunResult {
  /// Epoch residuals[0] belongs to (0 for a fresh run, restored
  /// epoch + 1 after a restart).
  uint32_t first_epoch = 0;
  std::vector<double> residuals;
  /// Final per-rank state digests and their job-level CRC64 rollup;
  /// empty/0 when the run was killed.
  std::vector<uint64_t> rank_digests;
  uint64_t job_digest = 0;
  bool killed = false;
  bool from_initial = false;  // no committed checkpoint: restarted fresh
  uint32_t restored_epoch = kNoRestoreEpoch;
  SimDuration total_time = 0;
};

/// How restart() finds checkpoint data. Default (`chain` unset): the
/// rank's live fast-tier session (which also serves checkpoints that
/// failed over to a spare), then its PFS session. Tests inject
/// reconstruction clients and single-tier chains here. `pfs_tier` of each
/// source must match the ledger entry's placement (see
/// nvmecr_rt::RestoreSource for why probing cannot span tiers).
struct RestorePlan {
  std::function<std::vector<nvmecr_rt::RestoreSource>(uint32_t rank)> chain;
  /// Write checkpoints while resuming. Turn off when the fast tier is
  /// gone for good (e.g. restoring via XOR decode after a domain loss).
  bool resume_checkpoints = true;
};

class AppDriver {
 public:
  /// `fast` serves the fast-tier sessions; `pfs` (optional) the PFS
  /// sessions used when params.pfs_interval > 0. Both must outlive the
  /// driver. The driver connects one session per rank on first use and
  /// holds them for its lifetime — across kills and restarts.
  AppDriver(nvmecr_rt::Cluster& cluster, baselines::StorageSystem& fast,
            const AppSpec& spec, AppRunParams params,
            baselines::StorageSystem* pfs = nullptr);
  ~AppDriver();

  /// One fresh run from initial state (the golden run when `kill` is
  /// unset). With `kill` armed the returned result has killed = true
  /// and the driver retains everything restart() needs.
  StatusOr<AppRunResult> run(const KillSpec& kill = {});

  /// Restores the newest fully-committed checkpoint through `plan`'s
  /// chain, resumes compute, and runs to the end (or to the next kill,
  /// for back-to-back cycle tests). Falls back to a fresh initial-state
  /// start when no epoch was ever committed by all ranks.
  StatusOr<AppRunResult> restart(const RestorePlan& plan = {},
                                 const KillSpec& kill = {});

  CheckpointLedger& ledger() { return ledger_; }
  /// Rank's live fast-tier session (nullptr before the first run).
  baselines::StorageClient* session(uint32_t rank);
  baselines::StorageClient* pfs_session(uint32_t rank);

 private:
  struct RunCtx;

  Status ensure_connected();
  sim::Task<void> connect_task(Status& out);
  sim::Task<void> probe_task(const RestorePlan& plan,
                             std::vector<nvmecr_rt::RestoreSource>& chosen,
                             uint32_t& epoch_out, bool& done);
  /// Runs the engine for the current phase: to quiescence, or — when
  /// params_.deadline is set — at most deadline ns past `started`.
  /// Returns kDeadlineExceeded if root tasks are still pending at the
  /// cutoff without a recorded typed error.
  Status run_engine_phase(SimTime started, const Status& first_error,
                          const char* phase);
  sim::Task<void> epoch_loop(uint32_t rank, uint32_t start, RunCtx& ctx);
  sim::Task<Status> write_checkpoint(uint32_t rank, uint32_t epoch,
                                     double residual, bool mid_kill);
  sim::Task<void> restore_and_resume(uint32_t rank, uint32_t epoch,
                                     nvmecr_rt::RestoreSource source,
                                     RunCtx& ctx);
  StatusOr<AppRunResult> finish_run(RunCtx& ctx);
  std::vector<nvmecr_rt::RestoreSource> default_chain(uint32_t rank);

  nvmecr_rt::Cluster& cluster_;
  baselines::StorageSystem& fast_;
  baselines::StorageSystem* pfs_;
  AppSpec spec_;
  AppRunParams params_;

  std::unique_ptr<minimpi::Comm> comm_;
  std::vector<std::unique_ptr<baselines::StorageClient>> sessions_;
  std::vector<std::unique_ptr<baselines::StorageClient>> pfs_sessions_;
  std::vector<std::unique_ptr<AppRankState>> states_;
  CheckpointLedger ledger_;
  bool connected_ = false;
};

/// Checkpoint path for (app, epoch, rank): flat (microfs creates need an
/// existing parent directory), one private file per rank per epoch.
std::string app_checkpoint_path(const AppSpec& spec, uint32_t epoch,
                                uint32_t rank);

/// Post-restore residuals must be bit-identical to the golden run's at
/// the same epochs. Works for killed runs too (prefix up to the kill).
Status verify_residuals(const AppRunResult& golden,
                        const AppRunResult& restored);

/// Full restart verification: residual bit-equality on the resumed
/// range plus per-rank and job digest equality at the end of the run.
Status verify_restart(const AppRunResult& golden,
                      const AppRunResult& restored);

}  // namespace nvmecr::workloads
